// Tests for demand-plan construction and sub-schedule merging.
#include <gtest/gtest.h>

#include <set>

#include "core/merge.h"

#include "runtime/validate.h"
#include "sim/simulator.h"
#include "core/subdemand.h"
#include "sketch/alltoall.h"
#include "sketch/replicate.h"
#include "solver/greedy.h"
#include "topo/builders.h"

namespace syccl::core {
namespace {

struct Fixture {
  topo::Topology topo = topo::build_h800_cluster(2);
  topo::TopologyGroups groups = topo::extract_groups(topo);
};

/// The combinations of `pattern` sketches rooted at rank 0, replicated for
/// every root when `all_roots` is set.
std::vector<sketch::SketchCombination> combos(const Fixture& f, sketch::RootedPattern pattern,
                                              bool all_roots = true) {
  const sketch::AllToAllConfig config;
  const auto sketches = sketch::search_sketches(f.groups, 0, pattern, config.search);
  return sketch::combine_prototypes(
      sketch::select_prototypes(sketches, f.groups, config.max_prototypes), sketches, f.groups,
      all_roots, config.combine);
}

sketch::SketchCombination first_combo(const Fixture& f, sketch::RootedPattern pattern) {
  return combos(f, pattern).front();
}

std::vector<solver::SubSchedule> solve_greedily(const DemandPlan& plan) {
  std::vector<solver::SubSchedule> solved;
  for (const auto& md : plan.demands) solved.push_back(solver::solve_sub_demand(md.demand));
  return solved;
}

TEST(DemandPlan, AllGatherPiecesMatchChunks) {
  Fixture f;
  const auto combo = first_combo(f, sketch::RootedPattern::Broadcast);
  const auto ag = coll::make_allgather(16, 16 << 20);
  const DemandPlan plan = build_demand_plan(combo, ag, f.groups);

  // One piece per (sketch, root chunk); every chunk covered.
  std::set<int> chunks;
  double total = 0;
  for (const auto& p : plan.pieces) {
    chunks.insert(p.chunk);
    total += p.bytes;
  }
  EXPECT_EQ(chunks.size(), 16u);
  EXPECT_NEAR(total, 16 * ag.chunk_bytes(), 1.0);
  ASSERT_FALSE(plan.demands.empty());
  for (const auto& md : plan.demands) {
    EXPECT_NO_THROW(md.demand.validate());
    EXPECT_EQ(md.demand.pieces.size(), md.global_piece.size());
  }
  // Demands sorted by stage.
  for (std::size_t i = 1; i < plan.demands.size(); ++i) {
    EXPECT_LE(plan.demands[i - 1].stage, plan.demands[i].stage);
  }
}

TEST(DemandPlan, PieceOrderIsCanonical) {
  // Two isomorphic demands must present pieces in the same structural order
  // (required for solver-result sharing).
  Fixture f;
  const auto combo = first_combo(f, sketch::RootedPattern::Broadcast);
  const auto ag = coll::make_allgather(16, 16 << 20);
  const DemandPlan plan = build_demand_plan(combo, ag, f.groups);
  for (const auto& md : plan.demands) {
    for (std::size_t i = 1; i < md.demand.pieces.size(); ++i) {
      const auto& a = md.demand.pieces[i - 1];
      const auto& b = md.demand.pieces[i];
      EXPECT_LE(std::make_pair(a.srcs, a.dsts), std::make_pair(b.srcs, b.dsts));
    }
  }
}

TEST(DemandPlan, ScatterRoutesSubtreeChunks) {
  Fixture f;
  const auto combo = first_combo(f, sketch::RootedPattern::Scatter);
  const auto a2a = coll::make_alltoall(16, 16 << 20);
  const DemandPlan plan = build_demand_plan(combo, a2a, f.groups);
  // AlltoAll: n(n-1) chunks, each a piece per carrying sketch.
  EXPECT_GE(plan.pieces.size(), 16u * 15u);
  for (const auto& md : plan.demands) EXPECT_NO_THROW(md.demand.validate());
}

TEST(DemandPlan, RejectsRootWithoutChunk) {
  Fixture f;
  const auto combo = first_combo(f, sketch::RootedPattern::Broadcast);
  // A rooted Broadcast at rank 0 has no chunk originating at other roots.
  const auto bc = coll::make_broadcast(16, 1 << 20, 0);
  EXPECT_THROW(build_demand_plan(combo, bc, f.groups), std::invalid_argument);
}

TEST(Merge, ForwardScheduleSatisfiesCollective) {
  Fixture f;
  const auto combo = first_combo(f, sketch::RootedPattern::Broadcast);
  const auto ag = coll::make_allgather(16, 16 << 20);
  const DemandPlan plan = build_demand_plan(combo, ag, f.groups);
  const sim::Schedule sched = merge_schedule(plan, solve_greedily(plan), f.groups, "test");
  const sim::Simulator sim(f.groups);
  EXPECT_GT(sim.time_collective(sched, ag), 0.0);
}

TEST(Merge, ReverseProducesReducePieces) {
  Fixture f;
  const auto combo = first_combo(f, sketch::RootedPattern::Broadcast);
  const auto twin = coll::make_allgather(16, 16 << 20);
  const auto rs = coll::make_reduce_scatter(16, 16 << 20);
  const DemandPlan plan = build_demand_plan(combo, twin, f.groups);
  const sim::Schedule fwd = merge_schedule(plan, solve_greedily(plan), f.groups, "test-ag");
  const sim::Schedule sched = reverse_schedule(fwd, true, 16, "test-rs");
  std::vector<int> all_ranks(16);
  for (int r = 0; r < 16; ++r) all_ranks[static_cast<std::size_t>(r)] = r;
  ASSERT_EQ(sched.pieces.size(), fwd.pieces.size());
  for (std::size_t i = 0; i < sched.pieces.size(); ++i) {
    const sim::Piece& p = sched.pieces[i];
    EXPECT_TRUE(p.reduce);
    EXPECT_EQ(p.chunk, fwd.pieces[i].origin);  // reversed flow converges at the forward origin
    EXPECT_EQ(p.bytes, fwd.pieces[i].bytes);
    EXPECT_EQ(p.origin, -1);
    EXPECT_EQ(p.contributors, all_ranks);
  }
  // Every op flipped, played backwards.
  ASSERT_EQ(sched.ops.size(), fwd.ops.size());
  for (std::size_t i = 0; i < sched.ops.size(); ++i) {
    const sim::TransferOp& f_op = fwd.ops[fwd.ops.size() - 1 - i];
    EXPECT_EQ(sched.ops[i].piece, f_op.piece);
    EXPECT_EQ(sched.ops[i].src, f_op.dst);
    EXPECT_EQ(sched.ops[i].dst, f_op.src);
  }
  EXPECT_TRUE(runtime::validate_schedule(sched, rs, f.groups).ok);
  const sim::Simulator sim(f.groups);
  EXPECT_GT(sim.time_collective(sched, rs), 0.0);
}

TEST(Merge, ReverseMovesGatherOriginsToScatterDestinations) {
  // Every rooted Scatter combination: the direct one moves each piece in
  // one hop, relayed ones in several, where the first and last forward
  // destinations differ.
  Fixture f;
  const auto twin = coll::make_scatter(16, 16 << 20, 0);
  const auto gather = coll::make_gather(16, 16 << 20, 0);
  const sim::Simulator sim(f.groups);
  int relayed = 0;
  for (const auto& combo : combos(f, sketch::RootedPattern::Scatter, /*all_roots=*/false)) {
    SCOPED_TRACE(combo.describe());
    const DemandPlan plan = build_demand_plan(combo, twin, f.groups);
    const sim::Schedule fwd =
        merge_schedule(plan, solve_greedily(plan), f.groups, "test-scatter");
    const sim::Schedule sched = reverse_schedule(fwd, false, 16, "test-gather");
    std::vector<int> last_dst(fwd.pieces.size(), -1);
    std::vector<int> hops(fwd.pieces.size(), 0);
    for (const sim::TransferOp& op : fwd.ops) {
      last_dst[static_cast<std::size_t>(op.piece)] = op.dst;
      ++hops[static_cast<std::size_t>(op.piece)];
    }
    ASSERT_EQ(sched.pieces.size(), fwd.pieces.size());
    for (std::size_t i = 0; i < sched.pieces.size(); ++i) {
      const sim::Piece& p = sched.pieces[i];
      ASSERT_GE(last_dst[i], 0) << "piece " << i << " never moves";
      if (hops[i] > 1) ++relayed;
      EXPECT_FALSE(p.reduce);
      EXPECT_EQ(p.chunk, fwd.pieces[i].chunk);
      EXPECT_EQ(p.origin, last_dst[i]) << "piece " << i;
    }
    const runtime::ValidationReport report = runtime::validate_schedule(sched, gather, f.groups);
    EXPECT_TRUE(report.ok) << (report.errors.empty() ? "" : report.errors.front());
    EXPECT_GT(sim.time_collective(sched, gather), 0.0);
  }
  EXPECT_GT(relayed, 0) << "no combination relays a piece";
}

TEST(Merge, ReorderLeavesUnpricedOpsAtStartZero) {
  // An op whose endpoints share no group of its dimension, or whose piece
  // or ranks are out of range, has no estimate: it starts at 0 and delivers
  // nothing, so a later op from its destination starts at 0 too.
  Fixture f;  // dimension 0 groups each server's 8 GPUs
  sim::Schedule s;
  s.add_piece(sim::Piece{0, 1 << 20, 0, false, {}});
  s.add_op(0, 0, 1, 0);                              // 0: priced, starts at 0
  s.add_op(0, 1, 2, 0);                              // 1: starts when op 0 delivers
  s.add_op(0, 1, 9, 0);                              // 2: ranks 1 and 9 are on two servers
  s.ops.push_back(sim::TransferOp{5, 0, 1, 0, 0});   // 3: unknown piece
  s.add_op(0, 9, 10, 0);                             // 4: rank 9 never received the piece
  s.ops.push_back(sim::TransferOp{0, 0, 99, 0, 0});  // 5: unknown rank
  const std::vector<sim::TransferOp> issued = s.ops;
  reorder_by_estimated_start(s, f.groups);
  ASSERT_EQ(s.ops.size(), issued.size());
  const std::size_t want[] = {0, 2, 3, 4, 5, 1};
  for (std::size_t k = 0; k < s.ops.size(); ++k) {
    const sim::TransferOp& got = s.ops[k];
    const sim::TransferOp& op = issued[want[k]];
    EXPECT_TRUE(got.piece == op.piece && got.src == op.src && got.dst == op.dst)
        << "position " << k;
  }
}

TEST(Merge, SizeMismatchThrows) {
  Fixture f;
  const auto combo = first_combo(f, sketch::RootedPattern::Broadcast);
  const auto ag = coll::make_allgather(16, 1 << 20);
  const DemandPlan plan = build_demand_plan(combo, ag, f.groups);
  std::vector<solver::SubSchedule> wrong(plan.demands.size() + 1);
  EXPECT_THROW(merge_schedule(plan, wrong, f.groups, "x"), std::invalid_argument);
}

}  // namespace
}  // namespace syccl::core
