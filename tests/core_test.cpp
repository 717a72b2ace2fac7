// Tests for demand-plan construction and sub-schedule merging.
#include <gtest/gtest.h>

#include <set>

#include "core/merge.h"

#include "sim/simulator.h"
#include "core/subdemand.h"
#include "sketch/alltoall.h"
#include "sketch/replicate.h"
#include "solver/milp_scheduler.h"
#include "topo/builders.h"

namespace syccl::core {
namespace {

struct Fixture {
  topo::Topology topo = topo::build_h800_cluster(2);
  topo::TopologyGroups groups = topo::extract_groups(topo);
};

sketch::SketchCombination first_combo(const Fixture& f, sketch::RootedPattern pattern) {
  const sketch::AllToAllConfig config;
  const auto sketches = sketch::search_sketches(f.groups, 0, pattern, config.search);
  return sketch::combine_prototypes(
             sketch::select_prototypes(sketches, f.groups, config.max_prototypes), sketches,
             f.groups, /*all_roots=*/true, config.combine)
      .front();
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
  std::vector<solver::SubSchedule> solved;
  for (const auto& md : plan.demands) {
    solver::MilpSchedulerOptions opts;
    opts.greedy_only = true;
    solved.push_back(solver::solve_sub_demand(md.demand, opts));
  }
  const sim::Schedule sched = merge_schedule(plan, solved, f.groups, false, false, "test");
  const sim::Simulator sim(f.groups);
  EXPECT_GT(sim.time_collective(sched, ag), 0.0);
}

TEST(Merge, ReverseProducesReducePieces) {
  Fixture f;
  const auto combo = first_combo(f, sketch::RootedPattern::Broadcast);
  const auto twin = coll::make_allgather(16, 16 << 20);
  const auto rs = coll::make_reduce_scatter(16, 16 << 20);
  const DemandPlan plan = build_demand_plan(combo, twin, f.groups);
  std::vector<solver::SubSchedule> solved;
  for (const auto& md : plan.demands) {
    solver::MilpSchedulerOptions opts;
    opts.greedy_only = true;
    solved.push_back(solver::solve_sub_demand(md.demand, opts));
  }
  const sim::Schedule sched = merge_schedule(plan, solved, f.groups, true, true, "test-rs");
  for (const auto& p : sched.pieces) {
    EXPECT_TRUE(p.reduce);
    EXPECT_EQ(p.contributors.size(), 16u);
  }
  const sim::Simulator sim(f.groups);
  EXPECT_GT(sim.time_collective(sched, rs), 0.0);
}

TEST(Merge, SizeMismatchThrows) {
  Fixture f;
  const auto combo = first_combo(f, sketch::RootedPattern::Broadcast);
  const auto ag = coll::make_allgather(16, 1 << 20);
  const DemandPlan plan = build_demand_plan(combo, ag, f.groups);
  std::vector<solver::SubSchedule> wrong(plan.demands.size() + 1);
  EXPECT_THROW(merge_schedule(plan, wrong, f.groups, false, false, "x"), std::invalid_argument);
}

TEST(Merge, ReversePiecesHelper) {
  std::vector<sim::Piece> fwd{{3, 100.0, 7, false, {}}};
  const auto rev = reverse_pieces(fwd, {0, 1, 2});
  ASSERT_EQ(rev.size(), 1u);
  EXPECT_TRUE(rev[0].reduce);
  EXPECT_EQ(rev[0].chunk, 7);  // reversed flow converges at the forward origin
  EXPECT_EQ(rev[0].contributors, (std::vector<int>{0, 1, 2}));
}

}  // namespace
}  // namespace syccl::core
