// Pins the merge layer (core/merge.cpp: counting-sort issue order,
// piece-by-piece start estimates) to the pre-rewrite std::map version kept
// in tests/merge_reference.h: merge_schedule and reorder_by_estimated_start
// must emit the same pieces and the same ops in the same order. The merged
// order is the issue order the simulator ranks and the runtime executes, so
// any difference is a behaviour change. MergeEquivalenceSweep.* repeats the
// candidate comparison at the 512-GPU point under `ctest -C fuzz`.
//
// Also pins the once-per-call rotation frame of replicate_for_all_roots to
// per-root rotate_sketch.
#include <gtest/gtest.h>

#include <algorithm>
#include <initializer_list>
#include <sstream>
#include <string>
#include <typeinfo>
#include <vector>

#include "coll/collective.h"
#include "core/merge.h"
#include "core/subdemand.h"
#include "core/synthesizer.h"
#include "merge_reference.h"
#include "obs/scenario.h"
#include "sketch/alltoall.h"
#include "sketch/replicate.h"
#include "sketch/search.h"
#include "solver/solve_cache.h"
#include "topo/builders.h"
#include "topo/groups.h"
#include "util/rng.h"

namespace syccl::core {
namespace {

/// "" if `f` returns, else the exception's dynamic type and message.
template <typename F>
std::string error_of(F&& f) {
  try {
    f();
    return "";
  } catch (const std::exception& e) {
    return std::string(typeid(e).name()) + ": " + e.what();
  }
}

std::string describe(const sim::Piece& p) {
  std::ostringstream os;
  os << p.chunk << "/" << p.bytes << "/" << p.origin << "/" << p.reduce << "/"
     << p.contributors.size();
  return os.str();
}

std::string describe(const sim::TransferOp& op) {
  std::ostringstream os;
  os << op.piece << ":" << op.src << "->" << op.dst << "@" << op.dim << "#" << op.phase;
  return os.str();
}

void expect_same_schedule(const sim::Schedule& got, const sim::Schedule& want,
                          const std::string& label) {
  EXPECT_EQ(got.name, want.name) << label;
  ASSERT_EQ(got.pieces.size(), want.pieces.size()) << label;
  for (std::size_t i = 0; i < got.pieces.size(); ++i) {
    const sim::Piece& a = got.pieces[i];
    const sim::Piece& b = want.pieces[i];
    ASSERT_TRUE(a.chunk == b.chunk && a.bytes == b.bytes && a.origin == b.origin &&
                a.reduce == b.reduce && a.contributors == b.contributors)
        << label << " piece " << i << ": " << describe(a) << " vs " << describe(b);
  }
  ASSERT_EQ(got.ops.size(), want.ops.size()) << label;
  for (std::size_t i = 0; i < got.ops.size(); ++i) {
    const sim::TransferOp& a = got.ops[i];
    const sim::TransferOp& b = want.ops[i];
    ASSERT_TRUE(a.piece == b.piece && a.src == b.src && a.dst == b.dst && a.dim == b.dim &&
                a.phase == b.phase)
        << label << " op " << i << ": " << describe(a) << " vs " << describe(b);
  }
}

/// Merges with both versions and compares.
void expect_same_merge(const DemandPlan& plan, const std::vector<solver::SubSchedule>& solved,
                       const topo::TopologyGroups& groups, const std::string& label) {
  sim::Schedule got, want;
  const std::string got_error = error_of([&] { got = merge_schedule(plan, solved, groups, "m"); });
  const std::string want_error =
      error_of([&] { want = reference::merge_schedule(plan, solved, groups, "m"); });
  ASSERT_EQ(got_error, want_error) << label;
  expect_same_schedule(got, want, label);
}

/// A random plan over `groups`: pieces with few distinct sizes and sub-ops
/// in few epochs and stages, so estimated starts and (stage, epoch) keys
/// tie often and the tie-breaks are exercised. Demands come in random stage
/// order. A `wide` plan also has negative stages, sparse start epochs from
/// -40 to 5,000 (which move the counting sort's offsets) and trailing pieces
/// that no op touches.
std::pair<DemandPlan, std::vector<solver::SubSchedule>> random_plan(
    const topo::TopologyGroups& groups, util::Rng& rng, bool wide = false) {
  const int num_ranks = static_cast<int>(groups.group_of.front().size());
  DemandPlan plan;
  const int num_pieces = 1 + static_cast<int>(rng.next_below(40));
  for (int i = 0; i < num_pieces; ++i) {
    sim::Piece p;
    p.chunk = i;
    p.bytes = static_cast<double>(1 << (10 + rng.next_below(3) * 5));
    p.origin = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(num_ranks)));
    plan.pieces.push_back(p);
  }
  std::vector<solver::SubSchedule> solved;
  const int num_demands = 1 + static_cast<int>(rng.next_below(12));
  for (int d = 0; d < num_demands; ++d) {
    MergedSubDemand md;
    md.stage = static_cast<int>(rng.next_below(3)) - (wide ? 2 : 0);
    md.dim = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(groups.num_dims())));
    const auto& dim_groups = groups.dims[static_cast<std::size_t>(md.dim)].groups;
    md.group = static_cast<int>(rng.next_below(dim_groups.size()));
    const topo::GroupTopology& gt = dim_groups[static_cast<std::size_t>(md.group)];
    md.demand.group = &gt;
    const int local_pieces = 1 + static_cast<int>(rng.next_below(6));
    for (int k = 0; k < local_pieces; ++k) {
      md.global_piece.push_back(
          static_cast<int>(rng.next_below(static_cast<std::uint64_t>(num_pieces))));
    }
    solver::SubSchedule ss;
    const int num_ops = static_cast<int>(rng.next_below(30));
    for (int o = 0; o < num_ops; ++o) {
      solver::SubOp op;
      op.piece = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(local_pieces)));
      op.src = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(gt.size())));
      op.dst = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(gt.size())));
      op.start_epoch = static_cast<int>(rng.next_below(6));
      if (wide) {
        static constexpr int kSparse[] = {-40, -7, 0, 13, 900, 5000};
        op.start_epoch = kSparse[rng.next_below(6)];
        if (rng.next_below(4) == 0) op.start_epoch = -40 + static_cast<int>(rng.next_below(5041));
      }
      ss.ops.push_back(op);
    }
    plan.demands.push_back(std::move(md));
    solved.push_back(std::move(ss));
  }
  if (wide) {
    const int untouched = 1 + static_cast<int>(rng.next_below(8));
    for (int i = 0; i < untouched; ++i) {
      sim::Piece p;
      p.chunk = num_pieces + i;
      p.bytes = 4096.0;
      p.origin = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(num_ranks)));
      plan.pieces.push_back(p);
    }
  }
  return {std::move(plan), std::move(solved)};
}

TEST(MergeEquivalence, GeneratedPlans) {
  for (const char* fabric : {"dgx16", "a100x16", "h800x4@failnic", "flat8@degraded"}) {
    const topo::Topology topo = obs::build_scenario_topology(fabric);
    const topo::TopologyGroups groups = topo::extract_groups(topo);
    util::Rng rng(0x5eed0 + std::string(fabric).size());
    for (const bool wide : {false, true}) {
      for (int seed = 0; seed < 150; ++seed) {
        const auto [plan, solved] = random_plan(groups, rng, wide);
        expect_same_merge(plan, solved, groups,
                          std::string(fabric) + (wide ? " wide" : "") + " seed " +
                              std::to_string(seed));
      }
    }
  }
}

TEST(MergeEquivalence, ErrorsMatch) {
  const topo::Topology topo = obs::build_scenario_topology("dgx16");
  const topo::TopologyGroups groups = topo::extract_groups(topo);
  util::Rng rng(7);
  auto [plan, solved] = random_plan(groups, rng);
  solved.front().ops.push_back(solver::SubOp{99, 0, 1, 0});  // unknown demand piece
  expect_same_merge(plan, solved, groups, "unknown piece");
  solved.pop_back();
  expect_same_merge(plan, solved, groups, "count mismatch");
}

TEST(MergeEquivalence, ReorderWithUnsetDimensions) {
  // dim = -1 ops are priced on the fastest common dimension; on a fabric
  // with a failed NIC some pairs share none and keep estimated start 0.
  // Reduce pieces seed every contributor; phases order first.
  for (const char* fabric : {"dgx16", "h800x2@failnic", "a100x16@failnic"}) {
    const topo::Topology topo = obs::build_scenario_topology(fabric);
    const topo::TopologyGroups groups = topo::extract_groups(topo);
    const int num_ranks = static_cast<int>(groups.group_of.front().size());
    util::Rng rng(0xd1a);
    int uncovered = 0;
    for (int seed = 0; seed < 100; ++seed) {
      sim::Schedule s;
      s.name = "r";
      const int num_pieces = 1 + static_cast<int>(rng.next_below(20));
      for (int i = 0; i < num_pieces; ++i) {
        sim::Piece p;
        p.chunk = i;
        p.bytes = static_cast<double>(1 << (12 + rng.next_below(2) * 8));
        if (rng.next_below(3) == 0) {
          p.reduce = true;
          for (int r = 0; r < num_ranks; ++r) {
            if (rng.next_below(2) == 0) p.contributors.push_back(r);
          }
        } else {
          p.origin = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(num_ranks)));
        }
        s.pieces.push_back(std::move(p));
      }
      const int num_ops = static_cast<int>(rng.next_below(200));
      for (int o = 0; o < num_ops; ++o) {
        const int src = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(num_ranks)));
        const int offset =
            1 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(num_ranks - 1)));
        const int dst = (src + offset) % num_ranks;
        int dim = -1;
        if (rng.next_below(4) == 0) dim = groups.best_common_dim(src, dst);
        if (groups.best_common_dim(src, dst) < 0) ++uncovered;
        s.add_op(static_cast<int>(rng.next_below(static_cast<std::uint64_t>(num_pieces))), src,
                 dst, dim, static_cast<int>(rng.next_below(2)));
      }
      sim::Schedule got = s;
      sim::Schedule want = s;
      reorder_by_estimated_start(got, groups);
      reference::reorder_by_estimated_start(want, groups);
      expect_same_schedule(got, want, std::string(fabric) + " seed " + std::to_string(seed));
    }
    if (std::string(fabric) != "dgx16") {
      EXPECT_GT(uncovered, 0) << fabric << ": no op without a common dimension";
    }
  }
}

/// Real plans: every distinct candidate combination of one paper shape,
/// each demand solved greedily at each of `options`. At the synthesizer's
/// coarse and fine options that covers every candidate the coarse pass
/// merges and every survivor the fine pass merges.
void expect_same_candidate_merges(const char* fabric, coll::CollKind kind,
                                  std::initializer_list<solver::SolveOptions> options) {
  const topo::Topology topo = obs::build_scenario_topology(fabric);
  const topo::TopologyGroups groups = topo::extract_groups(topo);
  const int n = static_cast<int>(groups.group_of.front().size());
  const bool all_roots = kind != coll::CollKind::Broadcast;
  const coll::Collective coll = kind == coll::CollKind::AllGather ? coll::make_allgather(n, 1 << 20)
                                : kind == coll::CollKind::AllToAll
                                    ? coll::make_alltoall(n, 1 << 20)
                                    : coll::make_broadcast(n, 1 << 20, 3);
  const auto pattern =
      kind == coll::CollKind::AllToAll ? sketch::RootedPattern::Scatter
                                       : sketch::RootedPattern::Broadcast;
  const sketch::AllToAllConfig config;
  const int root = all_roots ? 0 : 3;
  const auto sketches = sketch::search_sketches(groups, root, pattern, config.search);
  const auto combos = sketch::combine_prototypes(
      sketch::select_prototypes(sketches, groups, config.max_prototypes), sketches, groups,
      all_roots, config.combine);
  ASSERT_FALSE(combos.empty()) << fabric;
  solver::SubScheduleCache cache;
  for (std::size_t c = 0; c < combos.size(); ++c) {
    const auto seen = combos.begin() + static_cast<std::ptrdiff_t>(c);
    if (std::find(combos.begin(), seen, combos[c]) != seen) continue;  // evaluated once
    const DemandPlan plan = build_demand_plan(combos[c], coll, groups);
    for (const solver::SolveOptions& opts : options) {
      std::vector<solver::SubSchedule> solved;
      for (const auto& md : plan.demands) {
        solved.push_back(cache.get_or_solve(md.demand, md.demand.canonical(), opts));
      }
      expect_same_merge(plan, solved, groups,
                        std::string(fabric) + " candidate " + std::to_string(c) + " E " +
                            std::to_string(opts.E));
    }
  }
}

TEST(MergeEquivalence, SynthesisCandidates) {
  const SynthesisConfig config;
  expect_same_candidate_merges("dgx16", coll::CollKind::AllGather, {config.coarse_solver});
  expect_same_candidate_merges("a100x16", coll::CollKind::AllToAll, {config.coarse_solver});
  expect_same_candidate_merges("h800x4", coll::CollKind::Broadcast, {config.coarse_solver});
  expect_same_candidate_merges("flat8@degraded", coll::CollKind::AllGather,
                               {config.coarse_solver});
  expect_same_candidate_merges("h800x8", coll::CollKind::AllGather,
                               {config.coarse_solver, config.fine_solver});
}

// The 512-GPU AllGather point (h800x64, 1 MiB): every coarse candidate and
// every fine survivor, 261,632 to 523,264 ops each. Runs only under
// `ctest -C fuzz` (merge_equivalence_sweep).
TEST(MergeEquivalenceSweep, PaperScaleCandidates) {
  const SynthesisConfig config;
  expect_same_candidate_merges("h800x64", coll::CollKind::AllGather,
                               {config.coarse_solver, config.fine_solver});
}

// ------------------------------------------------------------ rotation frame

void expect_same_sketch(const sketch::Sketch& got, const sketch::Sketch& want,
                        const std::string& label) {
  EXPECT_EQ(got.root, want.root) << label;
  EXPECT_EQ(got.pattern, want.pattern) << label;
  EXPECT_EQ(got.parent, want.parent) << label;
  ASSERT_EQ(got.stages.size(), want.stages.size()) << label;
  for (std::size_t k = 0; k < got.stages.size(); ++k) {
    const auto& a = got.stages[k].demands;
    const auto& b = want.stages[k].demands;
    ASSERT_EQ(a.size(), b.size()) << label << " stage " << k;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_TRUE(a[i].dim == b[i].dim && a[i].group == b[i].group && a[i].srcs == b[i].srcs &&
                  a[i].dsts == b[i].dsts)
          << label << " stage " << k << " demand " << i;
    }
  }
}

TEST(RotationFrame, ReplicateForAllRootsMatchesPerRootRotation) {
  // replicate_for_all_roots builds the rotation frame once; every replica
  // must equal what a fresh per-root rotate_sketch gives.
  for (const char* fabric : {"h800x8", "a100x32"}) {
    const topo::Topology topo = obs::build_scenario_topology(fabric);
    const topo::TopologyGroups groups = topo::extract_groups(topo);
    const int n = static_cast<int>(groups.group_of.front().size());
    for (const auto pattern : {sketch::RootedPattern::Broadcast, sketch::RootedPattern::Scatter}) {
      const sketch::AllToAllConfig config;
      const auto prototypes = sketch::select_prototypes(
          sketch::search_sketches(groups, 0, pattern, config.search), groups,
          config.max_prototypes);
      ASSERT_FALSE(prototypes.empty()) << fabric;
      for (std::size_t pi = 0; pi < prototypes.size(); ++pi) {
        const std::string label = std::string(fabric) + " prototype " + std::to_string(pi);
        const sketch::SketchCombination proto =
            sketch::balance_across_groups(prototypes[pi], groups);
        const sketch::SketchCombination all = sketch::replicate_for_all_roots(proto, groups);
        const std::size_t per_root = proto.sketches.size();
        ASSERT_EQ(all.sketches.size(), per_root * static_cast<std::size_t>(n)) << label;
        std::size_t k = per_root;  // the prototype's own sketches come first
        for (int r = 1; r < n; ++r) {
          for (const auto& ws : proto.sketches) {
            const auto rotated = sketch::rotate_sketch(*ws.sketch, groups, r);
            ASSERT_TRUE(rotated.has_value()) << label << " root " << r;
            expect_same_sketch(*all.sketches[k].sketch, *rotated,
                               label + " root " + std::to_string(r));
            EXPECT_EQ(all.sketches[k].fraction, ws.fraction) << label;
            ++k;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace syccl::core
