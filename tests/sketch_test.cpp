// Tests for the sketch IR, search, pruning, replication and combination.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>

#include "sketch/alltoall.h"
#include "sketch/combine.h"
#include "sketch/prune.h"
#include "sketch/replicate.h"
#include "sketch/search.h"
#include "topo/builders.h"
#include "topo/groups.h"

namespace syccl::sketch {
namespace {

struct Fig3Fixture {
  // Paper Fig. 3: 4 servers × 4 GPUs, 4 rails + spine.
  topo::Topology topo;
  topo::TopologyGroups groups;
  Fig3Fixture() : topo(topo::build_multi_rail({4, 4, topo::params::nvlink_h800(),
                                               topo::params::nic_400g(),
                                               topo::params::fabric_400g(), true})),
                  groups(topo::extract_groups(topo)) {}
};

/// Phase 1 exactly as the synthesizer runs it, at the default budgets.
std::vector<SketchCombination> phase1_combinations(const topo::TopologyGroups& groups, int root,
                                                   RootedPattern pattern, bool all_roots) {
  const AllToAllConfig config;
  const auto sketches = search_sketches(groups, root, pattern, config.search);
  return combine_prototypes(select_prototypes(sketches, groups, config.max_prototypes), sketches,
                            groups, all_roots, config.combine);
}

/// The paper's sketch ① (Fig. 5): stage 0 — D0.G0 {0}→{1,2,3} and D1.G0
/// {0}→{4,8,12}; stage 1 — D0.G1..3 fill the remaining GPUs.
Sketch paper_sketch_1() {
  Sketch s;
  s.root = 0;
  s.pattern = RootedPattern::Broadcast;
  Stage st0;
  st0.demands.push_back(SubDemandSpec{0, 0, {0}, {1, 2, 3}});
  st0.demands.push_back(SubDemandSpec{1, 0, {0}, {4, 8, 12}});
  Stage st1;
  st1.demands.push_back(SubDemandSpec{0, 1, {4}, {5, 6, 7}});
  st1.demands.push_back(SubDemandSpec{0, 2, {8}, {9, 10, 11}});
  st1.demands.push_back(SubDemandSpec{0, 3, {12}, {13, 14, 15}});
  s.stages = {st0, st1};
  s.parent.assign(16, -1);
  for (int v : {1, 2, 3}) s.parent[static_cast<std::size_t>(v)] = 0;
  for (int v : {4, 8, 12}) s.parent[static_cast<std::size_t>(v)] = 0;
  for (int v : {5, 6, 7}) s.parent[static_cast<std::size_t>(v)] = 4;
  for (int v : {9, 10, 11}) s.parent[static_cast<std::size_t>(v)] = 8;
  for (int v : {13, 14, 15}) s.parent[static_cast<std::size_t>(v)] = 12;
  return s;
}

TEST(Sketch, PaperSketch1Validates) {
  Fig3Fixture f;
  const Sketch s = paper_sketch_1();
  EXPECT_NO_THROW(s.validate(f.groups));
  const auto covered = s.covered_ranks();
  EXPECT_EQ(covered.size(), 16u);
}

TEST(Sketch, WorkloadMatchesPaperNumbers) {
  // Sketch ① has workload ratio 12:3 across dimensions 0 and 1 (§4.2).
  Fig3Fixture f;
  const Sketch s = paper_sketch_1();
  const auto w = s.dim_workload(f.groups);
  EXPECT_DOUBLE_EQ(w[0], 12.0);
  EXPECT_DOUBLE_EQ(w[1], 3.0);
  EXPECT_DOUBLE_EQ(w[2], 0.0);
}

TEST(Sketch, ValidateCatchesDoubleDestination) {
  Fig3Fixture f;
  Sketch s = paper_sketch_1();
  s.stages[1].demands[0].dsts.push_back(9);  // 9 already served by D0.G2
  EXPECT_THROW(s.validate(f.groups), std::invalid_argument);
}

TEST(Sketch, ValidateCatchesSourceWithoutChunk) {
  Fig3Fixture f;
  Sketch s = paper_sketch_1();
  s.stages[0].demands[0].srcs = {5};  // 5 has nothing at stage 0
  EXPECT_THROW(s.validate(f.groups), std::invalid_argument);
}

TEST(Sketch, ValidateCatchesScatterRelayParentOutsideItsSubDemand) {
  // Scatter routes 5's chunk along the edge parent[5] → 5, so the parent
  // must be a source of the sub-demand that delivers 5 (D0.G1 {4}→{5,6,7}).
  // Broadcast never routes along the relay tree and keeps accepting it.
  Fig3Fixture f;
  Sketch s = paper_sketch_1();
  s.pattern = RootedPattern::Scatter;
  EXPECT_NO_THROW(s.validate(f.groups));
  s.parent[5] = 0;
  EXPECT_THROW(s.validate(f.groups), std::invalid_argument);
  s.pattern = RootedPattern::Broadcast;
  EXPECT_NO_THROW(s.validate(f.groups));
}

TEST(Sketch, DescendantsCount) {
  const Sketch s = paper_sketch_1();
  EXPECT_EQ(s.descendants(4), 3);   // 5,6,7
  EXPECT_EQ(s.descendants(0), 15);  // everyone
  EXPECT_EQ(s.descendants(5), 0);
}

TEST(Sketch, CombinationEqualityComparesContent) {
  // Members share sketches by pointer, but equality stays exact: equal
  // sketches allocated apart compare equal, and any difference in a
  // fraction or a relay parent compares unequal.
  const auto single = [](const Sketch& s, double fraction) {
    SketchCombination c;
    c.sketches.push_back(WeightedSketch{std::make_shared<const Sketch>(s), fraction});
    return c;
  };
  const Sketch s = paper_sketch_1();
  const SketchCombination a = single(s, 0.5);
  const SketchCombination b = single(s, 0.5);
  ASSERT_NE(a.sketches.front().sketch, b.sketches.front().sketch);
  EXPECT_TRUE(a == b);
  const SketchCombination shared = a;
  EXPECT_EQ(shared.sketches.front().sketch, a.sketches.front().sketch);
  EXPECT_TRUE(shared == a);
  EXPECT_FALSE(a == single(s, 0.25));
  Sketch reparented = s;
  reparented.parent[5] = 6;
  EXPECT_FALSE(a == single(reparented, 0.5));
  SketchCombination longer = a;
  longer.sketches.push_back(b.sketches.front());
  EXPECT_FALSE(a == longer);
}

TEST(Search, FindsHierarchicalSketches) {
  Fig3Fixture f;
  const auto sketches = search_sketches(f.groups, 0, RootedPattern::Broadcast);
  ASSERT_FALSE(sketches.empty());
  for (const auto& s : sketches) {
    EXPECT_NO_THROW(s.validate(f.groups));
    EXPECT_EQ(s.covered_ranks().size(), 16u);
  }
  // The canonical two-stage hierarchical sketch (paper sketch ①) must be in
  // the result set: stage 0 uses dims 0+1 from the root, stage 1 fills dim 0.
  const Sketch paper = paper_sketch_1();
  const std::string key = paper.canonical_key(f.groups);
  bool found = false;
  for (const auto& s : sketches) {
    if (s.canonical_key(f.groups) == key) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(Search, IsomorphismPruningShrinksResults) {
  // Small enough that the search exhausts without hitting caps, so the
  // pruned run and dedup(raw run) must coincide exactly.
  const auto topo = topo::build_multi_rail({2, 2, topo::params::nvlink_h800(),
                                            topo::params::nic_400g(),
                                            topo::params::fabric_400g(), true});
  const auto groups = topo::extract_groups(topo);
  SearchConfig with, without;
  without.prune_isomorphic = false;
  without.max_sketches = 100000;
  without.node_budget = 10000000;
  with.max_sketches = 100000;
  with.node_budget = 10000000;
  const auto pruned = search_sketches(groups, 0, RootedPattern::Broadcast, with);
  const auto raw = search_sketches(groups, 0, RootedPattern::Broadcast, without);
  EXPECT_LE(pruned.size(), raw.size());
  const auto dedup = dedup_isomorphic(raw, groups);
  EXPECT_EQ(dedup.size(), pruned.size());
}

TEST(Search, ConsistencyPruningHolds) {
  Fig3Fixture f;
  SearchConfig cfg;
  cfg.prune_consistency = true;
  const auto sketches = search_sketches(f.groups, 0, RootedPattern::Broadcast, cfg);
  for (const auto& s : sketches) {
    for (std::size_t k = 0; k < s.stages.size(); ++k) {
      EXPECT_TRUE(stage_is_consistent(s.stages[k], f.groups, k + 1 == s.stages.size()))
          << s.describe();
    }
  }
}

TEST(Search, ScatterHopLimit) {
  Fig3Fixture f;
  SearchConfig cfg;  // default max_hops = |D|-1 = 2 for scatter
  const auto sketches = search_sketches(f.groups, 0, RootedPattern::Scatter, cfg);
  for (const auto& s : sketches) {
    EXPECT_LE(max_relay_hops(s), 2) << s.describe();
  }
}

TEST(Search, SingleServerTrivial) {
  const auto topo = topo::build_single_server(8);
  const auto groups = topo::extract_groups(topo);
  const auto sketches = search_sketches(groups, 3, RootedPattern::Broadcast);
  ASSERT_FALSE(sketches.empty());
  EXPECT_EQ(sketches.front().root, 3);
  EXPECT_EQ(sketches.front().covered_ranks().size(), 8u);
}

TEST(Replicate, SameRootReplicaIsValidAndDistinct) {
  Fig3Fixture f;
  const Sketch s = paper_sketch_1();
  WorkloadState acc(f.groups);
  acc.add_sketch(s, f.groups);
  const auto rep = replicate_sketch(s, f.groups, acc, 0);
  ASSERT_TRUE(rep.has_value());
  EXPECT_NO_THROW(rep->validate(f.groups));
  EXPECT_EQ(rep->root, 0);
  // Canonical keys match (isomorphic), workload distribution may shift.
  EXPECT_EQ(rep->canonical_key(f.groups), s.canonical_key(f.groups));
}

TEST(Replicate, NewRootReplicaMapsRoot) {
  Fig3Fixture f;
  const Sketch s = paper_sketch_1();
  const auto rep = replicate_sketch(s, f.groups, WorkloadState(f.groups), 5);
  ASSERT_TRUE(rep.has_value());
  EXPECT_EQ(rep->root, 5);
  EXPECT_NO_THROW(rep->validate(f.groups));
  EXPECT_EQ(rep->covered_ranks().size(), 16u);
}

TEST(Replicate, BalanceAcrossGroupsEvensRailLoad) {
  // 7-server topology of Fig. 19: a single sketch leaves rail groups idle;
  // replication must spread load (Fig. 10).
  const auto topo = topo::build_multi_rail({7, 4, topo::params::nvlink_h800(),
                                            topo::params::nic_400g(),
                                            topo::params::fabric_400g(), true});
  const auto groups = topo::extract_groups(topo);
  const auto sketches = search_sketches(groups, 0, RootedPattern::Broadcast);
  ASSERT_FALSE(sketches.empty());
  // Pick a sketch that uses dimension 1 at stage >= 1 (steerable).
  for (const auto& s : sketches) {
    const SketchCombination combo = balance_across_groups(s, groups);
    EXPECT_GE(combo.sketches.size(), 1u);
    EXPECT_NEAR(combo.total_fraction(), 1.0, 1e-9);
    // Workload imbalance must not increase vs. the single sketch.
    auto imb = [&](const WorkloadMatrix& w) {
      double total = 0;
      for (const auto& dim : w) {
        double lo = 1e300, hi = 0, sum = 0;
        for (double g : dim) {
          lo = std::min(lo, g);
          hi = std::max(hi, g);
          sum += g;
        }
        if (sum > 0) total += hi - lo;
      }
      return total;
    };
    WorkloadMatrix single = s.workload(groups);
    WorkloadMatrix merged = zero_workload(groups);
    for (const auto& ws : combo.sketches) add_workload(merged, ws.sketch->workload(groups));
    // Normalise per sketch count for a fair comparison.
    for (auto& dim : merged) {
      for (auto& g : dim) g /= static_cast<double>(combo.sketches.size());
    }
    EXPECT_LE(imb(merged), imb(single) + 1e-9) << s.describe();
  }
}

TEST(Replicate, AllRootsCoversEveryRoot) {
  Fig3Fixture f;
  const auto sketches = search_sketches(f.groups, 0, RootedPattern::Broadcast);
  const SketchCombination proto = balance_across_groups(sketches.front(), f.groups);
  const SketchCombination all = replicate_for_all_roots(proto, f.groups);
  std::set<int> roots;
  for (const auto& ws : all.sketches) roots.insert(ws.sketch->root);
  EXPECT_EQ(roots.size(), 16u);
  // Per-root fractions each sum to 1.
  for (int r = 0; r < 16; ++r) {
    double frac = 0;
    for (const auto& ws : all.sketches) {
      if (ws.sketch->root == r) frac += ws.fraction;
    }
    EXPECT_NEAR(frac, 1.0, 1e-9);
  }
}

TEST(Combine, AllocationMatchesBandwidthShares) {
  Fig3Fixture f;
  const auto combos = phase1_combinations(f.groups, 0, RootedPattern::Broadcast, false);
  ASSERT_FALSE(combos.empty());
  for (const auto& c : combos) {
    EXPECT_NEAR(c.total_fraction(), 1.0, 1e-6) << c.describe();
  }
}

TEST(Combine, PaperExampleTwoSketchAllocation) {
  // §4.2 step 2 example shape: two combos with workload ratios 21:6 and
  // 3:24 across dims 0/1 and link capacity 4:5 → both transmit half.
  Fig3Fixture f;
  // Build two synthetic single-sketch combinations with forced workloads by
  // exercising allocate_across_dims' math directly through real sketches is
  // impractical; instead verify the invariant on generated combinations: the
  // weighted dim shares approach the bandwidth shares.
  const auto combos = phase1_combinations(f.groups, 0, RootedPattern::Broadcast, false);
  bool found_integrated = false;
  for (const auto& c : combos) {
    if (c.sketches.size() < 2) continue;
    const auto w = c.dim_workload(f.groups);
    double total = 0;
    for (double x : w) total += x;
    if (total <= 0) continue;
    // Restrict to used dims as the allocator does.
    double used_share = 0;
    for (std::size_t d = 0; d < w.size(); ++d) {
      if (w[d] > 1e-12) used_share += f.groups.dims[d].bandwidth_share;
    }
    bool close = true;
    for (std::size_t d = 0; d < w.size(); ++d) {
      if (w[d] <= 1e-12) continue;
      const double target = f.groups.dims[d].bandwidth_share / used_share;
      if (std::fabs(w[d] / total - target) > 0.05 + 1e-9) close = false;
    }
    if (close) found_integrated = true;
  }
  EXPECT_TRUE(found_integrated);
}

TEST(Combine, MembersShareTheirFamilysSketches) {
  // Combinations copy pointers, not sketches: every member of every output,
  // integrated subsets included, is a sketch one input family owns.
  Fig3Fixture f;
  const AllToAllConfig config;
  const auto sketches = search_sketches(f.groups, 0, RootedPattern::Broadcast, config.search);
  std::vector<SketchCombination> families;
  std::set<const Sketch*> owned;
  for (const auto& proto : select_prototypes(sketches, f.groups, config.max_prototypes)) {
    families.push_back(replicate_for_all_roots(balance_across_groups(proto, f.groups), f.groups));
    for (const auto& ws : families.back().sketches) owned.insert(ws.sketch.get());
  }
  ASSERT_GE(families.size(), 2u);
  const auto combos = generate_combinations(families, f.groups, config.combine);
  ASSERT_GT(combos.size(), families.size());
  std::size_t members = 0;
  for (const auto& c : combos) {
    for (const auto& ws : c.sketches) {
      EXPECT_EQ(owned.count(ws.sketch.get()), 1u) << c.describe();
      ++members;
    }
  }
  EXPECT_GT(members, owned.size());
}

TEST(AllToAll, GeneratesValidCombinations) {
  const auto topo = topo::build_multi_rail({2, 4, topo::params::nvlink_h800(),
                                            topo::params::nic_400g(),
                                            topo::params::fabric_400g(), true});
  const auto groups = topo::extract_groups(topo);
  const auto combos = phase1_combinations(groups, 0, RootedPattern::Broadcast, true);
  ASSERT_FALSE(combos.empty());
  for (const auto& c : combos) {
    std::set<int> roots;
    for (const auto& ws : c.sketches) {
      EXPECT_NO_THROW(ws.sketch->validate(groups));
      roots.insert(ws.sketch->root);
    }
    EXPECT_EQ(roots.size(), 8u) << c.describe();
  }
}

}  // namespace
}  // namespace syccl::sketch
