// Additional sketch-engine tests: rotation automorphisms, the kUnits
// structural fill, workload-state accounting, and seed coverage.
#include <gtest/gtest.h>

#include <set>

#include "sketch/replicate.h"
#include "sketch/search.h"
#include "topo/builders.h"
#include "topo/groups.h"

namespace syccl::sketch {
namespace {

struct MultiRail {
  topo::Topology topo = topo::build_h800_cluster(2);
  topo::TopologyGroups groups = topo::extract_groups(topo);
};

struct Clos32 {
  topo::Topology topo = topo::build_a100_testbed(32);
  topo::TopologyGroups groups = topo::extract_groups(topo);
};

Sketch simple_hier_sketch(const topo::TopologyGroups& groups, int root) {
  // stage 0: fill the root's server; stage 1: one crossing per other server;
  // stage 2: fill the reached servers.
  const auto& servers = groups.dims[0].groups;
  const int home = groups.group_of[0][static_cast<std::size_t>(root)];
  Sketch s;
  s.root = root;
  s.pattern = RootedPattern::Broadcast;
  s.parent.assign(groups.group_of[0].size(), -1);

  Stage st0;
  SubDemandSpec fill0{0, home, {root}, {}};
  for (int g : servers[static_cast<std::size_t>(home)].ranks) {
    if (g != root) {
      fill0.dsts.push_back(g);
      s.parent[static_cast<std::size_t>(g)] = root;
    }
  }
  st0.demands.push_back(fill0);
  s.stages.push_back(st0);

  // Crossing via the rail of `root` (dim 1): root's rail peers.
  const int rail = groups.group_of[1][static_cast<std::size_t>(root)];
  Stage st1;
  SubDemandSpec cross{1, rail, {root}, {}};
  for (int g : groups.dims[1].groups[static_cast<std::size_t>(rail)].ranks) {
    if (g != root) {
      cross.dsts.push_back(g);
      s.parent[static_cast<std::size_t>(g)] = root;
    }
  }
  st1.demands.push_back(cross);
  s.stages.push_back(st1);

  Stage st2;
  for (std::size_t si = 0; si < servers.size(); ++si) {
    if (static_cast<int>(si) == home) continue;
    // Entry GPU: the rail peer in that server.
    int entry = -1;
    for (int g : servers[si].ranks) {
      if (groups.group_of[1][static_cast<std::size_t>(g)] == rail) entry = g;
    }
    SubDemandSpec fill{0, static_cast<int>(si), {entry}, {}};
    for (int g : servers[si].ranks) {
      if (g != entry) {
        fill.dsts.push_back(g);
        s.parent[static_cast<std::size_t>(g)] = entry;
      }
    }
    st2.demands.push_back(fill);
  }
  s.stages.push_back(st2);
  s.validate(groups);
  return s;
}

TEST(Rotate, MultiRailRotationIsExactAutomorphism) {
  MultiRail f;
  const Sketch s = simple_hier_sketch(f.groups, 0);
  for (int root : {1, 7, 8, 15}) {
    const auto r = rotate_sketch(s, f.groups, root);
    ASSERT_TRUE(r.has_value()) << "root " << root;
    EXPECT_EQ(r->root, root);
    EXPECT_NO_THROW(r->validate(f.groups));
    EXPECT_EQ(r->covered_ranks().size(), 16u);
    // Rotation preserves structure exactly.
    EXPECT_EQ(r->canonical_key(f.groups), s.canonical_key(f.groups));
  }
}

TEST(Rotate, IdentityRotationIsIdentity) {
  MultiRail f;
  const Sketch s = simple_hier_sketch(f.groups, 0);
  const auto r = rotate_sketch(s, f.groups, 0);
  ASSERT_TRUE(r.has_value());
  ASSERT_EQ(r->stages.size(), s.stages.size());
  for (std::size_t k = 0; k < s.stages.size(); ++k) {
    ASSERT_EQ(r->stages[k].demands.size(), s.stages[k].demands.size());
    for (std::size_t d = 0; d < s.stages[k].demands.size(); ++d) {
      EXPECT_EQ(r->stages[k].demands[d].srcs, s.stages[k].demands[d].srcs);
      EXPECT_EQ(r->stages[k].demands[d].dsts, s.stages[k].demands[d].dsts);
    }
  }
}

TEST(Rotate, ClosRotationKeepsPodStructure) {
  // Rotating across the 32-GPU Clos must keep every sub-demand inside one
  // group of its dimension (hierarchical digit rotation, not plain shifts).
  Clos32 f;
  const auto sketches = search_sketches(f.groups, 0, RootedPattern::Broadcast);
  ASSERT_FALSE(sketches.empty());
  int rotated = 0;
  for (const auto& s : sketches) {
    for (int root : {1, 9, 17, 31}) {
      const auto r = rotate_sketch(s, f.groups, root);
      if (!r.has_value()) continue;
      EXPECT_NO_THROW(r->validate(f.groups));
      ++rotated;
    }
    if (rotated > 8) break;
  }
  EXPECT_GT(rotated, 0);
}

TEST(WorkloadState, TracksPerDimensionReceptions) {
  MultiRail f;
  WorkloadState state(f.groups);
  const Sketch s = simple_hier_sketch(f.groups, 0);
  state.add_sketch(s, f.groups);
  // Stage 0 + stage 2 fills: 7 + 7 NVLink receptions land in dim 0;
  // the crossing lands in dim 1.
  double dim0 = 0, dim1 = 0;
  for (double v : state.ranks[0]) dim0 += v;
  for (double v : state.ranks[1]) dim1 += v;
  EXPECT_DOUBLE_EQ(dim0, 14.0);
  EXPECT_DOUBLE_EQ(dim1, 1.0);
}

TEST(Search, KUnitsSketchesExistOnClos) {
  // The minimal-crossing hierarchical sketch (one NIC crossing into the
  // sibling server, one spine crossing into the other pod) must be in the
  // result set — it is the backbone of the paper's winning schedules.
  Clos32 f;
  const auto sketches = search_sketches(f.groups, 0, RootedPattern::Broadcast);
  bool found_minimal = false;
  for (const auto& s : sketches) {
    const auto w = s.dim_workload(f.groups);
    if (w[1] <= 2.0 && w[2] <= 2.0 && w[1] + w[2] >= 2.0) found_minimal = true;
  }
  EXPECT_TRUE(found_minimal);
}

TEST(Search, SeedsCoverDimensionPermutations) {
  // Both rail-first and server-first two-stage hierarchies must appear.
  MultiRail f;
  const auto sketches = search_sketches(f.groups, 0, RootedPattern::Broadcast);
  bool server_first = false, rail_first = false;
  for (const auto& s : sketches) {
    if (s.stages.empty() || s.stages[0].demands.empty()) continue;
    const int first_dim = s.stages[0].demands[0].dim;
    if (s.num_stages() >= 2) {
      if (first_dim == 0) server_first = true;
      if (first_dim == 1) rail_first = true;
    }
  }
  EXPECT_TRUE(server_first);
  EXPECT_TRUE(rail_first);
}

TEST(Replicate, SteeringSpreadsCrossingsAcrossNics) {
  // After replicating the hierarchical sketch to all 16 roots, every GPU
  // must receive a similar number of rail (dim-1) crossings — no NIC funnel.
  MultiRail f;
  const Sketch proto = simple_hier_sketch(f.groups, 0);
  SketchCombination combo;
  combo.sketches.push_back(WeightedSketch{std::make_shared<const Sketch>(proto), 1.0});
  const auto all = replicate_for_all_roots(combo, f.groups);
  std::vector<int> rail_recv(16, 0);
  for (const auto& ws : all.sketches) {
    for (const auto& st : ws.sketch->stages) {
      for (const auto& r : st.demands) {
        if (r.dim == 1) {
          for (int d : r.dsts) rail_recv[static_cast<std::size_t>(d)]++;
        }
      }
    }
  }
  const auto [lo, hi] = std::minmax_element(rail_recv.begin(), rail_recv.end());
  EXPECT_LE(*hi - *lo, 1);
}

}  // namespace
}  // namespace syccl::sketch
