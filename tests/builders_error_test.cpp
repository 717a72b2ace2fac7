// Error paths of the topology builders (src/topo/builders.cpp) and
// extract_groups/signature behaviour on hand-built heterogeneous
// topologies — fabrics whose link parameters differ per position, the shape
// every degradation/failure scenario produces.
#include <gtest/gtest.h>

#include <stdexcept>

#include "topo/builders.h"
#include "topo/groups.h"
#include "topo/topology.h"

namespace syccl::topo {
namespace {

TEST(BuilderErrors, SingleServerRejectsTooFewGpus) {
  EXPECT_THROW(build_single_server(1), std::invalid_argument);
  EXPECT_THROW(build_single_server(0), std::invalid_argument);
  EXPECT_THROW(build_single_server(-4), std::invalid_argument);
  EXPECT_NO_THROW(build_single_server(2));
}

TEST(BuilderErrors, MultiRailRejectsNonPositiveSizes) {
  MultiRailSpec spec;
  spec.num_servers = 0;
  EXPECT_THROW(build_multi_rail(spec), std::invalid_argument);
  spec.num_servers = 2;
  spec.gpus_per_server = 0;
  EXPECT_THROW(build_multi_rail(spec), std::invalid_argument);
  spec.gpus_per_server = -2;
  EXPECT_THROW(build_multi_rail(spec), std::invalid_argument);
}

TEST(BuilderErrors, ClosRejectsNonPositiveSizes) {
  ClosSpec spec;
  spec.num_servers = 0;
  EXPECT_THROW(build_clos(spec), std::invalid_argument);
  spec.num_servers = 4;
  spec.nics_per_server = 0;
  EXPECT_THROW(build_clos(spec), std::invalid_argument);
}

TEST(BuilderErrors, ClosRejectsIndivisibleNicSharing) {
  ClosSpec spec;
  spec.gpus_per_server = 6;
  spec.nics_per_server = 4;  // 6 GPUs cannot share 4 NICs evenly
  EXPECT_THROW(build_clos(spec), std::invalid_argument);
  spec.nics_per_server = 3;
  EXPECT_NO_THROW(build_clos(spec));
}

TEST(BuilderErrors, A100TestbedScalesInWholeServers) {
  EXPECT_THROW(build_a100_testbed(12), std::invalid_argument);
  EXPECT_THROW(build_a100_testbed(7), std::invalid_argument);
  EXPECT_NO_THROW(build_a100_testbed(16));
}

/// A star of `n` GPUs where GPU i's duplex uplink uses per-position β:
/// up[i] = up_beta[i], down[i] = down_beta[i].
Topology hand_built_star(const std::vector<double>& up_beta,
                         const std::vector<double>& down_beta) {
  Topology t;
  const NodeId sw = t.add_node(NodeKind::Switch, -1, 0, "sw");
  for (std::size_t i = 0; i < up_beta.size(); ++i) {
    const NodeId g =
        t.add_node(NodeKind::Gpu, 0, static_cast<int>(i), "gpu" + std::to_string(i));
    t.add_link(g, sw, 0.5e-6, up_beta[i], "nvlink");
    t.add_link(sw, g, 0.5e-6, down_beta[i], "nvlink");
  }
  return t;
}

constexpr double kBeta = 1.0 / 100e9;

TEST(HeterogeneousGroups, DegradedStarSplitsFromHealthySignature) {
  const TopologyGroups healthy =
      extract_groups(hand_built_star({kBeta, kBeta, kBeta, kBeta}, {kBeta, kBeta, kBeta, kBeta}));
  const TopologyGroups degraded = extract_groups(
      hand_built_star({kBeta, 8 * kBeta, kBeta, kBeta}, {kBeta, kBeta, kBeta, kBeta}));
  ASSERT_EQ(healthy.dims.size(), 1u);
  ASSERT_EQ(degraded.dims.size(), 1u);
  EXPECT_NE(healthy.dims[0].groups[0].signature(), degraded.dims[0].groups[0].signature());
}

TEST(HeterogeneousGroups, DegradedPositionSplitsTheSignature) {
  // Degradation at member 0 vs member 2: the stars are isomorphic only under
  // a member reordering. Signatures list members in local order, so they
  // are two classes.
  const TopologyGroups a = extract_groups(
      hand_built_star({8 * kBeta, kBeta, kBeta}, {kBeta, kBeta, kBeta}));
  const TopologyGroups b = extract_groups(
      hand_built_star({kBeta, kBeta, 8 * kBeta}, {kBeta, kBeta, kBeta}));
  EXPECT_NE(a.dims[0].groups[0].signature(), b.dims[0].groups[0].signature());
}

TEST(HeterogeneousGroups, UpDownPairingDistinguishesEqualMultisets) {
  // Both stars carry the same multiset of port parameters {β, β, 8β, 8β} over
  // up+down, but group A pairs slow-up with fast-down on one member while
  // group B concentrates both slow directions on one member. No positional
  // isomorphism exists, so the signatures must differ — the historical
  // multiset encoding collapsed exactly this pair.
  const TopologyGroups a = extract_groups(
      hand_built_star({8 * kBeta, kBeta}, {kBeta, 8 * kBeta}));
  const TopologyGroups b = extract_groups(
      hand_built_star({8 * kBeta, kBeta}, {8 * kBeta, kBeta}));
  EXPECT_NE(a.dims[0].groups[0].signature(), b.dims[0].groups[0].signature());
}

TEST(HeterogeneousGroups, HeterogeneousMultiRailKeepsAllRanksCovered) {
  // Degrading a rail uplink must not change group membership, only the
  // degraded group's signature.
  MultiRailSpec spec;
  spec.num_servers = 2;
  spec.gpus_per_server = 2;
  Topology t = build_multi_rail(spec);
  const TopologyGroups groups = extract_groups(t);
  for (const auto& per_rank : groups.group_of) {
    int covered = 0;
    for (int g : per_rank) covered += g >= 0 ? 1 : 0;
    EXPECT_EQ(covered, static_cast<int>(t.num_gpus()));
  }
}

}  // namespace
}  // namespace syccl::topo
