// Tests for the topology graph, builders and dimension/group extraction.
#include <gtest/gtest.h>

#include <set>

#include "topo/builders.h"
#include "topo/groups.h"
#include "topo/topology.h"

namespace syccl::topo {
namespace {

TEST(Topology, AddNodesAndLinks) {
  Topology t;
  const NodeId a = t.add_node(NodeKind::Gpu, 0, 0, "gpu0");
  const NodeId b = t.add_node(NodeKind::Gpu, 0, 1, "gpu1");
  const NodeId sw = t.add_node(NodeKind::Switch, -1, 0, "sw");
  t.add_duplex_link(a, sw, 1e-6, 1e-9, "nvlink");
  t.add_duplex_link(b, sw, 1e-6, 1e-9, "nvlink");
  EXPECT_EQ(t.num_nodes(), 3u);
  EXPECT_EQ(t.num_links(), 4u);
  EXPECT_EQ(t.num_gpus(), 2u);
  EXPECT_EQ(t.gpu_rank(a), 0);
  EXPECT_EQ(t.gpu_rank(b), 1);
  EXPECT_FALSE(t.gpu_rank(sw).has_value());
  EXPECT_NE(t.find_link(a, sw), kInvalidLink);
  EXPECT_EQ(t.find_link(a, b), kInvalidLink);
}

TEST(Topology, RejectsBadLinks) {
  Topology t;
  const NodeId a = t.add_node(NodeKind::Gpu, 0, 0, "gpu0");
  const NodeId b = t.add_node(NodeKind::Gpu, 0, 1, "gpu1");
  EXPECT_THROW(t.add_link(a, a, 0, 1e-9, "x"), std::invalid_argument);
  EXPECT_THROW(t.add_link(a, b, 0, 0.0, "x"), std::invalid_argument);
  EXPECT_THROW(t.add_link(a, b, -1.0, 1e-9, "x"), std::invalid_argument);
  EXPECT_THROW(t.add_link(a, 99, 0, 1e-9, "x"), std::out_of_range);
}

TEST(Builders, SingleServer) {
  const Topology t = build_single_server(8);
  EXPECT_EQ(t.num_gpus(), 8u);
  const TopologyGroups g = extract_groups(t);
  ASSERT_EQ(g.num_dims(), 1);
  ASSERT_EQ(g.dims[0].groups.size(), 1u);
  EXPECT_EQ(g.dims[0].groups[0].size(), 8);
  EXPECT_DOUBLE_EQ(g.dims[0].bandwidth_share, 1.0);
}

TEST(Builders, A100Testbed16HasTwoDims) {
  const Topology t = build_a100_testbed(16);
  EXPECT_EQ(t.num_gpus(), 16u);
  const TopologyGroups g = extract_groups(t);
  // NVSwitch tier + single ToR tier (no spine with one leaf).
  ASSERT_EQ(g.num_dims(), 2);
  EXPECT_EQ(g.dims[0].groups.size(), 2u);  // two servers
  EXPECT_EQ(g.dims[0].groups[0].size(), 8);
  EXPECT_EQ(g.dims[1].groups.size(), 1u);  // one ToR spanning all
  EXPECT_EQ(g.dims[1].groups[0].size(), 16);
}

TEST(Builders, A100Testbed32HasThreeDims) {
  const Topology t = build_a100_testbed(32);
  const TopologyGroups g = extract_groups(t);
  ASSERT_EQ(g.num_dims(), 3);
  EXPECT_EQ(g.dims[0].groups.size(), 4u);  // servers
  EXPECT_EQ(g.dims[1].groups.size(), 2u);  // ToRs of 2 servers each
  EXPECT_EQ(g.dims[1].groups[0].size(), 16);
  EXPECT_EQ(g.dims[2].groups.size(), 1u);  // spine over everything
  EXPECT_EQ(g.dims[2].groups[0].size(), 32);
}

TEST(Builders, MultiRailMatchesPaperFig3Structure) {
  // Paper Fig. 3: 16 GPUs over 4 servers of 4 GPUs, 4 rails + spine.
  MultiRailSpec spec;
  spec.num_servers = 4;
  spec.gpus_per_server = 4;
  const Topology t = build_multi_rail(spec);
  const TopologyGroups g = extract_groups(t);
  ASSERT_EQ(g.num_dims(), 3);
  EXPECT_EQ(g.dims[0].groups.size(), 4u);  // servers
  EXPECT_EQ(g.dims[1].groups.size(), 4u);  // rails
  EXPECT_EQ(g.dims[2].groups.size(), 1u);  // spine
  // Dim 1 group 0 must be {0, 4, 8, 12} (same intra-server index).
  EXPECT_EQ(g.dims[1].groups[0].ranks, (std::vector<int>{0, 4, 8, 12}));
  // Every GPU is in exactly one group per dimension.
  for (int d = 0; d < g.num_dims(); ++d) {
    for (int r = 0; r < 16; ++r) EXPECT_GE(g.group_of[d][r], 0);
  }
}

TEST(Builders, H800ClusterShape) {
  const Topology t = build_h800_cluster(8);  // scaled: 8 servers x 8 GPUs
  EXPECT_EQ(t.num_gpus(), 64u);
  const TopologyGroups g = extract_groups(t);
  ASSERT_EQ(g.num_dims(), 3);
  EXPECT_EQ(g.dims[0].groups.size(), 8u);
  EXPECT_EQ(g.dims[1].groups.size(), 8u);
  EXPECT_EQ(g.dims[1].groups[0].size(), 8);
}

TEST(Builders, Fig19SevenServerMultiRail) {
  const auto topo = build_fig19_topology();
  EXPECT_EQ(topo.num_gpus(), 28u);
  const auto g = extract_groups(topo);
  ASSERT_EQ(g.num_dims(), 3);
  EXPECT_EQ(g.dims[0].groups.size(), 7u);  // servers
  EXPECT_EQ(g.dims[1].groups.size(), 4u);  // rails
  // Paper Fig. 19: dim-1 group 0 is {0, 4, 8, …, 24}.
  EXPECT_EQ(g.dims[1].groups[0].ranks,
            (std::vector<int>{0, 4, 8, 12, 16, 20, 24}));
}

TEST(Builders, Fig20ClosWithCore) {
  const auto topo = build_fig20_topology();
  EXPECT_EQ(topo.num_gpus(), 32u);
  const auto g = extract_groups(topo);
  // Paper Fig. 20: four dimensions — servers, leaves, spines, core.
  ASSERT_EQ(g.num_dims(), 4);
  EXPECT_EQ(g.dims[0].groups.size(), 8u);
  EXPECT_EQ(g.dims[1].groups.size(), 4u);
  EXPECT_EQ(g.dims[2].groups.size(), 2u);
  EXPECT_EQ(g.dims[3].groups.size(), 1u);
  EXPECT_EQ(g.dims[1].groups[0].size(), 8);
  EXPECT_EQ(g.dims[2].groups[0].size(), 16);
}

TEST(Builders, FlatSwitchIsOneDimension) {
  const auto topo = build_flat_switch(72);
  const auto g = extract_groups(topo);
  ASSERT_EQ(g.num_dims(), 1);
  EXPECT_EQ(g.dims[0].groups[0].size(), 72);
}

TEST(Groups, BestCommonDim) {
  const Topology t = build_h800_cluster(2);
  const TopologyGroups g = extract_groups(t);
  // Same server -> dim 0; same rail -> dim 1; otherwise the spine dim.
  EXPECT_EQ(g.best_common_dim(0, 1), 0);
  EXPECT_EQ(g.best_common_dim(0, 8), 1);   // rank 8 = server 1 gpu 0, same rail
  EXPECT_EQ(g.best_common_dim(0, 9), 2);   // cross rail, cross server
}

TEST(Groups, NvlinkPortParameters) {
  const Topology t = build_single_server(4, params::nvlink_a100());
  const TopologyGroups g = extract_groups(t);
  const GroupTopology& gt = g.dims[0].groups[0];
  // GPU->GPU through the NVSwitch: α = 2 × α/2; β = nvlink β.
  EXPECT_NEAR(gt.pair_alpha(0, 1), params::nvlink_a100().alpha_s, 1e-12);
  EXPECT_NEAR(gt.pair_beta(0, 1), params::nvlink_a100().beta(), 1e-15);
  // Up ports are per-GPU (no sharing).
  std::set<int> ports;
  for (const auto& p : gt.up) ports.insert(p.port_id);
  EXPECT_EQ(ports.size(), 4u);
}

TEST(Groups, A100NicSharingShowsInPorts) {
  // 8 GPUs share 4 NICs: pairs of GPUs share one up-port in the network dim.
  const Topology t = build_a100_testbed(16);
  const TopologyGroups g = extract_groups(t);
  const GroupTopology& net = g.dims[1].groups[0];
  std::set<int> ports;
  for (const auto& p : net.up) ports.insert(p.port_id);
  EXPECT_EQ(net.size(), 16);
  EXPECT_EQ(ports.size(), 8u);  // 4 NICs per server × 2 servers
}

TEST(Isomorphism, ServerGroupsAreIsomorphic) {
  const Topology t = build_h800_cluster(4);
  const TopologyGroups g = extract_groups(t);
  const auto& servers = g.dims[0].groups;
  ASSERT_GE(servers.size(), 2u);
  for (const auto& server : servers) EXPECT_EQ(server.signature(), servers[0].signature());
}

TEST(Isomorphism, DifferentSizesNotIsomorphic) {
  const Topology a = build_single_server(4);
  const Topology b = build_single_server(8);
  const auto ga = extract_groups(a).dims[0].groups[0];
  const auto gb = extract_groups(b).dims[0].groups[0];
  EXPECT_NE(ga.signature(), gb.signature());
}

TEST(Groups, BandwidthSharesSumToOne) {
  for (int servers : {2, 4}) {
    const Topology t = build_h800_cluster(servers);
    const TopologyGroups g = extract_groups(t);
    double sum = 0;
    for (const auto& d : g.dims) sum += d.bandwidth_share;
    EXPECT_NEAR(sum, 1.0, 1e-9);
    // NVLink carries more aggregate bandwidth than the rails.
    EXPECT_GT(g.dims[0].bandwidth_share, g.dims[1].bandwidth_share);
  }
}

}  // namespace
}  // namespace syccl::topo
