// Tests for the topology-mutation API: link degradation, link/NIC failure,
// the links each mutation keeps, reachability checks, and how mutations flow
// through group extraction.
#include <gtest/gtest.h>

#include "topo/builders.h"
#include "topo/groups.h"
#include "topo/mutate.h"

namespace syccl::topo {
namespace {

TEST(Mutate, DegradeLinkScalesParamsAndKeepsIds) {
  const Topology base = build_single_server(4);
  const NodeId gpu0 = node_by_name(base, "gpu0");
  const NodeId sw = node_by_name(base, "nvswitch0");
  const LinkId old_id = base.find_link(gpu0, sw);
  ASSERT_NE(old_id, kInvalidLink);

  const Topology m = degrade_link(base, gpu0, sw, 2.0, 4.0);
  EXPECT_EQ(m.num_links(), base.num_links());
  EXPECT_EQ(m.num_nodes(), base.num_nodes());
  // Pure degradation keeps every link id; only the degraded link's α/β move.
  EXPECT_EQ(m.find_link(gpu0, sw), old_id);
  for (const Link& l : base.links()) {
    const Link& nl = m.link(l.id);
    EXPECT_EQ(nl.src, l.src);
    EXPECT_EQ(nl.dst, l.dst);
    const double alpha_scale = l.id == old_id ? 2.0 : 1.0;
    const double beta_scale = l.id == old_id ? 4.0 : 1.0;
    EXPECT_DOUBLE_EQ(nl.alpha, l.alpha * alpha_scale);
    EXPECT_DOUBLE_EQ(nl.beta, l.beta * beta_scale);
  }
}

TEST(Mutate, DegradeDuplexScalesBothDirections) {
  const Topology base = build_single_server(4);
  const NodeId gpu1 = node_by_name(base, "gpu1");
  const NodeId sw = node_by_name(base, "nvswitch0");
  const Topology m = degrade_duplex(base, gpu1, sw, 1.0, 3.0);
  ASSERT_EQ(m.num_links(), base.num_links());
  for (const Link& l : base.links()) {
    const bool touched = (l.src == gpu1 && l.dst == sw) || (l.src == sw && l.dst == gpu1);
    EXPECT_DOUBLE_EQ(m.link(l.id).alpha, l.alpha);
    EXPECT_DOUBLE_EQ(m.link(l.id).beta, l.beta * (touched ? 3.0 : 1.0));
  }
}

TEST(Mutate, DegradationChangesOnlyTouchedGroupSignatures) {
  MultiRailSpec spec;
  spec.num_servers = 2;
  spec.gpus_per_server = 2;
  const Topology base = build_multi_rail(spec);
  const Topology m =
      degrade_duplex(base, node_by_name(base, "gpu1.0"), node_by_name(base, "nvswitch1"),
                     1.0, 8.0);

  const TopologyGroups gb = extract_groups(base);
  const TopologyGroups gm = extract_groups(m);
  ASSERT_EQ(gb.dims.size(), gm.dims.size());
  int changed = 0, unchanged = 0;
  for (std::size_t d = 0; d < gb.dims.size(); ++d) {
    ASSERT_EQ(gb.dims[d].groups.size(), gm.dims[d].groups.size());
    for (std::size_t g = 0; g < gb.dims[d].groups.size(); ++g) {
      if (gb.dims[d].groups[g].signature() == gm.dims[d].groups[g].signature()) {
        ++unchanged;
      } else {
        ++changed;
      }
    }
  }
  // Exactly the degraded server's NVLink group changes; all other groups
  // (other server, both rails) keep their signatures — this is what lets
  // incremental re-synthesis reuse their cached sub-schedules.
  EXPECT_EQ(changed, 1);
  EXPECT_GE(unchanged, 3);
  // The modal-β bandwidth share is unaffected by the minority degradation.
  for (std::size_t d = 0; d < gb.dims.size(); ++d) {
    EXPECT_DOUBLE_EQ(gb.dims[d].bandwidth_share, gm.dims[d].bandwidth_share);
  }
}

TEST(Mutate, FailLinkRemovesDuplexPairAndRenumbers) {
  MultiRailSpec spec;
  spec.num_servers = 2;
  spec.gpus_per_server = 2;
  const Topology base = build_multi_rail(spec);
  // Fail one NIC->leaf pair; the GPU keeps NVLink + the other server's rail.
  const NodeId nic = node_by_name(base, "nic0.1");
  const NodeId leaf = node_by_name(base, "leaf1");
  const Topology m = fail_link(base, nic, leaf);
  EXPECT_EQ(m.num_links(), base.num_links() - 2);  // duplex pair
  EXPECT_EQ(m.num_nodes(), base.num_nodes());
  EXPECT_EQ(m.find_link(nic, leaf), kInvalidLink);
  EXPECT_EQ(m.find_link(leaf, nic), kInvalidLink);
  // Surviving links keep their endpoints and parameters, renumbered densely
  // in their original order.
  LinkId next = 0;
  for (const Link& l : base.links()) {
    if ((l.src == nic && l.dst == leaf) || (l.src == leaf && l.dst == nic)) continue;
    const LinkId nl = m.find_link(l.src, l.dst);
    EXPECT_EQ(nl, next++);
    EXPECT_DOUBLE_EQ(m.link(nl).alpha, l.alpha);
    EXPECT_DOUBLE_EQ(m.link(nl).beta, l.beta);
  }
  // The mutated topology still group-extracts.
  EXPECT_NO_THROW(extract_groups(m));
}

TEST(Mutate, FailNicDropsAllNicLinks) {
  const Topology base = build_a100_testbed(8);
  const NodeId nic = node_by_name(base, "nic0.0");
  const std::size_t nic_links =
      base.out_links(nic).size() + base.in_links(nic).size();
  ASSERT_GT(nic_links, 0u);
  const Topology m = fail_nic(base, nic);
  EXPECT_EQ(m.num_links(), base.num_links() - nic_links);
  EXPECT_TRUE(m.out_links(nic).empty());
  EXPECT_TRUE(m.in_links(nic).empty());
  for (const Link& l : base.links()) {
    if (l.src == nic || l.dst == nic) continue;
    const LinkId nl = m.find_link(l.src, l.dst);
    ASSERT_NE(nl, kInvalidLink);
    EXPECT_DOUBLE_EQ(m.link(nl).alpha, l.alpha);
    EXPECT_DOUBLE_EQ(m.link(nl).beta, l.beta);
  }
  EXPECT_NO_THROW(extract_groups(m));
}

TEST(Mutate, FailLinkThrowsWhenItDisconnects) {
  // Single server: removing a GPU's only uplink strands it.
  const Topology base = build_single_server(2);
  EXPECT_THROW(
      fail_link(base, node_by_name(base, "gpu0"), node_by_name(base, "nvswitch0")),
      std::runtime_error);
}

TEST(Mutate, ErrorPaths) {
  const Topology base = build_single_server(4);
  const NodeId gpu0 = node_by_name(base, "gpu0");
  const NodeId gpu1 = node_by_name(base, "gpu1");
  // No direct GPU-GPU link in the star topology.
  EXPECT_THROW(degrade_link(base, gpu0, gpu1, 2.0, 2.0), std::invalid_argument);
  EXPECT_THROW(degrade_link(base, gpu0, node_by_name(base, "nvswitch0"), 0.0, 2.0),
               std::invalid_argument);
  EXPECT_THROW(fail_link(base, gpu0, gpu1), std::invalid_argument);
  // fail_nic on a non-NIC node.
  EXPECT_THROW(fail_nic(base, gpu0), std::invalid_argument);
  EXPECT_THROW(node_by_name(base, "no-such-node"), std::invalid_argument);
}

}  // namespace
}  // namespace syccl::topo
