#include "topo/builders.h"

#include <stdexcept>
#include <string>

namespace syccl::topo {

namespace {

std::string idx_name(const std::string& prefix, int a, int b = -1) {
  std::string s = prefix;
  s += std::to_string(a);
  if (b >= 0) {
    s += '.';
    s += std::to_string(b);
  }
  return s;
}

}  // namespace

Topology build_single_server(int num_gpus, LinkParams nvlink) {
  if (num_gpus < 2) throw std::invalid_argument("single server needs >= 2 GPUs");
  Topology t;
  std::vector<NodeId> gpus;
  gpus.reserve(static_cast<std::size_t>(num_gpus));
  for (int g = 0; g < num_gpus; ++g) {
    gpus.push_back(t.add_node(NodeKind::Gpu, 0, g, idx_name("gpu", g)));
  }
  const NodeId nvsw = t.add_node(NodeKind::Switch, -1, 0, "nvswitch0");
  for (NodeId g : gpus) {
    // α split evenly across the two hops so GPU→GPU latency equals 2·α/2.
    t.add_duplex_link(g, nvsw, nvlink.alpha_s / 2, nvlink.beta(), "nvlink");
  }
  return t;
}

Topology build_multi_rail(const MultiRailSpec& spec) {
  if (spec.num_servers < 1 || spec.gpus_per_server < 1) {
    throw std::invalid_argument("multi-rail spec needs positive sizes");
  }
  Topology t;
  std::vector<std::vector<NodeId>> gpus(static_cast<std::size_t>(spec.num_servers));
  std::vector<std::vector<NodeId>> nics(static_cast<std::size_t>(spec.num_servers));

  for (int s = 0; s < spec.num_servers; ++s) {
    for (int g = 0; g < spec.gpus_per_server; ++g) {
      gpus[static_cast<std::size_t>(s)].push_back(
          t.add_node(NodeKind::Gpu, s, g, idx_name("gpu", s, g)));
    }
  }
  // Intra-server NVSwitch per server.
  for (int s = 0; s < spec.num_servers; ++s) {
    const NodeId nvsw = t.add_node(NodeKind::Switch, s, 0, idx_name("nvswitch", s));
    for (NodeId g : gpus[static_cast<std::size_t>(s)]) {
      t.add_duplex_link(g, nvsw, spec.nvlink.alpha_s / 2, spec.nvlink.beta(), "nvlink");
    }
  }
  // One NIC per GPU; NIC i of every server connects to rail leaf i.
  std::vector<NodeId> leaves;
  for (int r = 0; r < spec.gpus_per_server; ++r) {
    leaves.push_back(t.add_node(NodeKind::Switch, -1, 1, idx_name("leaf", r)));
  }
  for (int s = 0; s < spec.num_servers; ++s) {
    for (int g = 0; g < spec.gpus_per_server; ++g) {
      const NodeId nic = t.add_node(NodeKind::Nic, s, g, idx_name("nic", s, g));
      nics[static_cast<std::size_t>(s)].push_back(nic);
      // GPU→NIC over PCIe/NVLink bridge: fast, tiny α; the NIC→leaf hop is
      // the 400G bottleneck that carries the NIC's α.
      t.add_duplex_link(gpus[static_cast<std::size_t>(s)][static_cast<std::size_t>(g)], nic,
                        0.2e-6, spec.nic.beta() / 4, "pcie");
      t.add_duplex_link(nic, leaves[static_cast<std::size_t>(g)], spec.nic.alpha_s,
                        spec.nic.beta(), "net");
    }
  }
  if (spec.with_spine && spec.gpus_per_server > 1) {
    // The spine tier aggregates a rail's uplinks. Production multi-rail
    // fabrics oversubscribe leaf→spine (paper Fig. 13(b): 8×400G down vs
    // 4×400G up per leaf); we model the tier as one fat link per leaf with
    // the aggregate capacity of the leaf's uplinks.
    const NodeId spine = t.add_node(NodeKind::Switch, -1, 2, "spine0");
    const double up_ratio = 0.5;  // 2:1 oversubscription
    const double agg_beta = spec.nic.beta() / std::max(1.0, spec.num_servers * up_ratio);
    for (NodeId leaf : leaves) {
      t.add_duplex_link(leaf, spine, spec.fabric.alpha_s, agg_beta, "fabric");
    }
  }
  return t;
}

Topology build_clos(const ClosSpec& spec) {
  if (spec.num_servers < 1 || spec.gpus_per_server < 1 || spec.nics_per_server < 1) {
    throw std::invalid_argument("clos spec needs positive sizes");
  }
  if (spec.gpus_per_server % spec.nics_per_server != 0) {
    throw std::invalid_argument("gpus_per_server must be a multiple of nics_per_server");
  }
  Topology t;
  std::vector<std::vector<NodeId>> gpus(static_cast<std::size_t>(spec.num_servers));
  for (int s = 0; s < spec.num_servers; ++s) {
    for (int g = 0; g < spec.gpus_per_server; ++g) {
      gpus[static_cast<std::size_t>(s)].push_back(
          t.add_node(NodeKind::Gpu, s, g, idx_name("gpu", s, g)));
    }
  }
  for (int s = 0; s < spec.num_servers; ++s) {
    const NodeId nvsw = t.add_node(NodeKind::Switch, s, 0, idx_name("nvswitch", s));
    for (NodeId g : gpus[static_cast<std::size_t>(s)]) {
      t.add_duplex_link(g, nvsw, spec.nvlink.alpha_s / 2, spec.nvlink.beta(), "nvlink");
    }
  }
  const int num_leaves = (spec.num_servers + spec.servers_per_leaf - 1) / spec.servers_per_leaf;
  std::vector<NodeId> leaves;
  for (int l = 0; l < num_leaves; ++l) {
    leaves.push_back(t.add_node(NodeKind::Switch, -1, 1, idx_name("leaf", l)));
  }
  const int gpus_per_nic = spec.gpus_per_server / spec.nics_per_server;
  for (int s = 0; s < spec.num_servers; ++s) {
    const NodeId leaf = leaves[static_cast<std::size_t>(s / spec.servers_per_leaf)];
    for (int n = 0; n < spec.nics_per_server; ++n) {
      const NodeId nic = t.add_node(NodeKind::Nic, s, n, idx_name("nic", s, n));
      for (int k = 0; k < gpus_per_nic; ++k) {
        const int g = n * gpus_per_nic + k;
        t.add_duplex_link(gpus[static_cast<std::size_t>(s)][static_cast<std::size_t>(g)], nic,
                          0.2e-6, spec.nic.beta() / 4, "pcie");
      }
      t.add_duplex_link(nic, leaf, spec.nic.alpha_s, spec.nic.beta(), "net");
    }
  }
  if (num_leaves > 1) {
    const int num_spines =
        (num_leaves + spec.leaves_per_spine - 1) / spec.leaves_per_spine;
    std::vector<NodeId> spines;
    for (int sp = 0; sp < num_spines; ++sp) {
      spines.push_back(t.add_node(NodeKind::Switch, -1, 2, idx_name("spine", sp)));
    }
    // Non-oversubscribed Clos (paper Fig. 13(a): 8 spine switches): each
    // leaf's uplink carries its full downstream NIC capacity, modelled as
    // one fat link per leaf.
    const double leaf_up_beta =
        spec.nic.beta() / (spec.nics_per_server * spec.servers_per_leaf);
    for (int l = 0; l < num_leaves; ++l) {
      t.add_duplex_link(leaves[static_cast<std::size_t>(l)],
                        spines[static_cast<std::size_t>(l / spec.leaves_per_spine)],
                        spec.fabric.alpha_s, leaf_up_beta, "fabric");
    }
    if (num_spines > 1) {
      const NodeId core = t.add_node(NodeKind::Switch, -1, 3, "core0");
      const double spine_up_beta = leaf_up_beta / spec.leaves_per_spine;
      for (NodeId sp : spines) {
        t.add_duplex_link(sp, core, spec.fabric.alpha_s, spine_up_beta, "fabric");
      }
    }
  }
  return t;
}

Topology build_a100_testbed(int num_gpus) {
  if (num_gpus % 8 != 0) throw std::invalid_argument("A100 testbed scales in 8-GPU servers");
  ClosSpec spec;
  spec.num_servers = num_gpus / 8;
  spec.gpus_per_server = 8;
  spec.nics_per_server = 4;
  spec.servers_per_leaf = 2;
  spec.leaves_per_spine = 4;  // single spine tier over all ToRs
  spec.nvlink = params::nvlink_a100();
  spec.nic = params::nic_200g();
  spec.fabric = params::fabric_200g();
  return build_clos(spec);
}

Topology build_h800_cluster(int num_servers) {
  MultiRailSpec spec;
  spec.num_servers = num_servers;
  spec.gpus_per_server = 8;
  spec.nvlink = params::nvlink_h800();
  spec.nic = params::nic_400g();
  spec.fabric = params::fabric_400g();
  spec.with_spine = true;
  return build_multi_rail(spec);
}

Topology build_fig19_topology() {
  MultiRailSpec spec;
  spec.num_servers = 7;
  spec.gpus_per_server = 4;
  spec.nvlink = params::nvlink_h800();
  spec.nic = params::nic_400g();
  spec.fabric = params::fabric_400g();
  spec.with_spine = true;
  return build_multi_rail(spec);
}

Topology build_fig20_topology() {
  ClosSpec spec;
  spec.num_servers = 8;
  spec.gpus_per_server = 4;
  spec.nics_per_server = 4;
  spec.servers_per_leaf = 2;
  spec.leaves_per_spine = 2;
  spec.nvlink = params::nvlink_a100();
  spec.nic = params::nic_200g();
  spec.fabric = params::fabric_200g();
  return build_clos(spec);
}

Topology build_flat_switch(int num_gpus, LinkParams link) {
  return build_single_server(num_gpus, link);
}

Topology build_microbench_cluster() {
  MultiRailSpec spec;
  spec.num_servers = 6;
  spec.gpus_per_server = 4;
  spec.nvlink = params::nvlink_h800();
  spec.nic = params::nic_400g();
  spec.fabric = params::fabric_400g();
  spec.with_spine = true;
  return build_multi_rail(spec);
}

}  // namespace syccl::topo
