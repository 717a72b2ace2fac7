// Building a custom topology by hand: an asymmetric two-tier cluster that
// none of the stock builders produce, scheduled end-to-end.
//
// Demonstrates: Topology construction, automatic dimension/group extraction,
// rooted-collective synthesis, schedule validation and the XML artifact
// path.
#include <cstdio>

#include "core/synthesizer.h"
#include "runtime/validate.h"
#include "runtime/xml.h"
#include "topo/topology.h"

int main() {
  using namespace syccl;

  // Three 4-GPU servers; GPUs reach a shared leaf switch through one
  // 200 Gbps NIC per pair of GPUs (an A100-style PCIe layout).
  topo::Topology t;
  std::vector<topo::NodeId> gpus;
  const double nv_beta = 1.0 / 200e9;
  const double nic_beta = 1.0 / 25e9;
  const topo::NodeId leaf = t.add_node(topo::NodeKind::Switch, -1, 1, "leaf0");
  for (int s = 0; s < 3; ++s) {
    const topo::NodeId nvsw =
        t.add_node(topo::NodeKind::Switch, s, 0, "nvswitch" + std::to_string(s));
    for (int g = 0; g < 4; ++g) {
      const topo::NodeId gpu = t.add_node(topo::NodeKind::Gpu, s, g,
                                          "gpu" + std::to_string(s) + "." + std::to_string(g));
      gpus.push_back(gpu);
      t.add_duplex_link(gpu, nvsw, 0.2e-6, nv_beta, "nvlink");
    }
    for (int n = 0; n < 2; ++n) {
      const topo::NodeId nic =
          t.add_node(topo::NodeKind::Nic, s, n, "nic" + std::to_string(s) + std::to_string(n));
      for (int k = 0; k < 2; ++k) {
        t.add_duplex_link(gpus[static_cast<std::size_t>(s * 4 + n * 2 + k)], nic, 0.2e-6,
                          nic_beta / 4, "pcie");
      }
      t.add_duplex_link(nic, leaf, 2.5e-6, nic_beta, "net");
    }
  }
  std::printf("%s\n", t.summary().c_str());

  // Dimension/group extraction discovers the structure automatically.
  const topo::TopologyGroups groups = topo::extract_groups(t);
  for (int d = 0; d < groups.num_dims(); ++d) {
    std::printf("dimension %d: %zu groups of size %d\n", d, groups.dims[d].groups.size(),
                groups.dims[d].groups[0].size());
  }

  // Synthesize a Broadcast from GPU 5 and validate the result.
  core::Synthesizer synth(t);
  const coll::Collective bc = coll::make_broadcast(12, 32 << 20, 5);
  const auto result = synth.synthesize(bc);
  const auto report = runtime::validate_schedule(result.schedule, bc, groups);
  std::printf("broadcast from rank 5: %.3f ms, %zu ops, validation %s\n",
              result.predicted_time * 1e3, result.schedule.ops.size(),
              report.ok ? "OK" : "FAILED");

  // Round-trip through the XML executor format.
  const auto parsed = runtime::from_xml(runtime::to_xml(result.schedule, 12));
  std::printf("XML round trip: %zu ops preserved\n", parsed.ops.size());
  return 0;
}
