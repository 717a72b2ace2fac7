// Property-based sweeps over the end-to-end pipeline: for a grid of
// (topology, collective, size) configurations, every synthesized schedule
// must satisfy the structural validator, the data-plane executor, and basic
// timing sanity (monotonicity in size, lower bounds from link physics).
#include <gtest/gtest.h>

#include <tuple>

#include "coll/busbw.h"
#include "core/synthesizer.h"
#include "runtime/executor.h"
#include "runtime/validate.h"
#include "topo/builders.h"

namespace syccl {
namespace {

enum class Topo { SingleServer8, H800x2, A100x16, Microbench };

topo::Topology make_topo(Topo t) {
  switch (t) {
    case Topo::SingleServer8: return topo::build_single_server(8);
    case Topo::H800x2: return topo::build_h800_cluster(2);
    case Topo::A100x16: return topo::build_a100_testbed(16);
    case Topo::Microbench: return topo::build_microbench_cluster();
  }
  throw std::logic_error("unknown topo");
}

int ranks_of(Topo t) {
  switch (t) {
    case Topo::SingleServer8: return 8;
    case Topo::H800x2: return 16;
    case Topo::A100x16: return 16;
    case Topo::Microbench: return 24;
  }
  return 0;
}

coll::Collective make_coll(coll::CollKind kind, int n, std::uint64_t size) {
  switch (kind) {
    case coll::CollKind::AllGather: return coll::make_allgather(n, size);
    case coll::CollKind::ReduceScatter: return coll::make_reduce_scatter(n, size);
    case coll::CollKind::AllToAll: return coll::make_alltoall(n, size);
    case coll::CollKind::Broadcast: return coll::make_broadcast(n, size, n / 2);
    default: throw std::logic_error("unsupported in sweep");
  }
}

core::SynthesisConfig sweep_config() {
  core::SynthesisConfig cfg;
  cfg.sketch.max_prototypes = 3;
  cfg.sketch.combine.max_outputs = 6;
  return cfg;
}

using Param = std::tuple<Topo, coll::CollKind, std::uint64_t>;

class SynthesisSweep : public ::testing::TestWithParam<Param> {};

TEST_P(SynthesisSweep, ScheduleIsValidAndMovesCorrectData) {
  const auto [topo_kind, coll_kind, size] = GetParam();
  const topo::Topology topo = make_topo(topo_kind);
  const topo::TopologyGroups groups = topo::extract_groups(topo);
  const coll::Collective coll = make_coll(coll_kind, ranks_of(topo_kind), size);

  core::Synthesizer synth(topo, sweep_config());
  const auto result = synth.synthesize(coll);

  // Timing sanity: above the single-hop physical floor.
  EXPECT_GT(result.predicted_time, 0.0);

  // Structural validation.
  const auto report = runtime::validate_schedule(result.schedule, coll, groups);
  EXPECT_TRUE(report.ok) << (report.errors.empty() ? "" : report.errors.front());

  // Data-plane execution.
  const auto exec = runtime::execute_and_verify(result.schedule, coll);
  EXPECT_TRUE(exec.ok) << (exec.errors.empty() ? "" : exec.errors.front());
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SynthesisSweep,
    ::testing::Combine(::testing::Values(Topo::SingleServer8, Topo::H800x2, Topo::A100x16,
                                         Topo::Microbench),
                       ::testing::Values(coll::CollKind::AllGather,
                                         coll::CollKind::ReduceScatter,
                                         coll::CollKind::AllToAll, coll::CollKind::Broadcast),
                       ::testing::Values(std::uint64_t{64} << 10, std::uint64_t{16} << 20)));

class MonotonicSweep : public ::testing::TestWithParam<Topo> {};

TEST_P(MonotonicSweep, CompletionTimeGrowsWithSize) {
  const topo::Topology topo = make_topo(GetParam());
  core::Synthesizer synth(topo, sweep_config());
  const int n = ranks_of(GetParam());
  double prev = 0.0;
  for (const std::uint64_t size : {std::uint64_t{64} << 10, std::uint64_t{4} << 20,
                                   std::uint64_t{256} << 20}) {
    const double t = synth.synthesize(coll::make_allgather(n, size)).predicted_time;
    EXPECT_GT(t, prev * 0.99);  // allow tiny noise; sizes differ by 64x
    prev = t;
  }
}

INSTANTIATE_TEST_SUITE_P(Topologies, MonotonicSweep,
                         ::testing::Values(Topo::SingleServer8, Topo::H800x2,
                                           Topo::Microbench));

class BusbwBound : public ::testing::TestWithParam<Topo> {};

TEST_P(BusbwBound, NeverExceedsAggregateIngress) {
  // busbw of an AllGather cannot exceed the per-GPU aggregate ingress
  // bandwidth (NVLink + NIC) — a physical upper bound the simulator must
  // respect for any schedule the synthesizer emits.
  const topo::Topology topo = make_topo(GetParam());
  const topo::TopologyGroups groups = topo::extract_groups(topo);
  core::Synthesizer synth(topo, sweep_config());
  const int n = ranks_of(GetParam());
  const coll::Collective ag = coll::make_allgather(n, 256 << 20);
  const auto r = synth.synthesize(ag);

  double ingress = 0.0;  // bytes/s into one GPU across dimensions
  for (const auto& dim : groups.dims) {
    if (dim.capacity_dim != dim.groups.front().dim) continue;  // shared ports
    ingress += 1.0 / dim.groups.front().down.front().beta;
  }
  EXPECT_LT(coll::busbw(ag, r.predicted_time), ingress * 1.05);
}

INSTANTIATE_TEST_SUITE_P(Topologies, BusbwBound,
                         ::testing::Values(Topo::SingleServer8, Topo::H800x2,
                                           Topo::A100x16));

}  // namespace
}  // namespace syccl
