// End-to-end tests for the SyCCL synthesizer across collectives, sizes and
// topologies. These assert feasibility (validated by the simulator's demand
// checks), sane busbw, and the paper's qualitative properties.
#include <gtest/gtest.h>

#include "coll/busbw.h"
#include "core/synthesizer.h"
#include "obs/scenario.h"
#include "runtime/validate.h"
#include "sim/simulator.h"
#include "topo/builders.h"

namespace syccl::core {
namespace {

SynthesisConfig fast_config() {
  SynthesisConfig cfg;
  cfg.sketch.search.max_sketches = 32;
  cfg.sketch.max_prototypes = 4;
  cfg.sketch.combine.max_outputs = 10;
  cfg.coarse_solver.time_limit_s = 0.1;
  cfg.fine_solver.time_limit_s = 0.2;
  return cfg;
}

TEST(Synthesizer, BroadcastSingleServer) {
  const auto topo = topo::build_single_server(8);
  Synthesizer synth(topo, fast_config());
  const auto coll = coll::make_broadcast(8, 1 << 20);
  const auto r = synth.synthesize(coll);
  EXPECT_GT(r.predicted_time, 0.0);
  EXPECT_FALSE(r.schedule.ops.empty());
  // Sanity: within 10x of the single-link lower bound α+βs.
  EXPECT_LT(r.predicted_time, 10 * (0.35e-6 + (1 << 20) / 200e9 * 8));
}

TEST(Synthesizer, AllGatherTwoServers) {
  const auto topo = topo::build_h800_cluster(2);
  Synthesizer synth(topo, fast_config());
  const auto coll = coll::make_allgather(16, 16 << 20);
  const auto r = synth.synthesize(coll);
  EXPECT_GT(coll::busbw_GBps(coll, r.predicted_time), 20.0);
  EXPECT_GT(r.breakdown.num_combinations, 1);
  // Classes needed = actual solves + process-wide cache hits (the cache may
  // be warm when the whole binary runs in one process).
  const int classes = r.breakdown.num_solver_calls + r.breakdown.cache_hits;
  EXPECT_GT(classes, 0);
  // Isomorphism dedup must kick in: fewer solver calls than sub-demands.
  EXPECT_LT(classes, r.breakdown.num_subdemands);
}

TEST(Synthesizer, ReduceScatterMatchesAllGatherShape) {
  // RS is the reversed AG; completion times should be comparable.
  const auto topo = topo::build_h800_cluster(2);
  Synthesizer synth(topo, fast_config());
  const auto ag = synth.synthesize(coll::make_allgather(16, 4 << 20));
  const auto rs = synth.synthesize(coll::make_reduce_scatter(16, 4 << 20));
  EXPECT_GT(rs.predicted_time, 0.0);
  EXPECT_LT(rs.predicted_time, 3.0 * ag.predicted_time);
  EXPECT_GT(rs.predicted_time, ag.predicted_time / 3.0);
  // Reduce schedules carry reduce pieces.
  bool any_reduce = false;
  for (const auto& p : rs.schedule.pieces) any_reduce |= p.reduce;
  EXPECT_TRUE(any_reduce);
}

TEST(Synthesizer, AllToAllTwoServers) {
  const auto topo = topo::build_h800_cluster(2);
  Synthesizer synth(topo, fast_config());
  const auto coll = coll::make_alltoall(16, 16 << 20);
  const auto r = synth.synthesize(coll);
  EXPECT_GT(coll::busbw_GBps(coll, r.predicted_time), 5.0);
}

TEST(Synthesizer, AllReduceConcatenatesPhases) {
  const auto topo = topo::build_h800_cluster(2);
  Synthesizer synth(topo, fast_config());
  const auto coll = coll::make_allreduce(16, 4 << 20);
  const auto r = synth.synthesize(coll);
  EXPECT_GT(r.predicted_time, 0.0);
  // Two phases present.
  int max_phase = 0;
  for (const auto& op : r.schedule.ops) max_phase = std::max(max_phase, op.phase);
  EXPECT_GE(max_phase, 1);
  EXPECT_NE(r.chosen.find("++"), std::string::npos);
}

TEST(Synthesizer, RootedReduceAndGather) {
  const auto topo = topo::build_h800_cluster(2);
  Synthesizer synth(topo, fast_config());
  EXPECT_GT(synth.synthesize(coll::make_reduce(16, 1 << 20, 3)).predicted_time, 0.0);
  EXPECT_GT(synth.synthesize(coll::make_gather(16, 1 << 20, 5)).predicted_time, 0.0);
  EXPECT_GT(synth.synthesize(coll::make_scatter(16, 1 << 20, 2)).predicted_time, 0.0);
}

TEST(Synthesizer, ReduceWhenRankCountDoesNotDivideTheSize) {
  // micro has 24 ranks, so a 1 MiB Reduce has a fractional chunk. The
  // forward Broadcast twin must carry that exact chunk: a truncated one
  // leaves every reversed candidate short of the root's demand.
  const topo::Topology topo = obs::build_scenario_topology("micro");
  const auto groups = topo::extract_groups(topo);
  const auto coll = coll::make_reduce(24, 1 << 20, 0);
  ASSERT_NE(coll.chunk_bytes(), static_cast<double>((1 << 20) / 24));
  Synthesizer synth(topo);
  const auto r = synth.synthesize(coll);
  const runtime::ValidationReport report = runtime::validate_schedule(r.schedule, coll, groups);
  EXPECT_TRUE(report.ok) << (report.errors.empty() ? "" : report.errors.front());
  const sim::Simulator simulator(groups);
  EXPECT_NEAR(simulator.time_collective(r.schedule, coll), r.predicted_time,
              1e-9 * r.predicted_time);
}

TEST(Synthesizer, SendRecv) {
  const auto topo = topo::build_h800_cluster(2);
  Synthesizer synth(topo, fast_config());
  const auto r = synth.synthesize(coll::make_sendrecv(16, 0, 9, 1 << 20));
  ASSERT_EQ(r.schedule.ops.size(), 1u);
  EXPECT_GT(r.predicted_time, 0.0);
}

TEST(Synthesizer, SmallSizesBeatLargeScheduleLatency) {
  // At 1 KB the chosen schedule must be latency-bound (microseconds), far
  // from the bandwidth-regime choice.
  const auto topo = topo::build_h800_cluster(2);
  Synthesizer synth(topo, fast_config());
  const auto small = synth.synthesize(coll::make_allgather(16, 1024));
  EXPECT_LT(small.predicted_time, 100e-6);
}

TEST(Synthesizer, A100TopologyWorks) {
  const auto topo = topo::build_a100_testbed(16);
  Synthesizer synth(topo, fast_config());
  const auto coll = coll::make_allgather(16, 64 << 20);
  const auto r = synth.synthesize(coll);
  // Paper reports ~100+ GB/s busbw at large sizes on this testbed.
  EXPECT_GT(coll::busbw_GBps(coll, r.predicted_time), 30.0);
}

TEST(Synthesizer, TwoStepOffStillWorks) {
  const auto topo = topo::build_h800_cluster(2);
  SynthesisConfig cfg = fast_config();
  cfg.two_step = false;
  Synthesizer synth(topo, cfg);
  const auto r = synth.synthesize(coll::make_allgather(16, 1 << 20));
  EXPECT_GT(r.predicted_time, 0.0);
  // No fine pass: the "solve2" bucket only holds the final re-simulation.
  EXPECT_LT(r.breakdown.solve2_s, 0.5);
}

TEST(Synthesizer, PruningOffProducesComparableSchedules) {
  // §7.4 Fig 17(a): pruning saves time with minimal performance impact.
  const auto topo = topo::build_h800_cluster(2);
  SynthesisConfig on = fast_config();
  SynthesisConfig off = fast_config();
  off.sketch.search.prune_isomorphic = false;
  off.sketch.search.prune_consistency = false;
  Synthesizer s_on(topo, on);
  Synthesizer s_off(topo, off);
  const auto coll = coll::make_allgather(16, 1 << 20);
  const auto r_on = s_on.synthesize(coll);
  const auto r_off = s_off.synthesize(coll);
  EXPECT_LT(r_on.predicted_time, r_off.predicted_time * 1.5);
}

}  // namespace
}  // namespace syccl::core
