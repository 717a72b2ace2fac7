// End-to-end tests for the SyCCL synthesizer across collectives, sizes and
// topologies. These assert feasibility (validated by the simulator's demand
// checks), sane busbw, and the paper's qualitative properties.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>

#include "coll/busbw.h"
#include "core/synthesizer.h"
#include "obs/metrics.h"
#include "obs/scenario.h"
#include "obs/trace.h"
#include "runtime/validate.h"
#include "runtime/xml.h"
#include "serve/canonical.h"
#include "sim/simulator.h"
#include "sketch/alltoall.h"
#include "sketch/search.h"
#include "topo/builders.h"
#include "topo/mutate.h"

namespace syccl::core {
namespace {

SynthesisConfig fast_config() {
  SynthesisConfig cfg;
  cfg.sketch.search.max_sketches = 32;
  cfg.sketch.max_prototypes = 4;
  cfg.sketch.combine.max_outputs = 10;
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

TEST(Synthesizer, DuplicateCombinationsEvaluatedOnce) {
  // Allocating a three-family subset can zero one family and reproduce a
  // two-family subset's combination exactly. Such copies are planned,
  // merged and simulated once, as their original.
  const topo::Topology topo = obs::build_scenario_topology("h800x4");
  const topo::TopologyGroups groups = topo::extract_groups(topo);
  SynthesisConfig cfg;
  cfg.two_step = false;
  const auto sketches = sketch::search_sketches(groups, 0, sketch::RootedPattern::Broadcast,
                                                cfg.sketch.search);
  const auto combos = sketch::combine_prototypes(
      sketch::select_prototypes(sketches, groups, cfg.sketch.max_prototypes), sketches, groups,
      true, cfg.sketch.combine);
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < combos.size(); ++i) {
    bool copy = false;
    for (std::size_t j = 0; j < i && !copy; ++j) copy = combos[j] == combos[i];
    if (!copy) ++distinct;
  }
  ASSERT_EQ(combos.size(), 24u);
  ASSERT_EQ(distinct, 14u);

  obs::MetricsRegistry::instance().reset();
  obs::trace_clear();
  obs::set_tracing(true);
  Synthesizer synth(topo, cfg);
  const SynthesisResult r = synth.synthesize(coll::make_allgather(32, 1 << 20));
  obs::set_tracing(false);
  EXPECT_EQ(r.breakdown.num_combinations, 24);

  // The coarse pass simulates every distinct combination once; the fine
  // pass then tunes the survivors.
  const auto threads = obs::trace_snapshot();
  const auto spans_named = [&](const char* name) {
    std::vector<const obs::SpanRecord*> out;
    for (const auto& thread : threads) {
      for (const auto& span : thread.spans) {
        if (std::strcmp(span.name, name) == 0) out.push_back(&span);
      }
    }
    return out;
  };
  const auto coarse = spans_named("coarse_eval");
  const auto demand_plan = spans_named("demand_plan");
  ASSERT_EQ(coarse.size(), 1u);
  ASSERT_EQ(demand_plan.size(), 1u);
  const auto runs = spans_named("sim.run");
  std::size_t coarse_runs = 0;
  for (const obs::SpanRecord* run : runs) {
    if (run->begin_us >= coarse[0]->begin_us && run->end_us <= coarse[0]->end_us) ++coarse_runs;
  }
  EXPECT_EQ(coarse_runs, distinct);
  EXPECT_EQ(spans_named("plan_candidate").size(), distinct);
  EXPECT_EQ(obs::MetricsRegistry::instance().counter("sim.runs").value(),
            static_cast<std::int64_t>(runs.size()));
  double copies = -1.0;
  for (const auto& [key, value] : demand_plan[0]->args) {
    if (std::strcmp(key, "copies") == 0) copies = value;
  }
  EXPECT_EQ(copies, static_cast<double>(combos.size() - distinct));
}

/// FNV-1a of the schedule's XML export.
std::uint64_t schedule_digest(const SynthesisResult& r, int num_ranks) {
  const std::string xml = runtime::to_xml(r.schedule, num_ranks);
  return serve::fnv1a(xml.data(), xml.size());
}

/// Synthesizes `coll` on `topo` at 1 and 4 threads and checks the schedule
/// digest and predicted time of each against recorded values.
void expect_golden(const topo::Topology& topo, const coll::Collective& coll, SynthesisConfig cfg,
                   std::uint64_t digest, double predicted) {
  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    cfg.num_threads = threads;
    Synthesizer synth(topo, cfg);
    const SynthesisResult r = synth.synthesize(coll);
    EXPECT_EQ(schedule_digest(r, coll.num_ranks()), digest);
    EXPECT_NEAR(r.predicted_time, predicted, 1e-9 * predicted);
  }
}

void expect_golden(const char* fabric, const coll::Collective& coll, SynthesisConfig cfg,
                   std::uint64_t digest, double predicted) {
  expect_golden(obs::build_scenario_topology(fabric), coll, cfg, digest, predicted);
}

// Golden digests pin candidate evaluation: skipping copies and reusing
// simulator workspaces must leave every schedule byte-identical.
TEST(Synthesizer, GoldenDigestH800x4AllGather) {
  expect_golden("h800x4", coll::make_allgather(32, 1 << 20), {}, 0x9df02c83e790f048ull,
                11.53901333e-6);
}

TEST(Synthesizer, GoldenDigestDgx16ReduceScatter) {
  expect_golden("dgx16", coll::make_reduce_scatter(16, 16 << 20), {}, 0x52c66dacdc0341f4ull,
                78.13720309e-6);
}

// The rooted reverse kinds: Gather reverses a Scatter twin (origins move
// to the scatter destinations), Reduce a Broadcast twin (reduce pieces).
TEST(Synthesizer, GoldenDigestDgx16Gather) {
  expect_golden("dgx16", coll::make_gather(16, 1 << 20), {}, 0x15c3d81495f53a98ull,
                10.02144e-6);
}

TEST(Synthesizer, GoldenDigestH800x4Reduce) {
  expect_golden("h800x4", coll::make_reduce(32, 16 << 20), {}, 0x64d03bb6027c4095ull,
                41.55965333e-6);
}

// AllReduce ranks one AllGather prefix twice: flipped into ReduceScatter
// and forward. On h800x4 the two phases' survivors need different fine
// classes, so the fine pass solves their union.
TEST(Synthesizer, GoldenDigestDgx16AllReduce) {
  expect_golden("dgx16", coll::make_allreduce(16, 1 << 20), {}, 0x68cf91db947c998cull,
                19.75938306e-6);
}

TEST(Synthesizer, GoldenDigestH800x4AllReduce) {
  expect_golden("h800x4", coll::make_allreduce(32, 1 << 20), {}, 0x076d58cc65dabd9dull,
                23.07802667e-6);
}

TEST(Synthesizer, GoldenDigestA100x32CopiesCompeteForSurvivorSlots) {
  // 18 of a100x32's 24 combinations are copies. With every candidate inside
  // R1, the R2 cut keeps the three fastest, copies included.
  SynthesisConfig cfg;
  cfg.R1 = 10.0;
  cfg.R2 = 3;
  expect_golden("a100x32", coll::make_allgather(32, 1 << 20), cfg, 0x775b35bc9812ed4aull,
                19.42056e-6);
}

// Group keys list members in local (ascending-rank) order. Relabelling rank
// r as 15 - r puts dgx16@degraded's slow rank last in its NVLink group
// instead of first, so this pins a degraded group whose slow member is not
// at local position 0.
TEST(Synthesizer, GoldenDigestReversedDgx16DegradedAllGather) {
  const topo::Topology base = obs::build_scenario_topology("dgx16@degraded");
  std::vector<int> reversed(base.num_gpus());
  for (std::size_t r = 0; r < reversed.size(); ++r) {
    reversed[r] = static_cast<int>(reversed.size() - 1 - r);
  }
  expect_golden(topo::permute_gpu_ranks(base, reversed), coll::make_allgather(16, 1 << 20), {},
                0xb36b20d1423c5fe6ull, 33.61482222e-6);
}

TEST(Synthesizer, AllToAllOnFailedNicMultiRailFailsTyped) {
  // Re-sourcing a replica around the failed NIC leaves relay parents that
  // are not sources of their sub-demands. Such Scatter replicas are
  // rejected, so no family replicates and synthesis fails with a typed
  // error instead of tripping over the relay tree in demand planning.
  const auto failed_nic = [](int servers, const char* nic) {
    topo::MultiRailSpec spec;
    spec.num_servers = servers;
    spec.gpus_per_server = 4;
    const topo::Topology base = topo::build_multi_rail(spec);
    return topo::fail_nic(base, topo::node_by_name(base, nic));
  };
  const std::pair<int, const char*> fabrics[] = {{2, "nic0.1"}, {2, "nic1.0"}, {4, "nic0.1"}};
  for (const auto& [servers, nic] : fabrics) {
    SCOPED_TRACE(std::to_string(servers) + "x4 " + nic);
    const topo::Topology topo = failed_nic(servers, nic);
    Synthesizer synth(topo);
    try {
      synth.synthesize(coll::make_alltoall(servers * 4, 1 << 20));
      ADD_FAILURE() << "AllToAll synthesized on a fabric with no replicable family";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "no replicable sketch family found");
    } catch (const std::exception& e) {
      ADD_FAILURE() << "untyped failure: " << e.what();
    }
  }
}

}  // namespace
}  // namespace syccl::core
