// Tests for the process-wide sub-demand solve cache and the parallel
// candidate-evaluation path: synthesis from a warm cache must be
// byte-identical to synthesis from a cleared one, repeated synthesis must hit
// the cache, the LRU byte bound must hold, and parallel evaluation must pick
// the same candidate as a single-threaded run.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/synthesizer.h"
#include "counting_test.h"
#include "runtime/validate.h"
#include "runtime/xml.h"
#include "solver/solve_cache.h"
#include "topo/builders.h"
#include "topo/mutate.h"

namespace syccl {
namespace {

core::SynthesisConfig test_config(int num_threads = 0) {
  core::SynthesisConfig cfg;
  cfg.sketch.search.max_sketches = 32;
  cfg.sketch.max_prototypes = 4;
  cfg.sketch.combine.max_outputs = 10;
  cfg.num_threads = num_threads;
  return cfg;
}

std::string xml_of(const core::SynthesisResult& r, int num_ranks) {
  return runtime::to_xml(r.schedule, num_ranks);
}

class SolveCache : public CountingTest {};

solver::SubDemand make_broadcast_demand(const topo::GroupTopology& gt, double piece_bytes) {
  solver::SubDemand demand;
  demand.group = &gt;
  demand.piece_bytes = piece_bytes;
  solver::DemandPiece p;
  p.id = 0;
  p.srcs = {0};
  for (int d = 1; d < gt.size(); ++d) p.dsts.push_back(d);
  demand.pieces.push_back(std::move(p));
  return demand;
}

TEST_F(SolveCache, OptionsFingerprintSeparatesKnobs) {
  solver::SolveOptions a;
  solver::SolveOptions b = a;
  EXPECT_EQ(solver::SubScheduleCache::options_fingerprint(a),
            solver::SubScheduleCache::options_fingerprint(b));
  b.E = a.E * 2;
  EXPECT_NE(solver::SubScheduleCache::options_fingerprint(a),
            solver::SubScheduleCache::options_fingerprint(b));
}

TEST_F(SolveCache, HitReturnsIdenticalScheduleWithoutSolving) {
  const auto topo = topo::build_single_server(8);
  const auto groups = topo::extract_groups(topo);
  solver::SubScheduleCache cache;
  const auto demand = make_broadcast_demand(groups.dims[0].groups[0], 1 << 20);
  solver::SolveOptions opts;

  solver::SolveStats s1, s2;
  const auto first = cache.get_or_solve(demand, demand.canonical(), opts, &s1);
  const auto second = cache.get_or_solve(demand, demand.canonical(), opts, &s2);
  EXPECT_FALSE(s1.cache_hit);
  EXPECT_TRUE(s2.cache_hit);
  EXPECT_EQ(first.num_epochs, second.num_epochs);
  ASSERT_EQ(first.ops.size(), second.ops.size());
  for (std::size_t i = 0; i < first.ops.size(); ++i) {
    EXPECT_EQ(first.ops[i].piece, second.ops[i].piece);
    EXPECT_EQ(first.ops[i].src, second.ops[i].src);
    EXPECT_EQ(first.ops[i].dst, second.ops[i].dst);
    EXPECT_EQ(first.ops[i].start_epoch, second.ops[i].start_epoch);
  }
  EXPECT_EQ(count("solve_cache.hits"), 1);
  EXPECT_EQ(count("solve_cache.misses"), 1);
  const auto st = cache.stats();
  EXPECT_EQ(st.entries, 1u);
  EXPECT_GT(st.bytes, 0u);

  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
}

TEST_F(SolveCache, LruBoundEvicts) {
  const auto topo = topo::build_single_server(8);
  const auto groups = topo::extract_groups(topo);
  // A budget far below what ~200 distinct entries need forces eviction.
  solver::SubScheduleCache cache(4096);
  solver::SolveOptions opts;
  for (int k = 0; k < 200; ++k) {
    const auto demand =
        make_broadcast_demand(groups.dims[0].groups[0], (1 << 16) + k * 997.0);
    cache.get_or_solve(demand, demand.canonical(), opts);
  }
  EXPECT_EQ(count("solve_cache.misses"), 200);
  EXPECT_GT(count("solve_cache.evictions"), 0);
  EXPECT_LE(cache.stats().bytes, cache.max_bytes());
}

TEST_F(SolveCache, ConcurrentMissesSolveOnce) {
  const auto topo = topo::build_single_server(8);
  const auto groups = topo::extract_groups(topo);
  solver::SubScheduleCache cache;
  const auto demand = make_broadcast_demand(groups.dims[0].groups[0], 1 << 20);
  solver::SolveOptions opts;

  std::atomic<int> solved{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      solver::SolveStats stats;
      cache.get_or_solve(demand, demand.canonical(), opts, &stats);
      if (!stats.cache_hit) solved.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  // In-flight dedup: exactly one thread solves, everyone else hits (possibly
  // blocking on the in-flight future).
  EXPECT_EQ(solved.load(), 1);
  EXPECT_EQ(count("solve_cache.misses"), 1);
  EXPECT_EQ(count("solve_cache.hits"), 7);
}

TEST_F(SolveCache, SweepByteIdenticalFromClearedAndWarmCache) {
  const auto topo = topo::build_h800_cluster(2);
  core::Synthesizer synth(topo, test_config());
  const std::uint64_t sizes[] = {1ull << 20, 4ull << 20, 16ull << 20};
  std::vector<core::SynthesisResult> cold;
  for (const std::uint64_t bytes : sizes) {
    solver::SubScheduleCache::instance().clear();
    cold.push_back(synth.synthesize(coll::make_allgather(16, bytes)));
    EXPECT_EQ(cold.back().breakdown.cache_hits, 0) << "bytes=" << bytes;
  }
  // One pass over the whole sweep warms the cache with every size's
  // classes; the second pass is served from it.
  solver::SubScheduleCache::instance().clear();
  for (const std::uint64_t bytes : sizes) synth.synthesize(coll::make_allgather(16, bytes));
  for (std::size_t i = 0; i < std::size(sizes); ++i) {
    const auto warm = synth.synthesize(coll::make_allgather(16, sizes[i]));
    EXPECT_EQ(warm.breakdown.num_solver_calls, 0) << "bytes=" << sizes[i];
    EXPECT_EQ(warm.chosen, cold[i].chosen) << "bytes=" << sizes[i];
    EXPECT_EQ(warm.predicted_time, cold[i].predicted_time) << "bytes=" << sizes[i];
    EXPECT_EQ(xml_of(warm, 16), xml_of(cold[i], 16)) << "bytes=" << sizes[i];
  }
}

// After a fault, the cache still holds the healthy fabric's classes. The
// groups the fault left alone keep their canonical signatures and are served
// from it; the schedule is byte-identical to a cold synthesis on the faulty
// fabric.
TEST_F(SolveCache, FaultyFabricFromWarmCacheMatchesColdSynthesis) {
  topo::MultiRailSpec spec;
  spec.num_servers = 2;
  spec.gpus_per_server = 2;
  const topo::Topology healthy = topo::build_multi_rail(spec);
  const auto coll = coll::make_allgather(4, 1 << 20);
  const std::vector<std::pair<std::string, topo::Topology>> faults = {
      {"gpu1.0 NVLink degraded 8x",
       topo::degrade_duplex(healthy, topo::node_by_name(healthy, "gpu1.0"),
                            topo::node_by_name(healthy, "nvswitch1"), 1.0, 8.0)},
      {"nic0.1 failed", topo::fail_nic(healthy, topo::node_by_name(healthy, "nic0.1"))},
  };
  for (const auto& [name, faulty] : faults) {
    SCOPED_TRACE(name);
    solver::SubScheduleCache::instance().clear();
    core::Synthesizer(healthy, test_config(2)).synthesize(coll);
    const auto warm = core::Synthesizer(faulty, test_config(2)).synthesize(coll);

    solver::SubScheduleCache::instance().clear();
    const auto cold = core::Synthesizer(faulty, test_config(2)).synthesize(coll);
    EXPECT_GT(warm.breakdown.cache_hits, 0);
    EXPECT_LT(warm.breakdown.num_solver_calls, cold.breakdown.num_solver_calls);
    EXPECT_EQ(warm.chosen, cold.chosen);
    EXPECT_EQ(warm.predicted_time, cold.predicted_time);
    EXPECT_EQ(xml_of(warm, 4), xml_of(cold, 4));
    const runtime::ValidationReport report =
        runtime::validate_schedule(cold.schedule, coll, topo::extract_groups(faulty));
    EXPECT_TRUE(report.ok) << (report.errors.empty() ? "" : report.errors.front());
  }
}

TEST_F(SolveCache, SecondIdenticalSynthesisHitsCache) {
  const auto topo = topo::build_h800_cluster(2);
  solver::SubScheduleCache::instance().clear();
  core::Synthesizer synth(topo, test_config());
  const auto coll = coll::make_allgather(16, 4 << 20);

  const auto first = synth.synthesize(coll);
  const auto second = synth.synthesize(coll);
  EXPECT_GE(second.breakdown.cache_hits, 1);
  // Every class the second run needed was already solved by the first.
  EXPECT_LT(second.breakdown.num_solver_calls, first.breakdown.num_solver_calls);
  EXPECT_EQ(second.breakdown.num_solver_calls, 0);
  EXPECT_GT(second.breakdown.cache_bytes, 0u);
  // And the reused solves produce the exact same schedule.
  EXPECT_EQ(first.chosen, second.chosen);
  EXPECT_EQ(first.predicted_time, second.predicted_time);
  EXPECT_EQ(xml_of(first, 16), xml_of(second, 16));
}

TEST_F(SolveCache, AllReducePhasesShareSolves) {
  // RS is synthesized through the reversed AG twin, so the two concurrent
  // phases request identical classes — the second requester must reuse the
  // first's solves (ready or in-flight) rather than duplicate them.
  const auto topo = topo::build_h800_cluster(2);
  solver::SubScheduleCache::instance().clear();
  core::Synthesizer synth(topo, test_config());
  const auto r = synth.synthesize(coll::make_allreduce(16, 4 << 20));
  EXPECT_GE(r.breakdown.cache_hits, 1);
  EXPECT_GT(r.predicted_time, 0.0);
}

TEST_F(SolveCache, ParallelEvaluationMatchesSingleThread) {
  // The chosen candidate, its predicted time and the schedule bytes must not
  // depend on the number of worker threads. Every pool stage runs: family
  // replication in combine, demand planning, merging and simulation. The
  // failed-NIC fabrics drop sketch families: on the first some prototypes
  // replicate and some do not, on the second none does and the serial walk
  // over the raw search output supplies the family.
  struct Case {
    std::string name;
    topo::Topology topo;
    coll::Collective coll;
  };
  const topo::Topology h800x4 = topo::build_h800_cluster(4);
  const auto failed_nic = [](int servers, const char* nic) {
    topo::MultiRailSpec spec;
    spec.num_servers = servers;
    spec.gpus_per_server = 4;
    const topo::Topology base = topo::build_multi_rail(spec);
    return topo::fail_nic(base, topo::node_by_name(base, nic));
  };
  const std::vector<Case> cases = {
      {"h800x2 allreduce 4M", topo::build_h800_cluster(2), coll::make_allreduce(16, 4 << 20)},
      {"h800x4 allgather 1M", h800x4, coll::make_allgather(32, 1 << 20)},
      {"h800x4 alltoall 1M", h800x4, coll::make_alltoall(32, 1 << 20)},
      {"h800x4 reducescatter 1M", h800x4, coll::make_reduce_scatter(32, 1 << 20)},
      {"h800x4 broadcast 1M", h800x4, coll::make_broadcast(32, 1 << 20, 5)},
      {"multi-rail 2x4, nic1.0 failed, allgather 1M", failed_nic(2, "nic1.0"),
       coll::make_allgather(8, 1 << 20)},
      {"multi-rail 4x4, nic0.1 failed, allgather 1M", failed_nic(4, "nic0.1"),
       coll::make_allgather(16, 1 << 20)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    solver::SubScheduleCache::instance().clear();
    core::Synthesizer serial(c.topo, test_config(1));
    const auto rs = serial.synthesize(c.coll);

    solver::SubScheduleCache::instance().clear();
    core::Synthesizer parallel(c.topo, test_config(4));
    const auto rp = parallel.synthesize(c.coll);

    EXPECT_EQ(rs.chosen, rp.chosen);
    EXPECT_EQ(rs.predicted_time, rp.predicted_time);
    EXPECT_EQ(xml_of(rs, c.coll.num_ranks()), xml_of(rp, c.coll.num_ranks()));
  }
}

}  // namespace
}  // namespace syccl
