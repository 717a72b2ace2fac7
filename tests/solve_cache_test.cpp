// Tests for the process-wide sub-demand solve cache and the parallel
// candidate-evaluation path: synthesis from a warm cache must be
// byte-identical to synthesis from a cleared one, repeated synthesis must hit
// the cache, the LRU byte bound must hold over the whole budget, and
// parallel evaluation must pick the same candidate as a single-threaded run.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/synthesizer.h"
#include "counting_test.h"
#include "obs/scenario.h"
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

/// True iff the two sub-schedules list the same ops in the same order.
bool same_ops(const solver::SubSchedule& a, const solver::SubSchedule& b) {
  if (a.num_epochs != b.num_epochs || a.ops.size() != b.ops.size()) return false;
  for (std::size_t i = 0; i < a.ops.size(); ++i) {
    if (a.ops[i].piece != b.ops[i].piece || a.ops[i].src != b.ops[i].src ||
        a.ops[i].dst != b.ops[i].dst || a.ops[i].start_epoch != b.ops[i].start_epoch) {
      return false;
    }
  }
  return true;
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
  EXPECT_TRUE(same_ops(first, second));
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

TEST_F(SolveCache, ConcurrentMissesReturnIdenticalSchedules) {
  const auto topo = topo::build_single_server(8);
  const auto groups = topo::extract_groups(topo);
  solver::SubScheduleCache cache;
  const auto demand = make_broadcast_demand(groups.dims[0].groups[0], 1 << 20);
  solver::SolveOptions opts;

  std::vector<solver::SubSchedule> got(8);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < got.size(); ++t) {
    threads.emplace_back([&, t] { got[t] = cache.get_or_solve(demand, demand.canonical(), opts); });
  }
  for (auto& t : threads) t.join();
  // Misses that race on one key each solve; the solver is deterministic,
  // so every caller gets the same schedule and the cache keeps one entry.
  for (std::size_t t = 1; t < got.size(); ++t) EXPECT_TRUE(same_ops(got[0], got[t])) << t;
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_GE(count("solve_cache.misses"), 1);
  EXPECT_EQ(count("solve_cache.hits") + count("solve_cache.misses"), 8);
  EXPECT_EQ(count("solver.solves"), count("solve_cache.misses"));
}

// The budget is one pool: an entry larger than a sixteenth of it stays
// until others push it out.
TEST_F(SolveCache, EntryWithinTheBudgetStays) {
  const auto topo = topo::build_single_server(8);
  const auto groups = topo::extract_groups(topo);
  const auto demand = make_broadcast_demand(groups.dims[0].groups[0], 1 << 20);
  solver::SolveOptions opts;
  std::size_t entry_bytes = 0;
  {
    solver::SubScheduleCache sizing;
    sizing.get_or_solve(demand, demand.canonical(), opts);
    entry_bytes = sizing.stats().bytes;
  }
  solver::SubScheduleCache cache(2 * entry_bytes);
  ASSERT_GT(entry_bytes, cache.max_bytes() / 16);
  cache.get_or_solve(demand, demand.canonical(), opts);
  solver::SolveStats stats;
  cache.get_or_solve(demand, demand.canonical(), opts, &stats);
  EXPECT_TRUE(stats.cache_hit);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(count("solve_cache.evictions"), 0);
}

// clear() drops what is stored. A solve that is running when clear() is
// called still stores its result when it finishes.
TEST_F(SolveCache, SolveRunningAcrossClearStoresItsResult) {
  // Every member of a 128-member group broadcasts its own piece: the solve
  // takes milliseconds, long enough for clear() to land inside it.
  const auto topo = topo::build_single_server(128);
  const auto groups = topo::extract_groups(topo);
  const topo::GroupTopology& group = groups.dims[0].groups[0];
  solver::SubDemand demand;
  demand.group = &group;
  demand.piece_bytes = 1 << 20;
  for (int p = 0; p < group.size(); ++p) {
    solver::DemandPiece piece;
    piece.id = p;
    piece.srcs = {p};
    for (int d = 0; d < group.size(); ++d) {
      if (d != p) piece.dsts.push_back(d);
    }
    demand.pieces.push_back(std::move(piece));
  }
  solver::SolveOptions opts;
  solver::SubScheduleCache cache;
  // clear() runs after the miss is counted, so an entry left after the join
  // was stored by a solve that clear() ran across. A solve that finished
  // before clear() leaves nothing; try again.
  bool stored_across_clear = false;
  for (int attempt = 0; attempt < 50 && !stored_across_clear; ++attempt) {
    cache.clear();
    obs::MetricsRegistry::instance().reset();
    std::thread solver_thread([&] { cache.get_or_solve(demand, demand.canonical(), opts); });
    // Sleeping (not yielding) lets this thread preempt the solver when both
    // share a core.
    while (count("solve_cache.misses") == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    cache.clear();
    solver_thread.join();
    stored_across_clear = cache.stats().entries == 1;
  }
  ASSERT_TRUE(stored_across_clear) << "no solve outlasted clear() in 50 attempts";
  solver::SolveStats stats;
  cache.get_or_solve(demand, demand.canonical(), opts, &stats);
  EXPECT_TRUE(stats.cache_hit);
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
  EXPECT_GT(solver::SubScheduleCache::instance().stats().bytes, 0u);
  // And the reused solves produce the exact same schedule.
  EXPECT_EQ(first.chosen, second.chosen);
  EXPECT_EQ(first.predicted_time, second.predicted_time);
  EXPECT_EQ(xml_of(first, 16), xml_of(second, 16));
}

TEST_F(SolveCache, AllReducePhasesShareSolves) {
  // ReduceScatter is the flipped AllGather, so both phases rank one prefix
  // and solve its classes once, from a cold cache without a single hit. On
  // h800x4 the two phases' survivors need different fine classes: 67 solves
  // for ReduceScatter alone, 52 for AllGather alone, 68 for both.
  const topo::Topology topo = obs::build_scenario_topology("h800x4");
  core::Synthesizer synth(topo, core::SynthesisConfig{});
  const auto cold_solves = [&](const coll::Collective& coll) {
    solver::SubScheduleCache::instance().clear();
    obs::MetricsRegistry::instance().reset();
    const core::SynthesisResult r = synth.synthesize(coll);
    EXPECT_EQ(r.breakdown.cache_hits, 0) << coll::kind_name(coll.kind());
    EXPECT_EQ(count("solve_cache.hits"), 0) << coll::kind_name(coll.kind());
    EXPECT_EQ(count("solver.solves"), r.breakdown.num_solver_calls);
    return r.breakdown.num_solver_calls;
  };
  EXPECT_EQ(cold_solves(coll::make_reduce_scatter(32, 1 << 20)), 67);
  EXPECT_EQ(cold_solves(coll::make_allgather(32, 1 << 20)), 52);
  EXPECT_EQ(cold_solves(coll::make_allreduce(32, 1 << 20)), 68);
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
