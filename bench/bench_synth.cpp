// Perf-trajectory bench: end-to-end Synthesizer::synthesize (AllGather on
// 2×H800), cold vs warm solve cache, emitted as one JSON line so the
// synthesis cost can be tracked across PRs.
//
// Output: a `BENCH_synth.json` file in the working directory plus the same
// line on stdout. Registered under the ctest label/configuration `perf`,
// excluded from the default `ctest` run.
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "core/synthesizer.h"
#include "obs/json.h"
#include "solver/solve_cache.h"
#include "topo/builders.h"
#include "util/stopwatch.h"

using namespace syccl;

namespace {

core::SynthesisConfig bench_config() {
  core::SynthesisConfig cfg;
  cfg.sketch.search.max_sketches = 32;
  cfg.sketch.max_prototypes = 4;
  cfg.sketch.combine.max_outputs = 10;
  // SYCCL_SYNTH_THREADS=1 isolates the parallel-evaluation share (compare
  // cold_s against the default run).
  if (const char* t = std::getenv("SYCCL_SYNTH_THREADS")) cfg.num_threads = std::atoi(t);
  return cfg;
}

double median_of_three(double a, double b, double c) {
  if (a > b) std::swap(a, b);
  if (b > c) std::swap(b, c);
  return a > b ? a : b;
}

}  // namespace

int main() {
  const auto topo = topo::build_h800_cluster(2);
  const auto coll = coll::make_allgather(16, 16 << 20);

  auto run_once = [&](bool clear_cache) {
    if (clear_cache) solver::SubScheduleCache::instance().clear();
    core::Synthesizer synth(topo, bench_config());
    util::Stopwatch clock;
    const auto result = synth.synthesize(coll);
    return std::make_pair(clock.elapsed_seconds(), result);
  };

  // Cold: cache cleared before each run (first-ever synthesis cost).
  double cold[3];
  core::SynthesisBreakdown cold_bd;
  for (int i = 0; i < 3; ++i) {
    auto [secs, result] = run_once(true);
    cold[i] = secs;
    cold_bd = result.breakdown;
  }
  // Warm: cache kept across runs (size-sweep steady state).
  double warm[3];
  core::SynthesisBreakdown warm_bd;
  double predicted = 0.0;
  for (int i = 0; i < 3; ++i) {
    auto [secs, result] = run_once(false);
    warm[i] = secs;
    warm_bd = result.breakdown;
    predicted = result.predicted_time;
  }

  const double cold_s = median_of_three(cold[0], cold[1], cold[2]);
  const double warm_s = median_of_three(warm[0], warm[1], warm[2]);
  const auto cache = solver::SubScheduleCache::instance().stats();

  obs::Json json = obs::Json::object();
  json.set("bench", "synth_allgather_2xh800");
  json.set("bytes", coll.total_bytes());
  json.set("cold_s", cold_s);
  json.set("warm_s", warm_s);
  json.set("speedup", warm_s > 0 ? cold_s / warm_s : 0.0);
  json.set("predicted_time_s", predicted);
  json.set("cold_solver_calls", cold_bd.num_solver_calls);
  json.set("warm_solver_calls", warm_bd.num_solver_calls);
  json.set("warm_cache_hits", warm_bd.cache_hits);
  json.set("cache_entries", cache.entries);
  json.set("cache_bytes", cache.bytes);
  benchutil::emit_json("synth", json.dump());

  // Gate for the acceptance criterion: a warm re-synthesis must reuse the
  // solve cache. The deterministic signal is the breakdown — every cold
  // solver call must come back as a warm cache hit with zero re-solves —
  // backed by a loose wall-clock sanity bound. (An absolute speedup
  // threshold flakes on a busy single-core box; the `speedup` field in the
  // JSON line still tracks it across PRs.)
  if (warm_bd.num_solver_calls != 0 || warm_bd.cache_hits < cold_bd.num_solver_calls) {
    std::fprintf(stderr, "FAIL: warm synthesis re-solved %d sub-demands (%d cache hits, cold %d)\n",
                 warm_bd.num_solver_calls, warm_bd.cache_hits, cold_bd.num_solver_calls);
    return 1;
  }
  if (warm_s > cold_s) {
    std::fprintf(stderr, "FAIL: warm synthesis %.4fs slower than cold %.4fs\n", warm_s, cold_s);
    return 1;
  }
  return 0;
}
