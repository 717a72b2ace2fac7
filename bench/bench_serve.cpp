// Schedule-compiler service bench (BENCH_serve.json): measures the broker's
// warm-hit path against cold synthesis and the canonical key's coverage of
// isomorphic re-requests.
//
// Gates:
//   1. A warm hit (canonicalize + library fetch + rank remap + validate +
//      re-simulate) must be ≥100× faster than the cold synthesis it replaces.
//   2. Re-requesting the same collective on randomly rank-permuted copies of
//      the topology must hit the library every time (100% hit rate) — the
//      canonical scenario key is what makes the service a library rather
//      than a per-labelling cache.
//   3. Degraded path: a request whose deadline expires during cold synthesis
//      is answered with a minimal-budget fallback ≥20× faster than the full
//      synthesis it stands in for, and the background full synthesis must
//      land and upgrade the library entry (a later request hits full-budget).
//
// Registered under the ctest configuration/label `perf` (`ctest -C perf`).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <numeric>
#include <random>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "obs/metrics.h"
#include "serve/broker.h"
#include "serve/library.h"
#include "solver/solve_cache.h"
#include "topo/builders.h"
#include "topo/mutate.h"
#include "util/stopwatch.h"

using namespace syccl;

namespace {

/// Same deterministic budgets as bench_resynth: the B&B admits the size-8
/// all-to-all classes instead of the greedy fallback, putting cold synthesis
/// in the seconds range — the kind of work a schedule library amortises.
core::SynthesisConfig bench_config() {
  core::SynthesisConfig cfg;
  cfg.sketch.search.max_sketches = 16;
  cfg.sketch.max_prototypes = 2;
  cfg.sketch.combine.max_outputs = 4;
  for (auto* opts : {&cfg.coarse_solver, &cfg.fine_solver}) {
    opts->max_binaries = 4000;
    opts->node_limit = 3;
    opts->time_limit_s = 1e6;
  }
  return cfg;
}

}  // namespace

int main() {
  topo::MultiRailSpec spec;
  spec.num_servers = 2;
  spec.gpus_per_server = 8;
  spec.with_spine = false;
  const topo::Topology base = topo::build_multi_rail(spec);
  const std::uint64_t bytes = 16 << 20;

  const std::filesystem::path dir = "bench_serve_library";
  std::filesystem::remove_all(dir);
  serve::DiskLibraryConfig lib_cfg;
  lib_cfg.dir = dir.string();
  serve::DiskLibrary library(lib_cfg);

  serve::BrokerConfig cfg;
  cfg.synthesis = bench_config();
  serve::Broker broker(library, cfg);

  serve::ServeRequest request;
  request.topology = base;
  request.kind = coll::CollKind::AllToAll;
  request.total_bytes = bytes;

  // Cold: first request synthesizes.
  util::Stopwatch cold_clock;
  const serve::ServeResponse cold = broker.handle(request);
  const double cold_s = cold_clock.elapsed_seconds();
  if (cold.hit) {
    std::fprintf(stderr, "FAIL: cold request hit a fresh library\n");
    return 1;
  }

  // Warm: identical re-requests must all hit; median latency over 20.
  std::vector<double> warm(20);
  for (double& w : warm) {
    util::Stopwatch clock;
    const serve::ServeResponse r = broker.handle(request);
    w = clock.elapsed_seconds();
    if (!r.hit || r.scenario_key != cold.scenario_key) {
      std::fprintf(stderr, "FAIL: identical warm re-request missed the library\n");
      return 1;
    }
  }
  std::sort(warm.begin(), warm.end());
  const double warm_s = warm[warm.size() / 2];

  // Isomorphic: random rank relabellings of the same fabric must hit too.
  const int n = static_cast<int>(base.num_gpus());
  std::vector<int> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  std::mt19937 gen(17);
  int iso_hits = 0;
  const int iso_requests = 10;
  for (int i = 0; i < iso_requests; ++i) {
    std::shuffle(perm.begin(), perm.end(), gen);
    serve::ServeRequest permuted = request;
    permuted.topology = topo::permute_gpu_ranks(base, perm);
    const serve::ServeResponse r = broker.handle(permuted);
    if (r.hit && r.scenario_key == cold.scenario_key) ++iso_hits;
  }

  // Degraded path: fresh library, same scenario, a deadline far shorter than
  // the cold synthesis measured above. The broker must answer with the
  // minimal-budget fallback right after the deadline and upgrade the entry
  // once the full synthesis (still running on the pool) lands.
  const std::filesystem::path ddir = "bench_serve_library_degraded";
  std::filesystem::remove_all(ddir);
  serve::DiskLibraryConfig dlib_cfg;
  dlib_cfg.dir = ddir.string();
  serve::DiskLibrary dlibrary(dlib_cfg);
  // The solve cache is process-global and already warm from the cold run
  // above; warm, the "full" synthesis here would finish inside any deadline
  // and nothing would degrade. Cleared, this section's full synthesis costs
  // what the measured cold_s cost.
  solver::SubScheduleCache::instance().clear();
  serve::Broker dbroker(dlibrary, cfg);
  // Upgrades are counted only in the process-wide registry.
  const obs::Counter& upgrades = obs::MetricsRegistry::instance().counter("serve.upgrades");
  const std::int64_t upgrades_before = upgrades.value();

  const double deadline_s = 0.05;
  serve::ServeRequest deadline_request = request;
  deadline_request.deadline_seconds = deadline_s;
  util::Stopwatch fallback_clock;
  const serve::ServeResponse degraded = dbroker.handle(deadline_request);
  const double fallback_elapsed = fallback_clock.elapsed_seconds();
  if (!degraded.degraded || degraded.hit) {
    std::fprintf(stderr, "FAIL: deadline request was not served degraded (degraded=%d hit=%d)\n",
                 degraded.degraded, degraded.hit);
    return 1;
  }
  // Latency the fallback itself cost, beyond the deadline the caller chose.
  const double fallback_s = std::max(fallback_elapsed - deadline_s, 1e-9);

  util::Stopwatch upgrade_clock;
  bool upgraded = false;
  while (upgrade_clock.elapsed_seconds() < cold_s * 20.0 + 60.0) {
    if (upgrades.value() > upgrades_before) {
      upgraded = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const double upgrade_wait_s = upgrade_clock.elapsed_seconds();
  const serve::ServeResponse after = dbroker.handle(request);
  const bool upgraded_hit = after.hit && !after.degraded;

  const double speedup = warm_s > 0 ? cold_s / warm_s : 0.0;
  const double fallback_speedup = fallback_s > 0 ? cold_s / fallback_s : 0.0;
  const double hit_rate = 100.0 * iso_hits / iso_requests;

  char line[1024];
  std::snprintf(line, sizeof(line),
                "{\"bench\":\"serve_warm_hit_multirail2x8_alltoall\",\"bytes\":%llu,"
                "\"cold_s\":%.6f,\"warm_hit_s\":%.6f,\"speedup\":%.1f,"
                "\"iso_requests\":%d,\"iso_hits\":%d,\"iso_hit_rate\":%.1f,"
                "\"degraded\":{\"deadline_s\":%.3f,\"fallback_s\":%.6f,"
                "\"fallback_speedup\":%.1f,\"upgrade_wait_s\":%.3f,"
                "\"upgraded_hit\":%s}}",
                static_cast<unsigned long long>(bytes), cold_s, warm_s, speedup,
                iso_requests, iso_hits, hit_rate, deadline_s, fallback_s, fallback_speedup,
                upgrade_wait_s, upgraded_hit ? "true" : "false");
  benchutil::emit_json("serve", line);

  // ---- Gates (acceptance criteria) ----
  if (iso_hits != iso_requests) {
    std::fprintf(stderr, "FAIL: only %d/%d isomorphic re-requests hit the library\n",
                 iso_hits, iso_requests);
    return 1;
  }
  if (speedup < 100.0) {
    std::fprintf(stderr, "FAIL: warm hit only %.1fx faster than cold synthesis\n", speedup);
    return 1;
  }
  if (fallback_speedup < 20.0) {
    std::fprintf(stderr, "FAIL: degraded fallback only %.1fx faster than cold synthesis\n",
                 fallback_speedup);
    return 1;
  }
  if (!upgraded || !upgraded_hit) {
    std::fprintf(stderr,
                 "FAIL: background upgrade never landed (upgraded=%d hit=%d degraded=%d)\n",
                 upgraded, after.hit, after.degraded);
    return 1;
  }
  return 0;
}
