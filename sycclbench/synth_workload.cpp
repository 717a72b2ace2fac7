// synth_512: the paper's headline point (Fig. 15(b)) — cold synthesis of
// AllGather 1 MiB on 64 H800 servers (512 GPUs) by one caller with a pool
// of one thread per core, solve cache cleared before every synthesis.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench.h"
#include "coll/busbw.h"
#include "core/synthesizer.h"
#include "obs/metrics.h"
#include "solver/solve_cache.h"
#include "topo/builders.h"

namespace sycclbench {

namespace {

constexpr int kServers = 64;
constexpr int kGpusPerServer = 8;
constexpr std::uint64_t kBytes = 1 << 20;

}  // namespace

RunResult run_synth_512(const Options& options) {
  RunResult result;
  namespace core = syccl::core;

  // The fabric is built in its own labelling and the seed changes nothing:
  // synthesis time depends on the rank labelling (a random relabelling of
  // this fabric synthesizes about 4x faster), so a seeded labelling would
  // let the seed, not the code, decide the result.
  (void)options.seed;
  core::SynthesisConfig config;
  config.num_threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  // ---- Set-up, nine times: build the fabric, extract its groups and start
  // the synthesizer's pool. The last repetition is the one measured.
  std::unique_ptr<syccl::topo::Topology> topology;
  std::unique_ptr<core::Synthesizer> synthesizer;
  std::vector<double> setup_times;
  for (int rep = 0; rep < 9; ++rep) {
    synthesizer.reset();
    const double start = now_seconds();
    topology =
        std::make_unique<syccl::topo::Topology>(syccl::topo::build_h800_cluster(kServers));
    synthesizer = std::make_unique<core::Synthesizer>(*topology, config);
    setup_times.push_back(now_seconds() - start);
  }
  const syccl::coll::Collective coll =
      syccl::coll::make_allgather(kServers * kGpusPerServer, kBytes);
  syccl::obs::set_thread_name("main");

  const auto cold_synthesis = [&](bool trace, core::SynthesisResult& out) {
    syccl::solver::SubScheduleCache::instance().clear();
    syccl::obs::MetricsRegistry::instance().reset();
    syccl::obs::trace_clear();
    syccl::obs::set_tracing(trace);
    const double start = now_seconds();
    out = synthesizer->synthesize(coll);
    const double elapsed = now_seconds() - start;
    syccl::obs::set_tracing(false);
    return elapsed;
  };

  // ---- Timed: cold syntheses until the clock is spent (at least one). A
  // traced run times one untraced synthesis (the overhead baseline), then
  // one traced synthesis for the layer split.
  std::vector<double> times;
  std::vector<core::SynthesisResult> results;
  double traced_s = 0.0;
  start_peak_rss_window();
  const double window_start = now_seconds();
  do {
    results.emplace_back();
    times.push_back(cold_synthesis(false, results.back()));
  } while (!options.trace && now_seconds() - window_start < options.seconds);
  const double window_s = now_seconds() - window_start;
  if (options.trace) {
    results.emplace_back();
    traced_s = cold_synthesis(true, results.back());
  }
  const double rss_mb = peak_rss_mb();
  const auto snapshot = options.trace ? syccl::obs::trace_snapshot()
                                      : std::vector<syccl::obs::ThreadTrace>{};

  // ---- Checks, outside the timed region: every synthesized schedule.
  for (const core::SynthesisResult& r : results) {
    ++result.attempted;
    std::string problem = check_schedule(r.schedule, coll, synthesizer->groups(), config.sim);
    if (problem.empty() && r.predicted_time != results.front().predicted_time) {
      problem = "synthesis is not deterministic";
    }
    if (!problem.empty()) {
      ++result.failed;
      std::fprintf(stderr, "synth_512: %s\n", problem.c_str());
    }
  }

  const double synth_s = median(times);
  const double busbw = syccl::coll::busbw_GBps(coll, results.front().predicted_time);
  const double setup_s = median(setup_times);
  if (!options.trace) {
    result.metrics["latency_p50_ms"] = {synth_s * 1e3, "ms"};
    result.metrics["latency_tail_ms"] = {*std::max_element(times.begin(), times.end()) * 1e3,
                                         "ms"};
    result.metrics["throughput_per_s"] = {static_cast<double>(times.size()) / window_s, "1/s"};
    result.metrics["schedule_busbw_gbps"] = {busbw, "GB/s"};
    result.metrics["peak_rss_mb"] = {rss_mb, "MB"};
    result.metrics["setup_s"] = {setup_s, "s"};
  } else {
    const SpanSummary spans = reduce_spans(snapshot);
    add_layer_metrics(result.metrics, spans, 1.0, traced_s);
    result.metrics["trace.overhead"].value = traced_s / synth_s - 1.0;
    result.metrics["error_rate"].value =
        static_cast<double>(result.failed) / static_cast<double>(result.attempted);
    double phases_s = 0.0;
    for (const char* phase : {"sketch_search", "combine", "coarse_solve", "coarse_eval",
                              "fine_solve", "fine_eval"}) {
      phases_s += spans[phase].total_s;
    }
    result.notes.push_back(fmt("synth_512 traced_synth_s %.4f s", traced_s));
    result.notes.push_back(fmt("synth_512 traced_phase_sum_s %.4f s", phases_s));
  }
  result.notes.push_back(fmt("synth_512 synth_s %.4f s", synth_s));
  result.notes.push_back(fmt("synth_512 syntheses %.0f", static_cast<double>(times.size())));
  result.notes.push_back(fmt("synth_512 predicted_us %.6f us",
                             results.front().predicted_time * 1e6));
  result.notes.push_back(fmt("synth_512 schedule_busbw_gbps %.4f GB/s", busbw));
  result.notes.push_back(fmt("synth_512 peak_rss_mb %.1f MB", rss_mb));
  result.notes.push_back(fmt("synth_512 setup_s %.5f s", setup_s));
  return result;
}

}  // namespace sycclbench
