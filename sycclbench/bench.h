// Shared pieces of the SyCCL end-to-end benchmark (syccl_bench).
//
// One binary runs one workload per invocation:
//
//   syccl_bench --workload synth_512|serve_warm|serve_cold --seed N
//               --seconds S --trace 0|1 --workdir DIR
//
// and prints, as its last stdout line, one JSON object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Earlier stdout lines repeat the headline numbers under the
// names the service's users know them by (synth_s, hit_p99_ms, ...).
//
// Per-layer time and count metrics are normalised per timed operation (one
// synthesis on synth_512, one request on the serve workloads), so runs of
// different length and host speed stay comparable; ratios, maxima and
// library sizes are reported as they are.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "coll/collective.h"
#include "obs/trace.h"
#include "sim/schedule.h"
#include "sim/simulator.h"
#include "topo/groups.h"

namespace sycclbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Existing directory the run may write into; the run creates (and
  /// removes again) one fresh subdirectory under it for libraries/sockets.
  std::string workdir;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// What one workload run hands back to main().
struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  Metrics metrics;
  /// Human-readable "name value unit" lines printed before the JSON line.
  std::vector<std::string> notes;
};

RunResult run_synth_512(const Options& options);
RunResult run_serve_warm(const Options& options);
RunResult run_serve_cold(const Options& options);

// ---- checks.cpp

/// Full correctness check of one schedule against the collective it must
/// implement on `groups`: runtime::validate_schedule, demand completion via
/// Simulator::time_collective, and production-vs-oracle agreement
/// (sim::diff_against_oracle, relative 1e-9). Returns "" on success, else
/// the first problem found.
std::string check_schedule(const syccl::sim::Schedule& schedule,
                           const syccl::coll::Collective& coll,
                           const syccl::topo::TopologyGroups& groups,
                           const syccl::sim::SimOptions& sim_options);

// ---- report.cpp

double now_seconds();
double median(std::vector<double> values);
/// Nearest-rank quantile, q in [0, 1]. 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double geomean(const std::vector<double>& values);
/// printf-formats one number (the notes lines).
std::string fmt(const char* format, double value);
/// Starts the window peak_rss_mb() reports on: returns freed heap to the
/// system, then resets the kernel's resident-set high-water mark. Set-up's
/// transient peaks (e.g. synthesizing a library catalogue) stay out of it;
/// getrusage's ru_maxrss cannot be reset, so the mark is read from
/// /proc/self/status. Throws when the mark cannot be reset.
void start_peak_rss_window();
/// Peak resident set since start_peak_rss_window() (VmHWM), in MB.
double peak_rss_mb();

/// Time a span spent not covered by its direct children ("self"), its full
/// duration ("total"), how many there were and the longest one, plus the
/// sum of each numeric annotation.
struct SpanStat {
  double self_s = 0.0;
  double total_s = 0.0;
  double max_s = 0.0;
  std::int64_t count = 0;
  std::map<std::string, double> args;
};

/// A trace snapshot reduced to per-name statistics. `by_edge` keys a span
/// by "parent>name" so a shared helper span (evaluate_candidates) can be
/// charged to the phase that called it.
struct SpanSummary {
  std::map<std::string, SpanStat> by_name;
  std::map<std::string, SpanStat> by_edge;
  /// Top-level span time on the synthesizer/broker pool worker threads.
  double worker_busy_s = 0.0;

  const SpanStat& operator[](const std::string& name) const;
  const SpanStat& edge(const std::string& parent, const std::string& name) const;
};

SpanSummary reduce_spans(const std::vector<syccl::obs::ThreadTrace>& threads);

/// Registry counter by name (0 when the counter was never touched).
std::int64_t counter(const std::string& name);

/// Adds the per-layer metrics every workload reports that come from spans
/// and registry counters, each divided by `ops` where it is a per-operation
/// quantity. `window_s` is the wall time the traced phase covered.
void add_layer_metrics(Metrics& out, const SpanSummary& spans, double ops, double window_s);

/// Prints the notes, then the result JSON line. Returns the exit code.
int emit(const RunResult& result);

}  // namespace sycclbench
