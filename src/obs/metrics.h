// Process-wide metrics registry: named counters, gauges and log-bucketed
// histograms with a consistent snapshot and JSON/text exporters.
//
// Process totals live here and nowhere else: each event is counted once, by
// the instrument its owner increments (serve.* in the broker, solve_cache.*
// in the solve cache, solver.*, synth.* and sim.* in their layers), so one
// `to_json()` shows every solve, every cache lookup and every synthesis of
// the process. The structs that remain — per-call results
// (solver::SolveStats, core::SynthesisBreakdown) and per-instance state
// (serve::DiskLibrary::Stats, SubScheduleCache::Stats) — answer their own
// callers, not copy totals.
//
// Cost model: instruments are plain atomics. `counter.add` is one relaxed
// fetch_add; `histogram.observe` is a frexp plus three relaxed RMWs (bucket,
// count, bits-of-double sum CAS). Lookup by name takes a mutex — hot paths
// must hoist it (`static auto& c = MetricsRegistry::instance().counter(...)`)
// so steady-state cost is the atomic alone. Returned references live as long
// as the registry (entries are never erased; reset() zeroes values in place).
//
// Histograms are base-2 log-bucketed: bucket i counts observations in
// [2^(i-64), 2^(i-63)), computed exactly with frexp so powers of two land in
// the bucket they open. That covers ~1e-19 … 1e19 — nanosecond solve times
// to multi-gigabyte sizes — with 128 fixed buckets and no configuration.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace syccl::obs {

class Counter {
 public:
  void add(std::int64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

class Gauge {
 public:
  void set(double v) { bits_.store(pack(v), std::memory_order_relaxed); }
  double value() const { return unpack(bits_.load(std::memory_order_relaxed)); }
  void reset() { set(0.0); }

 private:
  static std::uint64_t pack(double v);
  static double unpack(std::uint64_t bits);
  std::atomic<std::uint64_t> bits_{0};
};

class Histogram {
 public:
  static constexpr int kNumBuckets = 128;
  /// Exponent offset: bucket i spans [2^(i-kZeroBucket), 2^(i-kZeroBucket+1)).
  static constexpr int kZeroBucket = 64;

  /// Bucket index for a value. Non-positive and sub-range values clamp to
  /// bucket 0, values beyond the top bucket clamp to kNumBuckets - 1.
  static int bucket_index(double value);
  /// Inclusive lower bound of bucket i (2^(i - kZeroBucket)).
  static double bucket_lower_bound(int index);

  void observe(double value);

  /// Nearest-rank q-quantile at bucket resolution: the upper edge of the
  /// bucket holding the ceil(q * count)-th smallest observation (at least
  /// the first), so it never under-reports a value below the top bucket.
  /// 0 when empty; q is clamped to [0, 1].
  double quantile(double q) const;

  std::int64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const;
  std::int64_t bucket_count(int index) const {
    return buckets_[static_cast<std::size_t>(index)].load(std::memory_order_relaxed);
  }
  void reset();

 private:
  std::atomic<std::int64_t> buckets_[kNumBuckets] = {};
  std::atomic<std::int64_t> count_{0};
  /// Sum as bits-of-double, accumulated by CAS (atomic<double> fetch_add is
  /// not universally lock-free pre-C++20 library support).
  std::atomic<std::uint64_t> sum_bits_{0};
};

/// Point-in-time copy of every registered instrument.
struct MetricsSnapshot {
  struct HistogramData {
    std::string name;
    std::int64_t count = 0;
    double sum = 0.0;
    /// (bucket lower bound, count) for non-empty buckets, ascending.
    std::vector<std::pair<double, std::int64_t>> buckets;
  };
  std::vector<std::pair<std::string, std::int64_t>> counters;  ///< sorted by name
  std::vector<std::pair<std::string, double>> gauges;          ///< sorted by name
  std::vector<HistogramData> histograms;                       ///< sorted by name
};

class MetricsRegistry {
 public:
  /// The process-wide registry used by all instrumentation sites.
  static MetricsRegistry& instance();

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates an instrument. The reference stays valid forever;
  /// callers on hot paths hoist it into a local/static.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  MetricsSnapshot snapshot() const;

  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,sum,
  /// buckets:[{le is implicit — "ge" lower bound, "count"}...]}}}
  std::string to_json() const;
  /// One instrument per line, for terminal diffing.
  std::string to_text() const;

  /// Zeroes every instrument in place (references stay valid). Scenario runs
  /// and tests call this to scope totals to one measured region.
  void reset();

 private:
  struct Impl;
  Impl& impl() const;
};

}  // namespace syccl::obs
