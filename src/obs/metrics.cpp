#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>

#include "obs/json.h"

namespace syccl::obs {

std::uint64_t Gauge::pack(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double Gauge::unpack(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

int Histogram::bucket_index(double value) {
  if (!(value > 0.0)) return 0;
  int exp = 0;
  std::frexp(value, &exp);  // value = m * 2^exp, m in [0.5, 1)
  return std::clamp(exp - 1 + kZeroBucket, 0, kNumBuckets - 1);
}

double Histogram::bucket_lower_bound(int index) {
  return std::ldexp(1.0, index - kZeroBucket);
}

void Histogram::observe(double value) {
  buckets_[static_cast<std::size_t>(bucket_index(value))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t bits = sum_bits_.load(std::memory_order_relaxed);
  for (;;) {
    double sum;
    std::memcpy(&sum, &bits, sizeof(sum));
    sum += value;
    std::uint64_t next;
    std::memcpy(&next, &sum, sizeof(next));
    if (sum_bits_.compare_exchange_weak(bits, next, std::memory_order_relaxed)) break;
  }
}

double Histogram::quantile(double q) const {
  // Counts are read bucket by bucket, so the rank comes from their own total
  // rather than count_, which concurrent observers may have moved.
  std::int64_t counts[kNumBuckets];
  std::int64_t total = 0;
  for (int b = 0; b < kNumBuckets; ++b) total += counts[b] = bucket_count(b);
  if (total == 0) return 0.0;
  const double q_total = std::clamp(q, 0.0, 1.0) * static_cast<double>(total);
  const auto rank = std::max<std::int64_t>(1, static_cast<std::int64_t>(std::ceil(q_total)));
  std::int64_t seen = 0;
  int b = 0;
  while (b < kNumBuckets - 1 && (seen += counts[b]) < rank) ++b;
  return bucket_lower_bound(b + 1);
}

double Histogram::sum() const {
  const std::uint64_t bits = sum_bits_.load(std::memory_order_relaxed);
  double sum;
  std::memcpy(&sum, &bits, sizeof(sum));
  return sum;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_bits_.store(0, std::memory_order_relaxed);
}

/// Name → instrument maps. std::map keeps snapshots name-sorted for free;
/// unique_ptr keeps instrument addresses stable across rehash-free inserts.
struct MetricsRegistry::Impl {
  mutable std::mutex mutex;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
};

MetricsRegistry::Impl& MetricsRegistry::impl() const {
  static Impl* i = new Impl;  // leaked: instruments referenced from statics
  return *i;
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  auto& slot = i.counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  auto& slot = i.gauges[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  auto& slot = i.histograms[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  MetricsSnapshot out;
  for (const auto& [name, c] : i.counters) out.counters.emplace_back(name, c->value());
  for (const auto& [name, g] : i.gauges) out.gauges.emplace_back(name, g->value());
  for (const auto& [name, h] : i.histograms) {
    MetricsSnapshot::HistogramData data;
    data.name = name;
    data.count = h->count();
    data.sum = h->sum();
    for (int b = 0; b < Histogram::kNumBuckets; ++b) {
      const std::int64_t n = h->bucket_count(b);
      if (n != 0) data.buckets.emplace_back(Histogram::bucket_lower_bound(b), n);
    }
    out.histograms.push_back(std::move(data));
  }
  return out;
}

std::string MetricsRegistry::to_json() const {
  const MetricsSnapshot snap = snapshot();
  Json counters = Json::object();
  for (const auto& [name, v] : snap.counters) counters.set(name, Json(v));
  Json gauges = Json::object();
  for (const auto& [name, v] : snap.gauges) gauges.set(name, Json(v));
  Json histograms = Json::object();
  for (const auto& h : snap.histograms) {
    Json buckets = Json::array();
    for (const auto& [ge, n] : h.buckets) {
      Json bucket = Json::object();
      bucket.set("ge", Json(ge));
      bucket.set("count", Json(n));
      buckets.push_back(std::move(bucket));
    }
    Json entry = Json::object();
    entry.set("count", Json(h.count));
    entry.set("sum", Json(h.sum));
    entry.set("buckets", std::move(buckets));
    histograms.set(h.name, std::move(entry));
  }
  Json root = Json::object();
  root.set("counters", std::move(counters));
  root.set("gauges", std::move(gauges));
  root.set("histograms", std::move(histograms));
  return root.dump();
}

std::string MetricsRegistry::to_text() const {
  const MetricsSnapshot snap = snapshot();
  std::string out;
  char line[256];
  for (const auto& [name, v] : snap.counters) {
    std::snprintf(line, sizeof(line), "counter   %-40s %lld\n", name.c_str(),
                  static_cast<long long>(v));
    out += line;
  }
  for (const auto& [name, v] : snap.gauges) {
    std::snprintf(line, sizeof(line), "gauge     %-40s %.6g\n", name.c_str(), v);
    out += line;
  }
  for (const auto& h : snap.histograms) {
    std::snprintf(line, sizeof(line), "histogram %-40s count=%lld sum=%.6g mean=%.6g\n",
                  h.name.c_str(), static_cast<long long>(h.count), h.sum,
                  h.count > 0 ? h.sum / static_cast<double>(h.count) : 0.0);
    out += line;
  }
  return out;
}

void MetricsRegistry::reset() {
  Impl& i = impl();
  std::lock_guard<std::mutex> lock(i.mutex);
  for (auto& [name, c] : i.counters) c->reset();
  for (auto& [name, g] : i.gauges) g->reset();
  for (auto& [name, h] : i.histograms) h->reset();
}

}  // namespace syccl::obs
