#include "solver/solve_cache.h"

#include <sstream>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace syccl::solver {

namespace {

/// The cache's event counters. Hoisted: lookups sit on the parallel solve
/// path.
obs::Counter& hits_counter() {
  static obs::Counter& c = obs::MetricsRegistry::instance().counter("solve_cache.hits");
  return c;
}
obs::Counter& misses_counter() {
  static obs::Counter& c = obs::MetricsRegistry::instance().counter("solve_cache.misses");
  return c;
}
obs::Counter& evictions_counter() {
  static obs::Counter& c = obs::MetricsRegistry::instance().counter("solve_cache.evictions");
  return c;
}

}  // namespace

SubScheduleCache::SubScheduleCache(std::size_t max_bytes) : max_bytes_(max_bytes) {
  // Registered up front, so a snapshot lists a count that is still 0.
  hits_counter();
  misses_counter();
  evictions_counter();
}

SubScheduleCache& SubScheduleCache::instance() {
  static SubScheduleCache cache;
  return cache;
}

std::string SubScheduleCache::options_fingerprint(const SolveOptions& options) {
  // hexfloat keeps the digest exact; E changes the solved schedule via τ.
  std::ostringstream os;
  os << std::hexfloat << "E=" << options.E;
  return os.str();
}

void SubScheduleCache::evict_locked() {
  while (bytes_ > max_bytes_) {
    auto victim = map_.begin();
    for (auto it = map_.begin(); it != map_.end(); ++it) {
      if (it->second.last_used < victim->second.last_used) victim = it;
    }
    bytes_ -= victim->second.bytes;
    map_.erase(victim);
    evictions_counter().add(1);
  }
}

SubSchedule SubScheduleCache::get_or_solve(const SubDemand& demand, const CanonicalDemand& canon,
                                           const SolveOptions& options, SolveStats* stats) {
  SYCCL_TRACE_SPAN(span, "solve_cache.lookup", "cache");
  // Entries are stored with canonical piece ids (CanonicalDemand): the key
  // is invariant under piece relabelling, and hits get this demand's piece
  // ids back. A miss stores the canonicalised result, so any later demand
  // with the same key — e.g. another group of the same dimension listing
  // its pieces in rotated order — receives ops on the right pieces.
  std::string key = canon.key + '\n' + options_fingerprint(options);
  std::shared_ptr<const SubSchedule> stored;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = map_.find(key);
    if (it != map_.end()) {
      it->second.last_used = ++tick_;
      stored = it->second.schedule;
    }
  }
  if (stored) {
    hits_counter().add(1);
    span.annotate("hit", 1.0);
    if (stats != nullptr) {
      *stats = SolveStats{};
      stats->cache_hit = true;
    }
    return remap_sub_schedule(*stored, canon.from_canonical());
  }
  misses_counter().add(1);
  span.annotate("hit", 0.0);

  SubSchedule result = solve_sub_demand(demand, options, stats);
  Entry entry;
  entry.schedule =
      std::make_shared<const SubSchedule>(remap_sub_schedule(result, canon.to_canonical()));
  entry.bytes = key.size() + sizeof(Entry) + sizeof(SubSchedule) +
                result.ops.size() * sizeof(SubOp) + 64;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    entry.last_used = ++tick_;
    const std::size_t bytes = entry.bytes;
    if (map_.try_emplace(std::move(key), std::move(entry)).second) {
      bytes_ += bytes;
      evict_locked();
    }
  }

  // Resident-footprint gauges, on the miss path only.
  const Stats resident = this->stats();  // `stats` names the out-param here
  auto& reg = obs::MetricsRegistry::instance();
  static obs::Gauge& bytes_gauge = reg.gauge("solve_cache.bytes");
  static obs::Gauge& entries_gauge = reg.gauge("solve_cache.entries");
  bytes_gauge.set(static_cast<double>(resident.bytes));
  entries_gauge.set(static_cast<double>(resident.entries));
  return result;
}

void SubScheduleCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  map_.clear();
  bytes_ = 0;
  tick_ = 0;
}

SubScheduleCache::Stats SubScheduleCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {map_.size(), bytes_};
}

}  // namespace syccl::solver
