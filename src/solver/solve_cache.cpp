#include "solver/solve_cache.h"

#include <functional>
#include <limits>
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

SubScheduleCache::SubScheduleCache(std::size_t max_bytes) : max_bytes_(max_bytes) {}

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

SubScheduleCache::Shard& SubScheduleCache::shard_for(const std::string& key) {
  return shards_[std::hash<std::string>{}(key) % kNumShards];
}

void SubScheduleCache::evict_locked(Shard& shard) {
  const std::size_t budget = max_bytes_ / kNumShards;
  while (shard.bytes > budget) {
    auto victim = shard.map.end();
    std::uint64_t oldest = std::numeric_limits<std::uint64_t>::max();
    for (auto it = shard.map.begin(); it != shard.map.end(); ++it) {
      if (it->second.ready && it->second.last_used < oldest) {
        oldest = it->second.last_used;
        victim = it;
      }
    }
    if (victim == shard.map.end()) return;  // only in-flight entries left
    shard.bytes -= victim->second.bytes;
    shard.map.erase(victim);
    evictions_counter().add(1);
  }
}

SubSchedule SubScheduleCache::get_or_solve(const SubDemand& demand, const CanonicalDemand& canon,
                                           const SolveOptions& options, SolveStats* stats) {
  SYCCL_TRACE_SPAN(span, "solve_cache.lookup", "cache");
  // Entries are stored with canonical piece ids (CanonicalDemand): the key
  // is invariant under piece relabelling, and hits get this demand's piece
  // ids back. A miss solves locally and publishes the canonicalised result,
  // so any later demand with the same key — e.g. another group of the same
  // dimension listing its pieces in rotated order — receives ops on the
  // right pieces.
  const std::string key = canon.key + '\n' + options_fingerprint(options);
  Shard& shard = shard_for(key);

  std::promise<SubSchedule> promise;
  {
    std::unique_lock<std::mutex> lock(shard.mutex);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      it->second.last_used = ++shard.tick;
      std::shared_future<SubSchedule> future = it->second.future;
      // get() outside the lock: an in-flight entry blocks until the solving
      // thread publishes, which never takes this shard's mutex first.
      lock.unlock();
      hits_counter().add(1);
      span.annotate("hit", 1.0);
      if (stats != nullptr) {
        *stats = SolveStats{};
        stats->cache_hit = true;
      }
      return remap_sub_schedule(future.get(), canon.from_canonical());
    }
    misses_counter().add(1);
    span.annotate("hit", 0.0);
    Entry entry;
    entry.future = promise.get_future().share();
    entry.last_used = ++shard.tick;
    shard.map.emplace(key, std::move(entry));
  }

  SubSchedule result;
  try {
    result = solve_sub_demand(demand, options, stats);
  } catch (...) {
    // Drop the placeholder so later calls retry, then fail every waiter.
    {
      std::lock_guard<std::mutex> lock(shard.mutex);
      shard.map.erase(key);
    }
    promise.set_exception(std::current_exception());
    throw;
  }
  promise.set_value(remap_sub_schedule(result, canon.to_canonical()));

  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {  // absent if clear() raced the solve
      it->second.ready = true;
      it->second.bytes = key.size() + sizeof(Entry) + sizeof(SubSchedule) +
                         result.ops.size() * sizeof(SubOp) + 64;
      shard.bytes += it->second.bytes;
      evict_locked(shard);
    }
  }

  // Resident-footprint gauges. Only on the miss path, where the preceding
  // solve dwarfs the 16-shard stats() walk.
  {
    const Stats s = this->stats();  // `stats` names the out-param here
    auto& reg = obs::MetricsRegistry::instance();
    static obs::Gauge& bytes_gauge = reg.gauge("solve_cache.bytes");
    static obs::Gauge& entries_gauge = reg.gauge("solve_cache.entries");
    bytes_gauge.set(static_cast<double>(s.bytes));
    entries_gauge.set(static_cast<double>(s.entries));
  }
  return result;
}

void SubScheduleCache::clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    // Keep in-flight entries: their solving threads still expect to find and
    // finalise them; dropping ready ones is enough to release the bytes.
    for (auto it = shard.map.begin(); it != shard.map.end();) {
      it = it->second.ready ? shard.map.erase(it) : std::next(it);
    }
    shard.bytes = 0;
    shard.tick = 0;
  }
}

SubScheduleCache::Stats SubScheduleCache::stats() const {
  Stats out;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    out.entries += shard.map.size();
    out.bytes += shard.bytes;
  }
  return out;
}

}  // namespace syccl::solver
