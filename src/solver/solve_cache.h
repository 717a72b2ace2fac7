// Process-wide sub-demand solve cache (paper §5.3, extended across calls).
//
// The synthesizer already deduplicates isomorphic sub-demands *within* one
// synthesis, but size sweeps, the RS/AG phases of AllReduce and repeated
// `synthesize()` calls re-solve the same isomorphism classes from scratch.
// This cache memoises `solve_sub_demand` results process-wide, keyed on
// (SubDemand::canonical().key, SolveOptions fingerprint) — the fingerprint
// is E, so coarse and fine passes occupy distinct entries.
//
// Entries are stored in canonical piece order: keys are invariant under
// piece relabelling (the group's positional signature plus the pieces sorted
// by encoding), schedules get canonical piece ids on insert and the
// requesting demand's piece ids back on a hit. Members keep their local
// order, so a group with its slow link at another position keys apart
// instead of receiving a schedule with the slow link in the wrong place.
//
// Concurrency: the map is sharded by key hash, each shard behind its own
// mutex. In-flight solves are published as shared futures, so two threads
// (e.g. the concurrently synthesized RS and AG phases of an AllReduce)
// racing on the same class perform one solve — the loser blocks on the
// winner's future instead of duplicating work. Entries are LRU-evicted per
// shard once the shard exceeds its share of the byte budget.
#pragma once

#include <cstdint>
#include <future>
#include <mutex>
#include <string>
#include <unordered_map>

#include "solver/greedy.h"

namespace syccl::solver {

class SubScheduleCache {
 public:
  /// Resident state. Lookups and evictions are counted only in the metrics
  /// registry (solve_cache.hits/.misses/.evictions, process totals over
  /// every cache instance).
  struct Stats {
    std::size_t entries = 0;
    std::size_t bytes = 0;  ///< estimated resident bytes of ready entries
  };

  /// `max_bytes` bounds the estimated footprint (LRU eviction per shard).
  explicit SubScheduleCache(std::size_t max_bytes = kDefaultMaxBytes);

  SubScheduleCache(const SubScheduleCache&) = delete;
  SubScheduleCache& operator=(const SubScheduleCache&) = delete;

  /// The process-wide instance shared by every Synthesizer.
  static SubScheduleCache& instance();

  /// Deterministic digest of every option that can change a solve result.
  static std::string options_fingerprint(const SolveOptions& options);

  /// Returns the cached schedule for (demand, options), solving on a miss.
  /// `canon` is `demand.canonical()`, which the caller usually holds already
  /// (the synthesizer's class registry does). Concurrent misses on the same
  /// key solve once. `stats` (optional) reports the underlying solve; on a
  /// hit it is zeroed with `cache_hit = true`. If the solve throws, the entry
  /// is dropped and the exception propagates to every waiter.
  SubSchedule get_or_solve(const SubDemand& demand, const CanonicalDemand& canon,
                           const SolveOptions& options, SolveStats* stats = nullptr);

  /// Drops every ready entry (tests, topology changes). In-flight solves
  /// complete normally but are not re-inserted.
  void clear();

  Stats stats() const;
  std::size_t max_bytes() const { return max_bytes_; }

 private:
  static constexpr std::size_t kDefaultMaxBytes = 64ull << 20;
  static constexpr std::size_t kNumShards = 16;

  struct Entry {
    std::shared_future<SubSchedule> future;
    std::size_t bytes = 0;        ///< 0 while the solve is in flight
    std::uint64_t last_used = 0;  ///< shard tick for LRU
    bool ready = false;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::string, Entry> map;
    std::size_t bytes = 0;
    std::uint64_t tick = 0;
  };

  Shard& shard_for(const std::string& key);
  /// Evicts least-recently-used ready entries until the shard fits its
  /// budget. Caller holds the shard mutex.
  void evict_locked(Shard& shard);

  std::size_t max_bytes_;
  Shard shards_[kNumShards];
};

}  // namespace syccl::solver
