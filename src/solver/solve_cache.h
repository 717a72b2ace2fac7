// Process-wide sub-demand solve cache (paper §5.3, extended across calls).
//
// The synthesizer deduplicates isomorphic sub-demands *within* one
// synthesis (AllReduce's two phases included: they rank one prefix), but
// size sweeps, faulty variants of a fabric and repeated `synthesize()`
// calls re-solve the same isomorphism classes from scratch. This cache
// memoises `solve_sub_demand` results process-wide, keyed on
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
// A plain memo: one map under one mutex, evicted least-recently-used against
// one byte budget. A miss solves outside the lock and stores its result only
// if the key is still absent, so concurrent misses on one key each solve and
// return the same schedule. clear() drops the stored entries; a solve
// running across it still stores its result when it finishes.
#pragma once

#include <cstdint>
#include <memory>
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
    std::size_t bytes = 0;  ///< estimated resident bytes
  };

  /// `max_bytes` bounds the estimated footprint (LRU eviction).
  explicit SubScheduleCache(std::size_t max_bytes = kDefaultMaxBytes);

  SubScheduleCache(const SubScheduleCache&) = delete;
  SubScheduleCache& operator=(const SubScheduleCache&) = delete;

  /// The process-wide instance shared by every Synthesizer.
  static SubScheduleCache& instance();

  /// Deterministic digest of every option that can change a solve result.
  static std::string options_fingerprint(const SolveOptions& options);

  /// Returns the cached schedule for (demand, options), solving on a miss.
  /// `canon` is `demand.canonical()`, which the caller usually holds already
  /// (the synthesizer's class registry does). `stats` (optional) reports the
  /// underlying solve; on a hit it is zeroed with `cache_hit = true`. A solve
  /// that throws stores nothing.
  SubSchedule get_or_solve(const SubDemand& demand, const CanonicalDemand& canon,
                           const SolveOptions& options, SolveStats* stats = nullptr);

  /// Drops every stored entry (tests, cold benchmarks).
  void clear();

  Stats stats() const;
  std::size_t max_bytes() const { return max_bytes_; }

 private:
  static constexpr std::size_t kDefaultMaxBytes = 64ull << 20;

  struct Entry {
    std::shared_ptr<const SubSchedule> schedule;  ///< canonical piece ids
    std::size_t bytes = 0;
    std::uint64_t last_used = 0;  ///< tick for LRU
  };

  /// Evicts least-recently-used entries until the cache fits its budget.
  /// Caller holds the mutex.
  void evict_locked();

  const std::size_t max_bytes_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, Entry> map_;
  std::size_t bytes_ = 0;
  std::uint64_t tick_ = 0;
};

}  // namespace syccl::solver
