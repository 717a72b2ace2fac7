// Persistent on-disk schedule library — the repo's one schedule library,
// behind serve::Broker in syccl_serve or in process — crash-safe by
// construction.
//
// Layout under one directory:
//   <hex>.sched          one codec blob per entry (hex = fnv1a of the
//                        scenario key), written tmp → write → fsync →
//                        rename → parent-dir fsync, so a crash leaves either
//                        the old bytes or the new bytes, never a mix.
//   quarantine/          corrupt entry files are *moved* here on open, never
//                        deleted and never served — the request that wanted
//                        one falls back to synthesis while a human keeps the
//                        evidence. If the subdir cannot be created the file
//                        is renamed to <name>.quarantined in place instead.
// The entry files are the whole library: there is no index. Open makes one
// pass over the directory in file-name order, deleting *.tmp leftovers,
// loading or quarantining each *.sched file and leaving every other file
// alone (the snapshot and journal files older versions kept as an index are
// never read, and can be deleted by hand).
//
// Durability contract (pinned by the chaos suite, DESIGN.md §4i):
//   * put() returns only after the entry file is fsynced, renamed and its
//     directory fsynced, so no later crash loses an acknowledged entry. A
//     crash inside put() leaves the old entry or the whole new one, and at
//     worst a .tmp file that the next open deletes.
//   * A reopened library never serves bytes that fail the codec checksum or
//     whose key does not hash to their file name — such files quarantine.
//
// Entries are held decoded-size-accounted in memory (schedules are a few KB;
// the byte bound covers both memory and disk) with LRU eviction: evicting
// removes the file, and entries loaded at open start in file-name order.
// get() verifies the stored scenario key against the requested one, so an
// FNV collision reads as a miss, never a mis-serve. All public methods are
// thread-safe — broker connection threads and the synthesis pool hit the
// library concurrently.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "serve/codec.h"

namespace syccl::serve {

struct DiskLibraryConfig {
  std::string dir;
  /// Byte bound over encoded entries (LRU eviction).
  std::size_t max_bytes = 256ull << 20;
};

class DiskLibrary {
 public:
  /// What put() did — the broker uses this to count background upgrades.
  enum class PutResult {
    Inserted,            ///< new key
    Replaced,            ///< overwrote an entry of the same grade
    Upgraded,            ///< full-budget blob replaced a degraded one
    RejectedDowngrade,   ///< degraded blob refused: a full entry already exists
  };

  /// Opens (creating the directory if missing): loads every decodable entry
  /// file, quarantines corrupt ones and deletes stale *.tmp files. Never
  /// fatal on bad entries.
  explicit DiskLibrary(DiskLibraryConfig config);

  DiskLibrary(const DiskLibrary&) = delete;
  DiskLibrary& operator=(const DiskLibrary&) = delete;

  /// Returns the blob stored for `scenario_key`, or nullopt. An entry whose
  /// bytes no longer decode is dropped and quarantined, not served.
  std::optional<ScheduleBlob> get(const std::string& scenario_key);

  /// Inserts (or overwrites) the entry, persisting the entry file durably
  /// first. A degraded blob never overwrites a full one
  /// (RejectedDowngrade) — the background upgrade that follows a degraded
  /// serve must not be undone by a racing fallback. Throws
  /// std::runtime_error if the entry file cannot be written.
  PutResult put(const ScheduleBlob& blob);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t quarantined = 0;  ///< corrupt files moved aside
    /// Always 0: the library keeps no index whose writes could fail. Kept
    /// only because the benchmark's `library.journal_failures` reads it.
    std::uint64_t journal_failures = 0;
    std::uint64_t rejected_downgrades = 0;
    std::size_t entries = 0;
    std::size_t bytes = 0;  ///< encoded bytes of resident entries
  };
  Stats stats() const;

  const std::string& dir() const { return config_.dir; }
  std::size_t max_bytes() const { return config_.max_bytes; }

 private:
  struct Entry {
    std::string encoded;  ///< full codec blob (what the file holds)
    std::uint64_t last_used = 0;
    bool degraded = false;
  };

  void evict_locked();
  void quarantine_file(const std::string& file_name);
  std::string file_for(const std::string& scenario_key) const;

  DiskLibraryConfig config_;
  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;  ///< scenario key -> entry
  std::size_t bytes_ = 0;
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t quarantined_ = 0;
  std::uint64_t rejected_downgrades_ = 0;
};

}  // namespace syccl::serve
