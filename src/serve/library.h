// Persistent on-disk schedule library — the repo's one schedule library,
// behind serve::Broker in syccl_serve or in process — crash-safe by
// construction.
//
// Layout under one directory:
//   <hex>.sched          one codec blob per entry (hex = fnv1a of the
//                        scenario key), written tmp → write → fsync →
//                        rename → parent-dir fsync, so a crash leaves either
//                        the old bytes or the new bytes, never a mix.
//   index.snapshot       full index ("entry <hex> <file>" lines), rewritten
//                        write-temp + fsync + atomic-rename — never
//                        truncated in place.
//   index.journal        fsynced "entry <hex> <file>" / "evict <hex>" lines
//                        appended since the last snapshot; truncated only
//                        *after* a snapshot lands.
//   index.txt            legacy (v1) append-only index; replayed once as a
//                        journal and removed after the first v2 snapshot.
//   quarantine/          corrupt entry files are *moved* here on open, never
//                        deleted and never served — the request that wanted
//                        one falls back to synthesis while a human keeps the
//                        evidence. If the subdir cannot be created the file
//                        is renamed to <name>.quarantined in place instead.
//
// Durability contract (pinned by the chaos suite, DESIGN.md §4i):
//   * put() returns only after the entry file is fsynced and renamed — a
//     crash at any later point (journal append, snapshot, eviction) loses
//     no acknowledged entry: recovery replays snapshot + journal, skips
//     torn/garbage lines, drops index lines whose file is missing, and
//     *adopts* decodable .sched files the index never heard of (the
//     crash-between-entry-rename-and-journal-append window).
//   * A reopened library never serves bytes that fail the codec checksum or
//     whose key does not hash to their file name — such files quarantine.
//   * Index writes are failpoint-instrumented (serve/failpoints.h); index
//     I/O failures degrade durability (counted in Stats.journal_failures),
//     never availability — put() keeps serving from memory.
//
// Entries are held decoded-size-accounted in memory (schedules are a few KB;
// the byte bound covers both memory and disk) with LRU eviction: evicting
// removes the file and journals an evict line. get() verifies the stored
// scenario key against the requested one, so an FNV collision reads as a
// miss, never a mis-serve. All public methods are thread-safe — broker
// connection threads and the synthesis pool hit the library concurrently.
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

  /// Opens (creating the directory if missing), replays snapshot + journal
  /// (+ legacy index.txt), adopts orphans, quarantines corruption, then
  /// compacts. Never fatal on bad entries or index damage.
  explicit DiskLibrary(DiskLibraryConfig config);
  ~DiskLibrary();

  DiskLibrary(const DiskLibrary&) = delete;
  DiskLibrary& operator=(const DiskLibrary&) = delete;

  /// Returns the blob stored for `scenario_key`, or nullopt. An entry whose
  /// bytes no longer decode is dropped and quarantined, not served.
  std::optional<ScheduleBlob> get(const std::string& scenario_key);

  /// Inserts (or overwrites) the entry, persisting the entry file durably
  /// first. A degraded blob never overwrites a full one
  /// (RejectedDowngrade) — the background upgrade that follows a degraded
  /// serve must not be undone by a racing fallback. Throws
  /// std::runtime_error if the entry *file* cannot be written; index
  /// failures only degrade durability (see header comment).
  PutResult put(const ScheduleBlob& blob);

  /// Compacts now: atomic snapshot rewrite, journal truncate. Called on
  /// graceful drain so a restart replays nothing. Returns false (after
  /// counting a journal failure) if the snapshot could not be written.
  bool flush();

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t quarantined = 0;  ///< corrupt files moved aside
    std::uint64_t orphans_adopted = 0;  ///< entry files recovered past a lost index line
    std::uint64_t journal_failures = 0;  ///< index writes that failed (durability, not availability)
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
  /// Snapshot + journal truncate. Throws on snapshot I/O failure.
  void compact_locked();
  /// Appends one index line to the fsynced journal. Failures are counted,
  /// never thrown — the entry files are the durable source of truth.
  void journal_locked(const std::string& line);
  void quarantine_file(const std::string& file_name);
  std::string file_for(const std::string& scenario_key) const;

  DiskLibraryConfig config_;
  mutable std::mutex mutex_;
  std::map<std::string, Entry> entries_;  ///< scenario key -> entry
  int journal_fd_ = -1;
  std::size_t journal_lines_ = 0;
  /// Last journal append died mid-line; the next one leads with '\n' so the
  /// torn tail damages at most itself.
  bool journal_dirty_tail_ = false;
  std::size_t bytes_ = 0;
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t quarantined_ = 0;
  std::uint64_t orphans_adopted_ = 0;
  std::uint64_t journal_failures_ = 0;
  std::uint64_t rejected_downgrades_ = 0;
};

}  // namespace syccl::serve
