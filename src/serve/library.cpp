#include "serve/library.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <system_error>
#include <vector>

#include "serve/canonical.h"
#include "util/failpoint.h"

namespace fs = std::filesystem;

namespace syccl::serve {

namespace {

/// Journal lines accumulated before the library compacts (snapshot +
/// journal truncate) on its own; opens and flush() always compact.
constexpr std::size_t kCompactEvery = 512;

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

/// write(2) loop with EINTR retry, failpoint-instrumented: `fp_name` in
/// torn:<N> mode persists N bytes then throws; crash:<N> persists N bytes,
/// fsyncs them (a real crash would leave what the kernel already had — we
/// force the torn prefix to disk so recovery faces the worst case), then
/// _exit()s; eintr:<K> storms the retry loop.
void write_fd_all(int fd, std::string_view data, const char* fp_name) {
  std::size_t limit = data.size();
  enum class After { None, Throw, Crash } after = After::None;
  std::size_t written = 0;
  for (;;) {
    if (const auto fp = util::failpoint(fp_name)) {  // Error mode throws here
      if (fp->mode == util::FailpointMode::Eintr) {
        errno = EINTR;  // simulated interrupted syscall; the loop must retry
        continue;
      }
      if (fp->mode == util::FailpointMode::TornWrite) {
        limit = std::min<std::size_t>(limit, fp->bytes);
        after = After::Throw;
      } else if (fp->mode == util::FailpointMode::Crash) {
        limit = std::min<std::size_t>(limit, fp->bytes);
        after = After::Crash;
      }
    }
    if (written >= limit) break;
    const ssize_t n = ::write(fd, data.data() + written, limit - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno("write failed");
    }
    written += static_cast<std::size_t>(n);
  }
  if (after == After::Crash) {
    ::fsync(fd);
    util::failpoint_crash();
  }
  if (after == After::Throw) {
    throw std::runtime_error(std::string("failpoint '") + fp_name + "' tore the write after " +
                             std::to_string(written) + " bytes");
  }
}

void fsync_fd(int fd, const char* what) {
  int rc;
  do {
    rc = ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) throw_errno(std::string("fsync failed (") + what + ")");
}

/// fsync of the directory containing `path`: what makes a rename into that
/// directory durable rather than merely ordered.
void fsync_parent_dir(const fs::path& path) {
  util::failpoint("serve.library.dir_fsync");
  const int fd = ::open(path.parent_path().c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) throw_errno("cannot open dir for fsync");
  try {
    fsync_fd(fd, "directory");
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
}

/// Durable atomic file replacement: tmp → write → fsync → rename → dir
/// fsync. A crash at any point leaves either the old file or the new file
/// (plus at worst a stale .tmp that the next open sweeps away).
void write_file_durable(const fs::path& path, std::string_view data, const char* fp_write,
                        const char* fp_rename) {
  const fs::path tmp = path.string() + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) throw_errno("cannot create " + tmp.string());
  try {
    write_fd_all(fd, data, fp_write);
    fsync_fd(fd, tmp.c_str());
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  ::close(fd);
  util::failpoint(fp_rename);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int saved = errno;
    ::unlink(tmp.c_str());
    errno = saved;
    throw_errno("cannot rename " + tmp.string());
  }
  fsync_parent_dir(path);
}

bool is_hex16(const std::string& s) {
  if (s.size() != 16) return false;
  for (char c : s) {
    if (!((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))) return false;
  }
  return true;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Replays one index file into `live` (hex -> file). Later lines win; evict
/// drops. Torn or garbage lines — a crash mid-append, bit rot, hand edits —
/// are skipped: the entry files are the source of truth and orphan adoption
/// recovers anything a lost line dropped.
void replay_index(const fs::path& path, std::map<std::string, std::string>& live) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string verb, hex, file, extra;
    if (!(ls >> verb >> hex)) continue;
    if (verb == "entry") {
      if (!(ls >> file) || (ls >> extra) || !is_hex16(hex) || file != hex + ".sched") continue;
      live[hex] = file;
    } else if (verb == "evict") {
      if ((ls >> extra) || !is_hex16(hex)) continue;
      live.erase(hex);
    }
    // anything else: skip
  }
}

}  // namespace

DiskLibrary::DiskLibrary(DiskLibraryConfig config) : config_(std::move(config)) {
  const fs::path dir(config_.dir);
  fs::create_directories(dir);

  // Recover the index: snapshot first, then the legacy v1 append-only
  // index.txt (only present before the first v2 snapshot), then the journal.
  std::map<std::string, std::string> live;  // key hex -> file name
  replay_index(dir / "index.snapshot", live);
  replay_index(dir / "index.txt", live);
  replay_index(dir / "index.journal", live);

  // Load every referenced entry eagerly so corruption is discovered (and
  // quarantined) at open, not mid-request. References whose file vanished
  // (crash between journal append and entry rename never happens — the
  // entry file is renamed first — but an evicted-then-crashed journal can
  // leave one) are dropped.
  std::set<std::string> accounted;
  for (const auto& [hex, file] : live) {
    accounted.insert(file);
    const fs::path entry_path = dir / file;
    std::error_code ec;
    if (!fs::exists(entry_path, ec)) continue;
    try {
      std::string encoded = read_file(entry_path);
      ScheduleBlob blob = decode_blob(encoded);  // validates magic + checksum
      if (fnv1a_hex(blob.scenario_key) != hex) {
        throw CodecError("entry file key does not match index");
      }
      bytes_ += encoded.size();
      entries_[blob.scenario_key] = Entry{std::move(encoded), ++tick_, blob.degraded};
    } catch (const std::exception&) {
      quarantine_file(file);
    }
  }

  // Orphan adoption + stale-tmp sweep: a decodable .sched file the index
  // never heard of is an acknowledged put() whose journal line was lost to
  // a crash — adopt it. Undecodable strays quarantine; .tmp leftovers from
  // interrupted atomic writes are deleted.
  for (const auto& dirent : fs::directory_iterator(dir)) {
    if (!dirent.is_regular_file()) continue;
    const std::string name = dirent.path().filename().string();
    if (ends_with(name, ".tmp")) {
      std::error_code ec;
      fs::remove(dirent.path(), ec);
      continue;
    }
    if (!ends_with(name, ".sched") || accounted.count(name) > 0) continue;
    try {
      std::string encoded = read_file(dirent.path());
      ScheduleBlob blob = decode_blob(encoded);
      if (name != fnv1a_hex(blob.scenario_key) + ".sched") {
        throw CodecError("orphan file name does not match its key");
      }
      if (entries_.count(blob.scenario_key) > 0) continue;  // FNV alias of a live entry
      bytes_ += encoded.size();
      entries_[blob.scenario_key] = Entry{std::move(encoded), ++tick_, blob.degraded};
      ++orphans_adopted_;
    } catch (const std::exception&) {
      quarantine_file(name);
    }
  }

  journal_fd_ = ::open((dir / "index.journal").c_str(),
                       O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);

  std::lock_guard<std::mutex> lock(mutex_);
  try {
    compact_locked();  // fresh snapshot; resets replay cost and evict buildup
  } catch (const std::exception&) {
    ++journal_failures_;  // degraded durability; the library still serves
  }
  evict_locked();
}

DiskLibrary::~DiskLibrary() {
  if (journal_fd_ >= 0) ::close(journal_fd_);
}

std::optional<ScheduleBlob> DiskLibrary::get(const std::string& scenario_key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(scenario_key);
  if (it == entries_.end()) {
    ++misses_;
    return std::nullopt;
  }
  it->second.last_used = ++tick_;
  ScheduleBlob blob;
  try {
    blob = decode_blob(it->second.encoded);
  } catch (const std::exception&) {
    // In-memory bytes that stopped decoding (memory corruption — or the
    // serve.codec.decode failpoint): drop the entry, keep the evidence,
    // report a miss so the request falls back to synthesis.
    const std::string file = file_for(scenario_key);
    bytes_ -= it->second.encoded.size();
    entries_.erase(it);
    quarantine_file(file);
    journal_locked("evict " + fnv1a_hex(scenario_key));
    ++misses_;
    return std::nullopt;
  }
  if (blob.scenario_key != scenario_key) {
    // FNV filename collision: a different key hashed to this slot. A miss,
    // never a mis-serve.
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return blob;
}

DiskLibrary::PutResult DiskLibrary::put(const ScheduleBlob& blob) {
  std::string encoded = encode_blob(blob);
  const fs::path dir(config_.dir);
  const std::string file = file_for(blob.scenario_key);

  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(blob.scenario_key);
  if (it != entries_.end() && blob.degraded && !it->second.degraded) {
    // Never replace a full-budget schedule with a deadline fallback: the
    // background upgrade must stick even when a racing fallback lands late.
    ++rejected_downgrades_;
    return PutResult::RejectedDowngrade;
  }

  // Entry file first — once this returns, the blob survives any crash (the
  // index may lose its line, but open() adopts orphans).
  write_file_durable(dir / file, encoded, "serve.library.entry_write",
                     "serve.library.entry_rename");

  PutResult result;
  if (it != entries_.end()) {
    result = (!blob.degraded && it->second.degraded) ? PutResult::Upgraded : PutResult::Replaced;
    bytes_ -= it->second.encoded.size();
    bytes_ += encoded.size();
    it->second = Entry{std::move(encoded), ++tick_, blob.degraded};
    // Same file name: the index already maps this key; no journal traffic.
  } else {
    result = PutResult::Inserted;
    bytes_ += encoded.size();
    entries_[blob.scenario_key] = Entry{std::move(encoded), ++tick_, blob.degraded};
    journal_locked("entry " + fnv1a_hex(blob.scenario_key) + ' ' + file);
  }
  evict_locked();
  return result;
}

bool DiskLibrary::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  try {
    compact_locked();
    return true;
  } catch (const std::exception&) {
    ++journal_failures_;
    return false;
  }
}

DiskLibrary::Stats DiskLibrary::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.quarantined = quarantined_;
  s.orphans_adopted = orphans_adopted_;
  s.journal_failures = journal_failures_;
  s.rejected_downgrades = rejected_downgrades_;
  s.entries = entries_.size();
  s.bytes = bytes_;
  return s;
}

void DiskLibrary::evict_locked() {
  const fs::path dir(config_.dir);
  while (bytes_ > config_.max_bytes && !entries_.empty()) {
    auto victim = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.last_used < victim->second.last_used) victim = it;
    }
    const std::string hex = fnv1a_hex(victim->first);
    std::error_code ec;
    fs::remove(dir / (hex + ".sched"), ec);
    journal_locked("evict " + hex);
    bytes_ -= victim->second.encoded.size();
    entries_.erase(victim);
    ++evictions_;
  }
  if (journal_lines_ >= kCompactEvery) {
    try {
      compact_locked();
    } catch (const std::exception&) {
      ++journal_failures_;
      journal_lines_ = 0;  // don't retry on every call; the next open compacts
    }
  }
}

void DiskLibrary::compact_locked() {
  const fs::path dir(config_.dir);
  std::ostringstream snapshot;
  for (const auto& [key, entry] : entries_) {
    const std::string hex = fnv1a_hex(key);
    snapshot << "entry " << hex << ' ' << hex << ".sched\n";
  }
  // Snapshot must land durably *before* the journal is truncated: a crash
  // between the two replays stale journal lines on top of the new snapshot,
  // which is idempotent (same mappings, evictions of absent keys).
  write_file_durable(dir / "index.snapshot", snapshot.str(), "serve.library.snapshot_write",
                     "serve.library.snapshot_rename");
  if (journal_fd_ >= 0) {
    if (::ftruncate(journal_fd_, 0) == 0) {
      fsync_fd(journal_fd_, "journal truncate");
    }
  }
  journal_lines_ = 0;
  journal_dirty_tail_ = false;
  std::error_code ec;
  fs::remove(dir / "index.txt", ec);  // legacy index is folded into the snapshot
}

void DiskLibrary::journal_locked(const std::string& line) {
  if (journal_fd_ < 0) {
    ++journal_failures_;
    return;
  }
  try {
    std::string data;
    if (journal_dirty_tail_) data += '\n';  // seal a torn tail; replay skips it
    data += line;
    data += '\n';
    journal_dirty_tail_ = true;  // cleared only when the full line landed
    write_fd_all(journal_fd_, data, "serve.library.journal_append");
    fsync_fd(journal_fd_, "journal");
    journal_dirty_tail_ = false;
    ++journal_lines_;
  } catch (const std::exception&) {
    // Lost index line, not a lost entry: the .sched file is durable and the
    // next open adopts it as an orphan. Availability is unaffected.
    ++journal_failures_;
  }
}

void DiskLibrary::quarantine_file(const std::string& file_name) {
  const fs::path dir(config_.dir);
  const fs::path path = dir / file_name;
  ++quarantined_;
  std::error_code ec;
  bool subdir_ok = true;
  try {
    util::failpoint("serve.library.quarantine");
  } catch (const util::FailpointError&) {
    subdir_ok = false;  // simulated mkdir failure
  }
  if (subdir_ok) {
    fs::create_directories(dir / "quarantine", ec);
    subdir_ok = !ec;
  }
  if (subdir_ok) {
    fs::rename(path, dir / "quarantine" / file_name, ec);
    if (!ec) return;
  }
  // No quarantine dir (e.g. a file squatting on the name): rename in place —
  // the suffix keeps it out of every index/orphan scan. If even that fails
  // the file stays put; it is excluded from entries_ either way.
  fs::rename(path, dir / (file_name + ".quarantined"), ec);
}

std::string DiskLibrary::file_for(const std::string& scenario_key) const {
  return fnv1a_hex(scenario_key) + ".sched";
}

}  // namespace syccl::serve
