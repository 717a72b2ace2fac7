#include "serve/library.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <vector>

#include "serve/canonical.h"
#include "util/failpoint.h"

namespace fs = std::filesystem;

namespace syccl::serve {

namespace {

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
void write_file_durable(const fs::path& path, std::string_view data) {
  const fs::path tmp = path.string() + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) throw_errno("cannot create " + tmp.string());
  try {
    write_fd_all(fd, data, "serve.library.entry_write");
    fsync_fd(fd, tmp.c_str());
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  ::close(fd);
  try {
    util::failpoint("serve.library.entry_rename");  // error = the rename fails
    if (::rename(tmp.c_str(), path.c_str()) != 0) throw_errno("cannot rename " + tmp.string());
  } catch (...) {
    ::unlink(tmp.c_str());
    throw;
  }
  fsync_parent_dir(path);
}

}  // namespace

DiskLibrary::DiskLibrary(DiskLibraryConfig config) : config_(std::move(config)) {
  const fs::path dir(config_.dir);
  fs::create_directories(dir);

  // One pass in file-name order, so the LRU ticks given at open do not
  // depend on the order the file system lists the directory. Entries load
  // eagerly so corruption is discovered (and quarantined) at open, not
  // mid-request; .tmp leftovers of interrupted writes are deleted.
  std::vector<fs::path> files;
  for (const auto& dirent : fs::directory_iterator(dir)) {
    if (dirent.is_regular_file()) files.push_back(dirent.path());
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& path : files) {
    const std::string name = path.filename().string();
    if (name.ends_with(".tmp")) {
      std::error_code ec;
      fs::remove(path, ec);
      continue;
    }
    if (!name.ends_with(".sched")) continue;
    try {
      std::string encoded = read_file(path);
      ScheduleBlob blob = decode_blob(encoded);  // validates magic + checksum
      if (name != file_for(blob.scenario_key)) {
        throw CodecError("entry file name does not match its key");
      }
      bytes_ += encoded.size();
      entries_[blob.scenario_key] = Entry{std::move(encoded), ++tick_, blob.degraded};
    } catch (const std::exception&) {
      quarantine_file(name);
    }
  }

  std::lock_guard<std::mutex> lock(mutex_);
  evict_locked();
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

  // Entry file first — once this returns, the blob survives any crash.
  write_file_durable(dir / file, encoded);

  PutResult result;
  if (it != entries_.end()) {
    result = (!blob.degraded && it->second.degraded) ? PutResult::Upgraded : PutResult::Replaced;
    bytes_ -= it->second.encoded.size();
    bytes_ += encoded.size();
    it->second = Entry{std::move(encoded), ++tick_, blob.degraded};
  } else {
    result = PutResult::Inserted;
    bytes_ += encoded.size();
    entries_[blob.scenario_key] = Entry{std::move(encoded), ++tick_, blob.degraded};
  }
  evict_locked();
  return result;
}

DiskLibrary::Stats DiskLibrary::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.quarantined = quarantined_;
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
    std::error_code ec;
    fs::remove(dir / file_for(victim->first), ec);
    bytes_ -= victim->second.encoded.size();
    entries_.erase(victim);
    ++evictions_;
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
  // the suffix keeps it out of the scan at open. If even that fails
  // the file stays put; it is excluded from entries_ either way.
  fs::rename(path, dir / (file_name + ".quarantined"), ec);
}

std::string DiskLibrary::file_for(const std::string& scenario_key) const {
  return fnv1a_hex(scenario_key) + ".sched";
}

}  // namespace syccl::serve
