// Chaos suite for the schedule-compiler service (DESIGN.md §4i): every
// registered serve failpoint (serve/failpoints.h) fired end-to-end, the
// library's crash-safety contract proven by killing forked children mid-
// write, torn-write and damaged-directory recovery, the deadline → degraded →
// background-upgrade state machine, and the hardened transport (EINTR
// storms, SIGPIPE-proof sends, idle timeouts, drain).
//
// Crash tests fork(): the child arms a crash-mode failpoint, performs the
// I/O, and _exit(kFailpointCrashExit)s at the armed site — a reproducible
// kill -9. The parent reopens the library and asserts nothing acknowledged
// was lost and nothing corrupt is served. Fork is safe here because these
// tests spawn no threads before forking.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "counting_test.h"
#include "obs/scenario.h"
#include "serve/broker.h"
#include "serve/canonical.h"
#include "serve/codec.h"
#include "serve/failpoints.h"
#include "serve/library.h"
#include "serve/protocol.h"
#include "serve/socket.h"
#include "sim/schedule.h"
#include "util/failpoint.h"

namespace syccl::serve {
namespace {

namespace fs = std::filesystem;

struct RegistryGuard {
  RegistryGuard() { util::Failpoints::instance().clear(); }
  ~RegistryGuard() { util::Failpoints::instance().clear(); }
};

std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("syccl_chaos_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

ScheduleBlob sample_blob(const std::string& key_suffix = "") {
  ScheduleBlob blob;
  blob.scenario_key = "syccl-serve/chaos|ranks=3|coll=Reduce|bucket=1024" + key_suffix;
  blob.num_ranks = 3;
  blob.bucket_bytes = 1024;
  blob.predicted_time = 1.0 / 3.0;
  blob.schedule.name = "chaos-sample";
  blob.schedule.pieces = sim::pieces_for(coll::make_reduce(3, 3000, 0));
  blob.schedule.add_op(0, 1, 0, 0, 0);
  blob.schedule.add_op(0, 2, 0, 1, 1);
  return blob;
}

ServeRequest flat4_request(std::uint64_t bytes = 1 << 20) {
  ServeRequest request;
  request.topology = obs::build_scenario_topology("flat4");
  request.kind = coll::CollKind::AllGather;
  request.total_bytes = bytes;
  return request;
}

/// Runs `body` in a forked child and returns its wait status. The child
/// leaves only via _exit (a crash failpoint, or the fallback exit code when
/// the armed site unexpectedly survives).
int run_in_child(const std::function<void()>& body) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    body();
    ::_exit(99);  // the armed failpoint should have crashed before this
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  return status;
}

bool crashed_at_failpoint(int status) {
  return WIFEXITED(status) && WEXITSTATUS(status) == util::kFailpointCrashExit;
}

/// The entry file the library keeps for `scenario_key`.
fs::path entry_path(const std::string& dir, const std::string& scenario_key) {
  return fs::path(dir) / (fnv1a_hex(scenario_key) + ".sched");
}

/// Overwrites two bytes mid-file, so the codec checksum no longer matches.
void corrupt_middle(const fs::path& file) {
  std::fstream f(file, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(static_cast<std::streamoff>(fs::file_size(file) / 2));
  f.put('\xff');
  f.put('\xff');
}

std::string file_bytes(const fs::path& file) {
  std::ifstream in(file, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
}

/// Names of the directory's immediate children, files and subdirectories.
std::set<std::string> file_names(const std::string& dir) {
  std::set<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.insert(entry.path().filename().string());
  }
  return names;
}

// --------------------------------------------------------- crash recovery

TEST(ServeChaos, CrashMidEntryWriteLosesNoAcknowledgedEntry) {
  RegistryGuard guard;
  const std::string dir = scratch_dir("crash_entry");
  const ScheduleBlob a = sample_blob("|a");
  const ScheduleBlob b = sample_blob("|b");

  const int status = run_in_child([&] {
    DiskLibrary library({dir});
    library.put(a);  // acknowledged before the fault arms
    util::Failpoints::instance().enable("serve.library.entry_write", "crash:10");
    library.put(b);  // _exit(42) after 10 bytes of b's entry file hit disk
  });
  ASSERT_TRUE(crashed_at_failpoint(status)) << "status " << status;

  DiskLibrary reopened({dir});
  const auto got = reopened.get(a.scenario_key);
  ASSERT_TRUE(got.has_value()) << "acknowledged entry lost in crash";
  EXPECT_EQ(encode_blob(*got), encode_blob(a));  // byte-exact, not just present
  // b was never acknowledged: a miss is correct, a torn serve would not be.
  EXPECT_FALSE(reopened.get(b.scenario_key).has_value());
  EXPECT_EQ(reopened.stats().quarantined, 0u);  // the torn .tmp was swept, not loaded
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_FALSE(entry.path().extension() == ".tmp") << entry.path();
  }
}

TEST(ServeChaos, CrashBeforeEntryRenameLeavesNoEntry) {
  RegistryGuard guard;
  const std::string dir = scratch_dir("crash_entry_rename");
  const ScheduleBlob a = sample_blob("|a");
  const ScheduleBlob b = sample_blob("|b");

  const int status = run_in_child([&] {
    DiskLibrary library({dir});
    library.put(a);
    // Crash once b's .tmp file is whole and fsynced, before the rename
    // that would make it an entry.
    util::Failpoints::instance().enable("serve.library.entry_rename", "crash");
    library.put(b);
  });
  ASSERT_TRUE(crashed_at_failpoint(status)) << "status " << status;
  ASSERT_TRUE(fs::exists(entry_path(dir, b.scenario_key).string() + ".tmp"));

  DiskLibrary reopened({dir});
  const auto got = reopened.get(a.scenario_key);
  ASSERT_TRUE(got.has_value()) << "acknowledged entry lost in crash";
  EXPECT_EQ(encode_blob(*got), encode_blob(a));
  // The .tmp decodes, but only the rename makes an entry: it is deleted.
  EXPECT_FALSE(reopened.get(b.scenario_key).has_value());
  EXPECT_EQ(reopened.stats().quarantined, 0u);
  EXPECT_EQ(file_names(dir), std::set<std::string>{fnv1a_hex(a.scenario_key) + ".sched"});
}

TEST(ServeChaos, CrashAfterEntryRenameLeavesAWholeEntry) {
  RegistryGuard guard;
  const std::string dir = scratch_dir("crash_dir_fsync");
  const ScheduleBlob a = sample_blob("|a");
  const ScheduleBlob b = sample_blob("|b");

  const int status = run_in_child([&] {
    DiskLibrary library({dir});
    library.put(a);
    // Crash after b's entry file is fsynced and renamed, before the
    // directory fsync that would make the rename durable.
    util::Failpoints::instance().enable("serve.library.dir_fsync", "crash");
    library.put(b);
  });
  ASSERT_TRUE(crashed_at_failpoint(status)) << "status " << status;

  DiskLibrary reopened({dir});
  const auto got_a = reopened.get(a.scenario_key);
  ASSERT_TRUE(got_a.has_value()) << "acknowledged entry lost in crash";
  EXPECT_EQ(encode_blob(*got_a), encode_blob(a));
  // b was never acknowledged: served whole or not at all.
  if (const auto got_b = reopened.get(b.scenario_key)) {
    EXPECT_EQ(encode_blob(*got_b), encode_blob(b));
  }
  EXPECT_EQ(reopened.stats().quarantined, 0u);
}

TEST(ServeChaos, CrashMidEntryOverwriteKeepsTheOldVersion) {
  RegistryGuard guard;
  const std::string dir = scratch_dir("crash_overwrite");
  const ScheduleBlob a = sample_blob("|a");
  ScheduleBlob a2 = a;
  a2.predicted_time = 9.0;

  const int status = run_in_child([&] {
    DiskLibrary library({dir});
    library.put(a);
    util::Failpoints::instance().enable("serve.library.entry_write", "crash:10");
    library.put(a2);  // same key: the crash lands in the replacement's .tmp
  });
  ASSERT_TRUE(crashed_at_failpoint(status)) << "status " << status;

  DiskLibrary reopened({dir});
  const auto got = reopened.get(a.scenario_key);
  ASSERT_TRUE(got.has_value()) << "acknowledged version lost in crash";
  EXPECT_EQ(encode_blob(*got), encode_blob(a));
  EXPECT_EQ(reopened.stats().quarantined, 0u);
  EXPECT_EQ(file_names(dir), std::set<std::string>{fnv1a_hex(a.scenario_key) + ".sched"});
}

// ------------------------------------------------------------- torn writes

TEST(ServeChaos, TornEntryOverwriteKeepsTheOldVersionServable) {
  RegistryGuard guard;
  const std::string dir = scratch_dir("torn_entry");
  DiskLibrary library({dir});
  const ScheduleBlob a = sample_blob("|a");
  ASSERT_EQ(library.put(a), DiskLibrary::PutResult::Inserted);

  ScheduleBlob a2 = a;
  a2.predicted_time = 9.0;
  util::Failpoints::instance().enable("serve.library.entry_write", "torn:8");
  EXPECT_THROW(library.put(a2), std::runtime_error);
  util::Failpoints::instance().clear();

  // The overwrite tore in the .tmp file; the real entry was never touched.
  const auto got = library.get(a.scenario_key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->predicted_time, a.predicted_time);

  DiskLibrary reopened({dir});
  const auto persisted = reopened.get(a.scenario_key);
  ASSERT_TRUE(persisted.has_value());
  EXPECT_EQ(encode_blob(*persisted), encode_blob(a));
}

TEST(ServeChaos, PutThatFailsBeforeTheRenameLeavesNoFileBehind) {
  RegistryGuard guard;
  const std::string dir = scratch_dir("failed_put");
  DiskLibrary library({dir});
  const ScheduleBlob a = sample_blob("|a");
  library.put(a);
  const std::set<std::string> before = file_names(dir);

  for (const char* site : {"serve.library.entry_write", "serve.library.entry_rename"}) {
    const ScheduleBlob b = sample_blob(std::string("|b|") + site);
    util::Failpoints::instance().enable(site, "error");
    EXPECT_THROW(library.put(b), std::runtime_error) << site;
    util::Failpoints::instance().clear();
    // Not acknowledged, so not served, and its .tmp is unlinked at once.
    EXPECT_FALSE(library.get(b.scenario_key).has_value()) << site;
    EXPECT_EQ(file_names(dir), before) << site;
  }
  EXPECT_EQ(library.stats().entries, 1u);
  EXPECT_EQ(library.stats().bytes, encode_blob(a).size());
}

// ------------------------------------------------------- recovery at open

TEST(ServeRecovery, IndexFilesOfOlderLibrariesAreIgnored) {
  RegistryGuard guard;
  const std::string dir = scratch_dir("old_index");
  const ScheduleBlob a = sample_blob("|a");
  const ScheduleBlob b = sample_blob("|b");
  const std::string hex_a = fnv1a_hex(a.scenario_key);
  const std::string hex_b = fnv1a_hex(b.scenario_key);
  {
    DiskLibrary library({dir});
    library.put(a);
    library.put(b);
  }
  // What older libraries kept beside the entry files: a snapshot, a journal
  // (here damaged, and evicting a) and a v1 index.
  const std::map<std::string, std::string> index_files = {
      {"index.snapshot", "entry " + hex_a + ' ' + hex_a + ".sched\nentry " + hex_b + ' ' +
                             hex_b + ".sched\n"},
      {"index.journal", "entr\nentry\nentry nothex notafile\nentry 0123456789abcdef\n"
                        "\x01\x02\x03\nevict\n"
                        "entry 0123456789abcdef 0123456789abcdef.sched extra\n"
                        "evict " + hex_a + "\nentry 0123"},
      {"index.txt", "entry " + hex_a + ' ' + hex_a + ".sched\n"},
  };
  for (const auto& [name, content] : index_files) {
    std::ofstream out(fs::path(dir) / name, std::ios::binary);
    out << content;
  }

  DiskLibrary reopened({dir});
  EXPECT_EQ(reopened.stats().entries, 2u);
  for (const ScheduleBlob* blob : {&a, &b}) {
    const auto got = reopened.get(blob->scenario_key);
    ASSERT_TRUE(got.has_value()) << blob->scenario_key;
    EXPECT_EQ(encode_blob(*got), encode_blob(*blob));
  }
  for (const auto& [name, content] : index_files) {
    EXPECT_EQ(file_bytes(fs::path(dir) / name), content) << name << " was rewritten";
  }
}

TEST(ServeRecovery, DeletedEntryFileIsACleanMiss) {
  RegistryGuard guard;
  const std::string dir = scratch_dir("missing_file");
  const ScheduleBlob a = sample_blob("|a");
  {
    DiskLibrary library({dir});
    library.put(a);
  }
  fs::remove(entry_path(dir, a.scenario_key));

  DiskLibrary reopened({dir});
  EXPECT_EQ(reopened.stats().entries, 0u);
  EXPECT_FALSE(reopened.get(a.scenario_key).has_value());  // a clean miss
}

TEST(ServeRecovery, EntryFilesAloneRestoreTheLibrary) {
  RegistryGuard guard;
  const std::string dir = scratch_dir("entry_files_only");
  const ScheduleBlob a = sample_blob("|a");
  const ScheduleBlob b = sample_blob("|b");
  const std::set<std::string> want = {fnv1a_hex(a.scenario_key) + ".sched",
                                      fnv1a_hex(b.scenario_key) + ".sched"};
  {
    DiskLibrary library({dir});
    library.put(a);
    library.put(b);
  }
  EXPECT_EQ(file_names(dir), want);

  DiskLibrary reopened({dir});
  EXPECT_EQ(reopened.stats().entries, 2u);
  for (const ScheduleBlob* blob : {&a, &b}) {
    const auto got = reopened.get(blob->scenario_key);
    ASSERT_TRUE(got.has_value()) << blob->scenario_key;
    EXPECT_EQ(encode_blob(*got), encode_blob(*blob));
  }
  EXPECT_EQ(file_names(dir), want);  // opening a healthy library writes nothing
}

TEST(ServeRecovery, OpeningAHealthyLibraryWritesNothing) {
  RegistryGuard guard;
  const std::string dir = scratch_dir("open_writes_nothing");
  const ScheduleBlob a = sample_blob("|a");
  const ScheduleBlob b = sample_blob("|b");
  {
    DiskLibrary library({dir});
    library.put(a);
    library.put(b);
  }
  std::map<std::string, std::string> before;
  for (const std::string& name : file_names(dir)) before[name] = file_bytes(fs::path(dir) / name);

  // Every site that writes to the directory fails if reached.
  const std::vector<std::string> write_sites = {
      "serve.library.entry_write", "serve.library.entry_rename", "serve.library.dir_fsync",
      "serve.library.quarantine"};
  std::map<std::string, std::uint64_t> hits_before;
  for (const std::string& site : write_sites) {
    hits_before[site] = util::Failpoints::instance().hits(site);
    util::Failpoints::instance().enable(site, "error");
  }
  DiskLibrary reopened({dir});
  for (const std::string& site : write_sites) {
    EXPECT_EQ(util::Failpoints::instance().hits(site), hits_before[site]) << site;
  }
  util::Failpoints::instance().clear();

  EXPECT_EQ(reopened.stats().entries, 2u);
  EXPECT_EQ(reopened.stats().quarantined, 0u);
  std::map<std::string, std::string> after;
  for (const std::string& name : file_names(dir)) after[name] = file_bytes(fs::path(dir) / name);
  EXPECT_EQ(after, before);
}

TEST(ServeRecovery, ReopenLoadsEntriesInFileNameOrder) {
  RegistryGuard guard;
  const std::string dir = scratch_dir("open_order");
  std::vector<ScheduleBlob> blobs = {sample_blob("|a"), sample_blob("|b"), sample_blob("|c")};
  // Put in descending file-name order, so the entry put first (the least
  // recently used before the reopen) is not the one with the smallest name.
  std::sort(blobs.begin(), blobs.end(), [](const ScheduleBlob& x, const ScheduleBlob& y) {
    return fnv1a_hex(x.scenario_key) > fnv1a_hex(y.scenario_key);
  });
  const std::size_t size = encode_blob(blobs[0]).size();
  {
    DiskLibrary library({dir});
    for (const ScheduleBlob& blob : blobs) {
      ASSERT_EQ(encode_blob(blob).size(), size);
      library.put(blob);
    }
  }

  DiskLibrary reopened({dir, 2 * size});
  EXPECT_EQ(reopened.stats().evictions, 1u);
  const ScheduleBlob& smallest = blobs.back();
  EXPECT_FALSE(reopened.get(smallest.scenario_key).has_value());
  EXPECT_FALSE(fs::exists(entry_path(dir, smallest.scenario_key)));
  EXPECT_TRUE(reopened.get(blobs[0].scenario_key).has_value());
  EXPECT_TRUE(reopened.get(blobs[1].scenario_key).has_value());
}

TEST(ServeRecovery, UndecodableStrayFileIsQuarantinedNotAdopted) {
  RegistryGuard guard;
  const std::string dir = scratch_dir("stray");
  const ScheduleBlob a = sample_blob("|a");
  {
    DiskLibrary library({dir});
    library.put(a);
  }
  {
    std::ofstream junk(fs::path(dir) / "deadbeefdeadbeef.sched", std::ios::binary);
    junk << "this is not a schedule blob";
  }

  DiskLibrary reopened({dir});
  EXPECT_EQ(reopened.stats().entries, 1u);
  EXPECT_EQ(reopened.stats().quarantined, 1u);
  EXPECT_TRUE(reopened.get(a.scenario_key).has_value());
  EXPECT_TRUE(fs::exists(fs::path(dir) / "quarantine" / "deadbeefdeadbeef.sched"));
}

TEST(ServeRecovery, EntryFileUnderAnotherKeysNameIsQuarantined) {
  RegistryGuard guard;
  const std::string dir = scratch_dir("misnamed");
  const ScheduleBlob a = sample_blob("|a");
  {
    DiskLibrary library({dir});
    library.put(a);
  }
  // A whole, decodable blob whose key does not hash to its file name.
  const std::string misnamed = "0123456789abcdef.sched";
  ASSERT_NE(misnamed, fnv1a_hex(a.scenario_key) + ".sched");
  fs::copy_file(entry_path(dir, a.scenario_key), fs::path(dir) / misnamed);

  DiskLibrary reopened({dir});
  EXPECT_EQ(reopened.stats().entries, 1u);
  EXPECT_EQ(reopened.stats().quarantined, 1u);
  const auto got = reopened.get(a.scenario_key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(encode_blob(*got), encode_blob(a));
  EXPECT_FALSE(fs::exists(fs::path(dir) / misnamed));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "quarantine" / misnamed));
}

TEST(ServeRecovery, FilesThatAreNotEntriesAreLeftAlone) {
  RegistryGuard guard;
  const std::string dir = scratch_dir("other_files");
  const ScheduleBlob a = sample_blob("|a");
  {
    DiskLibrary library({dir});
    library.put(a);
  }
  // Neither *.sched nor *.tmp: not loaded, not quarantined, not touched.
  const std::string entry_copy = file_bytes(entry_path(dir, a.scenario_key));
  const std::map<std::string, std::string> others = {
      {"README", "operator notes\n"},
      {"0123456789abcdef.sched.bak", entry_copy},
      {"0123456789abcdef.sched.quarantined", "corrupt evidence"},
  };
  for (const auto& [name, content] : others) {
    std::ofstream out(fs::path(dir) / name, std::ios::binary);
    out << content;
  }
  // A directory is not an entry even when its name looks like one.
  fs::create_directories(fs::path(dir) / "fedcba9876543210.sched");

  DiskLibrary reopened({dir});
  EXPECT_EQ(reopened.stats().entries, 1u);
  EXPECT_EQ(reopened.stats().quarantined, 0u);
  EXPECT_TRUE(reopened.get(a.scenario_key).has_value());
  for (const auto& [name, content] : others) {
    EXPECT_EQ(file_bytes(fs::path(dir) / name), content) << name;
  }
  EXPECT_TRUE(fs::is_directory(fs::path(dir) / "fedcba9876543210.sched"));
  EXPECT_FALSE(fs::exists(fs::path(dir) / "quarantine"));
}

TEST(ServeRecovery, QuarantineSubdirFailureFallsBackToInPlaceRename) {
  RegistryGuard guard;
  const std::string dir = scratch_dir("quarantine_fail");
  const ScheduleBlob a = sample_blob("|a");
  const ScheduleBlob b = sample_blob("|b");
  {
    DiskLibrary library({dir});
    library.put(a);
    library.put(b);
  }
  corrupt_middle(entry_path(dir, a.scenario_key));

  util::Failpoints::instance().enable("serve.library.quarantine", "error");
  DiskLibrary reopened({dir});  // must open and keep serving regardless
  util::Failpoints::instance().clear();
  EXPECT_EQ(reopened.stats().entries, 1u);
  EXPECT_EQ(reopened.stats().quarantined, 1u);
  EXPECT_FALSE(reopened.get(a.scenario_key).has_value());
  EXPECT_TRUE(reopened.get(b.scenario_key).has_value());
  // No quarantine/ subdir: the corrupt file was renamed aside in place.
  EXPECT_TRUE(fs::exists(fs::path(dir) / (fnv1a_hex(a.scenario_key) + ".sched.quarantined")));
}

TEST(ServeRecovery, QuarantinedFilesStayOutOfLaterOpens) {
  RegistryGuard guard;
  const std::string dir = scratch_dir("quarantine_reopen");
  const ScheduleBlob a = sample_blob("|a");
  const ScheduleBlob b = sample_blob("|b");
  const ScheduleBlob c = sample_blob("|c");
  {
    DiskLibrary library({dir});
    library.put(a);
    library.put(b);
    library.put(c);
  }
  // a goes to quarantine/, b (the subdir failing) to <name>.quarantined.
  corrupt_middle(entry_path(dir, a.scenario_key));
  { DiskLibrary library({dir}); }
  corrupt_middle(entry_path(dir, b.scenario_key));
  util::Failpoints::instance().enable("serve.library.quarantine", "error");
  { DiskLibrary library({dir}); }
  util::Failpoints::instance().clear();
  const fs::path kept_a = fs::path(dir) / "quarantine" / (fnv1a_hex(a.scenario_key) + ".sched");
  const fs::path kept_b = entry_path(dir, b.scenario_key).string() + ".quarantined";
  const std::string evidence_a = file_bytes(kept_a);
  const std::string evidence_b = file_bytes(kept_b);
  ASSERT_FALSE(evidence_a.empty());
  ASSERT_FALSE(evidence_b.empty());

  DiskLibrary reopened({dir});
  EXPECT_EQ(reopened.stats().entries, 1u);
  EXPECT_EQ(reopened.stats().quarantined, 0u);  // nothing is quarantined twice
  EXPECT_FALSE(reopened.get(a.scenario_key).has_value());
  EXPECT_FALSE(reopened.get(b.scenario_key).has_value());
  EXPECT_TRUE(reopened.get(c.scenario_key).has_value());
  EXPECT_EQ(file_bytes(kept_a), evidence_a);  // the evidence is kept as it was
  EXPECT_EQ(file_bytes(kept_b), evidence_b);
}

TEST(ServeRecovery, InMemoryEntryThatStopsDecodingIsQuarantinedOnGet) {
  RegistryGuard guard;
  const std::string dir = scratch_dir("decode_get");
  DiskLibrary library({dir});
  const ScheduleBlob a = sample_blob("|a");
  library.put(a);
  ASSERT_TRUE(library.get(a.scenario_key).has_value());

  util::Failpoints::instance().enable("serve.codec.decode", "error");
  EXPECT_FALSE(library.get(a.scenario_key).has_value());  // a miss, never a throw
  util::Failpoints::instance().clear();
  // The entry was dropped and its file moved aside — still gone after disarm.
  EXPECT_FALSE(library.get(a.scenario_key).has_value());
  EXPECT_EQ(library.stats().quarantined, 1u);
}

TEST(ServeRecovery, DegradedBlobNeverOverwritesAFullEntry) {
  RegistryGuard guard;
  const std::string dir = scratch_dir("downgrade");
  DiskLibrary library({dir});

  ScheduleBlob full = sample_blob("|x");
  ASSERT_EQ(library.put(full), DiskLibrary::PutResult::Inserted);
  ScheduleBlob degraded = full;
  degraded.degraded = true;
  degraded.predicted_time = 99.0;
  EXPECT_EQ(library.put(degraded), DiskLibrary::PutResult::RejectedDowngrade);
  EXPECT_EQ(library.get(full.scenario_key)->predicted_time, full.predicted_time);
  EXPECT_EQ(library.stats().rejected_downgrades, 1u);

  // The other direction is the whole point: degraded then full = Upgraded.
  ScheduleBlob d2 = sample_blob("|y");
  d2.degraded = true;
  EXPECT_EQ(library.put(d2), DiskLibrary::PutResult::Inserted);
  ScheduleBlob f2 = sample_blob("|y");
  EXPECT_EQ(library.put(f2), DiskLibrary::PutResult::Upgraded);
  EXPECT_FALSE(library.get(f2.scenario_key)->degraded);
  // Same grade overwrites are plain replacements.
  EXPECT_EQ(library.put(f2), DiskLibrary::PutResult::Replaced);
}

// ------------------------------------------------- deadlines & degradation

class ServeDeadline : public CountingTest {};

TEST_F(ServeDeadline, ExpiredDeadlineServesVerifiedDegradedFallback) {
  RegistryGuard guard;
  DiskLibrary library({scratch_dir("deadline_expire")});
  Broker broker(library);

  ServeRequest request = flat4_request();
  request.deadline_seconds = 1e-6;  // expires before any synthesis can land
  const ServeResponse response = broker.handle(request);
  EXPECT_TRUE(response.degraded);
  EXPECT_FALSE(response.hit);
  // Degraded ≠ sloppy: the fallback went through the same validator and
  // simulator as any served schedule.
  EXPECT_GT(response.predicted_time, 0.0);
  EXPECT_FALSE(response.schedule.ops.empty());
  EXPECT_GE(count("serve.degraded_hits"), 1);

  // The full synthesis kept running; eventually a request with no deadline
  // gets the full-budget entry.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(120);
  ServeRequest plain = flat4_request();
  ServeResponse final_response;
  do {
    final_response = broker.handle(plain);
    if (final_response.hit && !final_response.degraded) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  } while (std::chrono::steady_clock::now() < deadline);
  EXPECT_TRUE(final_response.hit);
  EXPECT_FALSE(final_response.degraded);
}

TEST_F(ServeDeadline, DegradedLibraryHitTriggersBackgroundUpgrade) {
  RegistryGuard guard;
  // Build a full entry with one broker, replant it — flagged degraded — in a
  // fresh library: a deterministic "fallback landed, full never did" state.
  DiskLibrary warm({scratch_dir("upgrade_src")});
  Broker warm_broker(warm);
  const ServeResponse cold = warm_broker.handle(flat4_request());
  auto stored = warm.get(cold.scenario_key);
  ASSERT_TRUE(stored.has_value());
  stored->degraded = true;

  DiskLibrary library({scratch_dir("upgrade_dst")});
  ASSERT_EQ(library.put(*stored), DiskLibrary::PutResult::Inserted);
  Broker broker(library);

  const ServeResponse hit = broker.handle(flat4_request());
  EXPECT_TRUE(hit.hit);
  EXPECT_TRUE(hit.degraded);  // served immediately, not blocked on re-synthesis

  // The hit queued a background full synthesis; it must upgrade the entry.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (count("serve.upgrades") == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(count("serve.upgrades"), 1);
  const auto upgraded = library.get(cold.scenario_key);
  ASSERT_TRUE(upgraded.has_value());
  EXPECT_FALSE(upgraded->degraded);
  const ServeResponse after = broker.handle(flat4_request());
  EXPECT_TRUE(after.hit);
  EXPECT_FALSE(after.degraded);
}

TEST_F(ServeDeadline, ExplicitNoDeadlineOverridesServerDefault) {
  RegistryGuard guard;
  DiskLibrary library({scratch_dir("deadline_override")});
  BrokerConfig config;
  config.default_deadline_seconds = 1e-6;  // server degrades everything...
  Broker broker(library, config);

  ServeRequest request = flat4_request();
  request.deadline_seconds = -1.0;  // ...unless the caller opts out
  const ServeResponse response = broker.handle(request);
  EXPECT_FALSE(response.degraded);

  // And the default applies when the request says nothing — on a key whose
  // full synthesis hasn't happened yet.
  ServeRequest defaulted = flat4_request(1 << 21);  // different bucket = new key
  const ServeResponse degraded = broker.handle(defaulted);
  EXPECT_TRUE(degraded.degraded);
}

TEST_F(ServeDeadline, SynthesisFailureCleansUpInFlightState) {
  RegistryGuard guard;
  DiskLibrary library({scratch_dir("synth_fail")});
  Broker broker(library);

  // Each cycle uses a fresh size bucket (a fresh key). The retry comes right
  // after the failure is published; a broker that publishes before retiring
  // the in-flight entry lets some retries join the failed future.
  for (int cycle = 0; cycle < 24; ++cycle) {
    SCOPED_TRACE("cycle " + std::to_string(cycle));
    const ServeRequest request = flat4_request(std::uint64_t{1} << (10 + cycle));
    util::Failpoints::instance().enable("serve.broker.synthesize", "error");
    // The pool-side failure arrives as this thread's own BrokerError (the
    // broker never shares live exception objects across threads).
    EXPECT_THROW(broker.handle(request), BrokerError);
    util::Failpoints::instance().clear();
    // The failed synthesis must not leave a poisoned in-flight future behind.
    const ServeResponse retry = broker.handle(request);
    EXPECT_FALSE(retry.hit);
    EXPECT_GT(retry.predicted_time, 0.0);
  }
}

// ---------------------------------------------------- transport hardening

TEST(ServeSocketHardening, EintrStormOnReadIsRetriedToCompletion) {
  RegistryGuard guard;
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_EQ(::send(fds[1], "hello\n", 6, MSG_NOSIGNAL), 6);
  ::close(fds[1]);

  util::Failpoints::instance().enable("serve.socket.read", "eintr:20");
  FdStream stream(fds[0]);
  std::string line;
  ASSERT_TRUE(stream.read_line(line));
  EXPECT_EQ(line, "hello");
  EXPECT_EQ(util::Failpoints::instance().hits("serve.socket.read"), 20u);
}

TEST(ServeSocketHardening, SendToVanishedPeerFailsInsteadOfRaisingSigpipe) {
  RegistryGuard guard;
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[0]);  // peer is gone
  FdStream stream(fds[1]);
  // Without MSG_NOSIGNAL this would deliver SIGPIPE and kill the test
  // binary; the hardened send surfaces EPIPE as a clean failure.
  EXPECT_FALSE(stream.write_all("OK 0 0 0 1.0 key\n"));
}

TEST(ServeSocketHardening, WriteFailpointFailsTheConnectionGracefully) {
  RegistryGuard guard;
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  FdStream stream(fds[1]);
  util::Failpoints::instance().enable("serve.socket.write", "error");
  EXPECT_FALSE(stream.write_all("payload"));
  EXPECT_GE(util::Failpoints::instance().hits("serve.socket.write"), 1u);
  ::close(fds[0]);
}

TEST(ServeSocketHardening, IdleTimeoutUnblocksAReadWithNoTraffic) {
  RegistryGuard guard;
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  FdStreamOptions options;
  options.idle_timeout_seconds = 0.3;
  FdStream stream(fds[0], options);
  const auto start = std::chrono::steady_clock::now();
  std::string line;
  EXPECT_FALSE(stream.read_line(line));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_GE(elapsed, std::chrono::milliseconds(250));
  EXPECT_LT(elapsed, std::chrono::seconds(10));
  ::close(fds[1]);
}

TEST(ServeSocketHardening, StopFlagInterruptsABlockedRead) {
  RegistryGuard guard;
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::atomic<bool> stop{false};
  FdStreamOptions options;
  options.stop = &stop;
  FdStream stream(fds[0], options);
  std::thread flipper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    stop.store(true);
  });
  const auto start = std::chrono::steady_clock::now();
  std::string line;
  EXPECT_FALSE(stream.read_line(line));  // no data ever arrives
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10));
  flipper.join();
  ::close(fds[1]);
}

TEST(ServeSocketHardening, OversizedRequestLineIsRefusedNotBuffered) {
  RegistryGuard guard;
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::thread writer([fd = fds[1]] {
    const std::string chunk(64 * 1024, 'x');  // no newline, ever
    for (int i = 0; i < 40; ++i) {            // 2.5 MB total
      if (::send(fd, chunk.data(), chunk.size(), MSG_NOSIGNAL) < 0) break;
    }
    ::close(fd);
  });
  {
    FdStream stream(fds[0]);
    std::string line;
    EXPECT_FALSE(stream.read_line(line));  // bails past the 1 MB line bound
  }  // closing the reader unblocks a writer stuck in send()
  writer.join();
}

TEST(ServeSocketHardening, BeginDrainStopsAcceptingAndServeReturns) {
  RegistryGuard guard;
  const std::string sock = scratch_dir("drain") + "/serve.sock";
  DiskLibrary library({scratch_dir("drain_lib")});
  Broker broker(library);
  UnixServer server(sock);

  std::thread serving([&] { server.serve(broker, library, -1, 5.0); });
  {
    auto client = connect_unix(sock, 5.0);
    std::string line;
    ASSERT_TRUE(client->write_all("PING\n"));
    ASSERT_TRUE(client->read_line(line));
    EXPECT_EQ(line, "PONG");
    // Leave the connection open: drain must still bring serve() home.
    server.begin_drain();
  }
  serving.join();  // hangs here = drain is broken
  EXPECT_TRUE(server.draining());
}

// --------------------------------------------- end-to-end failpoint sweep

/// In-memory Stream: scripted input, captured output (the serve_test
/// ScriptedStream pattern).
class MemoryStream : public Stream {
 public:
  explicit MemoryStream(std::string input) : input_(std::move(input)) {}

  bool read_line(std::string& line) override {
    if (pos_ >= input_.size()) return false;
    const std::size_t nl = input_.find('\n', pos_);
    if (nl == std::string::npos) return false;
    line.assign(input_, pos_, nl - pos_);
    pos_ = nl + 1;
    return true;
  }
  bool read_exact(std::string& out, std::size_t n) override {
    if (input_.size() - pos_ < n) return false;
    out.assign(input_, pos_, n);
    pos_ += n;
    return true;
  }
  bool write_all(std::string_view data) override {
    output.append(data);
    return true;
  }

  std::string output;

 private:
  std::string input_;
  std::size_t pos_ = 0;
};

/// One chaos sweep round per registered serve failpoint: arm it, drive a
/// real request end-to-end, and require (a) the failpoint actually fired,
/// (b) the request was answered (OK or ERR frame — never a hang, a desync,
/// or a dead process), and (c) the library reopens clean afterwards — no
/// surviving entry fails decode (the reopen ctor re-validates every file).
class ServeChaosSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(ServeChaosSweep, RequestIsAnsweredAndLibraryReopensClean) {
  const std::string name = GetParam();
  RegistryGuard guard;
  const std::string safe = [&] {
    std::string s = name;
    for (char& c : s) {
      if (c == '.') c = '_';
    }
    return s;
  }();
  const std::string dir = scratch_dir("sweep_" + safe);

  ServeRequest request = flat4_request();
  const std::string wire = encode_request(request, "binary") + "QUIT\n";

  if (name == "serve.socket.read" || name == "serve.socket.write") {
    // Transport faults: drive serve_connection over a real socketpair so
    // the FdStream failpoints sit on the request path. The connection dies
    // cleanly; the process and the broker survive.
    DiskLibrary library({dir});
    Broker broker(library);
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    util::Failpoints::instance().enable(name, "error");
    std::thread client([fd = fds[1], &wire] {
      ::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL);
      char sink[4096];
      while (::recv(fd, sink, sizeof(sink), 0) > 0) {
      }
      ::close(fd);
    });
    {
      FdStream stream(fds[0]);
      serve_connection(stream, broker, library);  // returns, never throws/hangs
    }  // close our end so the client's recv loop sees EOF
    client.join();
    EXPECT_GE(util::Failpoints::instance().hits(name.c_str()), 1u);
    util::Failpoints::instance().clear();
    // The broker still works on the next connection.
    const ServeResponse after = broker.handle(flat4_request());
    EXPECT_GT(after.predicted_time, 0.0);
    return;
  }

  std::string key;
  {
    DiskLibrary library({dir});
    Broker broker(library);
    if (name == "serve.codec.decode" || name == "serve.library.quarantine") {
      // These fire on the hit/recovery path: prime an entry first.
      key = broker.handle(request).scenario_key;
    }
    if (name == "serve.library.quarantine") {
      // ...and corrupt it, so reopening must quarantine under the fault.
      const fs::path entry = entry_path(dir, key);
      ASSERT_TRUE(fs::exists(entry));
      corrupt_middle(entry);
    }
  }

  util::Failpoints::instance().enable(name, "error");
  {
    DiskLibrary library({dir});  // quarantine fault fires here
    Broker broker(library);
    MemoryStream stream(wire);
    const int handled = serve_connection(stream, broker, library);
    EXPECT_EQ(handled, 1);
    // Every request is answered: exactly one OK or ERR frame came back.
    MemoryStream replies(stream.output);
    WireResponse response;
    ASSERT_TRUE(read_response(replies, response)) << "no complete answer on the wire";
    if (name == "serve.broker.synthesize" || name == "serve.broker.join") {
      // A miss failing before or during synthesis is the one fault that
      // cannot produce a schedule; the answer is a clean ERR, and the
      // connection survived to process QUIT.
      EXPECT_FALSE(response.ok);
    } else {
      // Library and codec faults degrade durability or hit-rate, never
      // availability.
      EXPECT_TRUE(response.ok) << response.error;
      EXPECT_FALSE(response.payload.empty());
    }
  }
  EXPECT_GE(util::Failpoints::instance().hits(name.c_str()), 1u)
      << name << " is registered but never fired — dead failpoint?";
  util::Failpoints::instance().clear();

  // Recovery: the library must reopen, quarantine anything broken, and
  // serve only entries that decode (the ctor validates each one).
  DiskLibrary reopened({dir});
  const auto stats = reopened.stats();
  EXPECT_GE(stats.entries + stats.quarantined, 0u);  // opened without throwing
  if (!key.empty() && name != "serve.library.quarantine") {
    // The primed entry is either served intact or was quarantined — but a
    // get() never returns corrupt bytes (decode + key check inside).
    const auto got = reopened.get(key);
    if (got.has_value()) {
      EXPECT_EQ(got->scenario_key, key);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllRegisteredFailpoints, ServeChaosSweep,
                         ::testing::ValuesIn(kServeFailpoints),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '.') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace syccl::serve
