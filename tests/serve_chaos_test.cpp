// Chaos suite for the schedule-compiler service (DESIGN.md §4i): every
// registered serve failpoint (serve/failpoints.h) fired end-to-end, the
// library's crash-safety contract proven by killing forked children mid-
// write, torn-write and index-damage recovery, the deadline → degraded →
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

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <thread>

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
  EXPECT_EQ(reopened.stats().quarantined, 0u);  // the torn .tmp was swept, not adopted
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_FALSE(entry.path().extension() == ".tmp") << entry.path();
  }
}

TEST(ServeChaos, CrashMidJournalAppendIsRecoveredByOrphanAdoption) {
  RegistryGuard guard;
  const std::string dir = scratch_dir("crash_journal");
  const ScheduleBlob a = sample_blob("|a");

  const int status = run_in_child([&] {
    DiskLibrary library({dir});
    // Crash 3 bytes into the journal line — after the entry file is durable.
    util::Failpoints::instance().enable("serve.library.journal_append", "crash:3");
    library.put(a);
  });
  ASSERT_TRUE(crashed_at_failpoint(status)) << "status " << status;

  DiskLibrary reopened({dir});
  EXPECT_EQ(reopened.stats().orphans_adopted, 1u);
  const auto got = reopened.get(a.scenario_key);
  ASSERT_TRUE(got.has_value()) << "put() acknowledged a, the index lost it, "
                                  "recovery must adopt the entry file";
  EXPECT_EQ(encode_blob(*got), encode_blob(a));
}

TEST(ServeChaos, CrashMidSnapshotWriteKeepsServingFromTheJournal) {
  RegistryGuard guard;
  const std::string dir = scratch_dir("crash_snapshot");
  const ScheduleBlob a = sample_blob("|a");

  const int status = run_in_child([&] {
    DiskLibrary library({dir});
    library.put(a);  // journaled
    util::Failpoints::instance().enable("serve.library.snapshot_write", "crash:4");
    library.flush();  // crashes writing index.snapshot.tmp
  });
  ASSERT_TRUE(crashed_at_failpoint(status)) << "status " << status;

  // The snapshot rename never happened, the journal was never truncated:
  // recovery replays the journal line and serves a.
  DiskLibrary reopened({dir});
  ASSERT_TRUE(reopened.get(a.scenario_key).has_value());
}

TEST(ServeChaos, CrashBetweenSnapshotRenameAndJournalTruncateReplaysIdempotently) {
  RegistryGuard guard;
  const std::string dir = scratch_dir("crash_truncate");
  const ScheduleBlob a = sample_blob("|a");

  const int status = run_in_child([&] {
    DiskLibrary library({dir});
    library.put(a);
    // dir_fsync fires right after the snapshot rename — the crash window
    // where both the new snapshot AND the untruncated journal exist.
    util::Failpoints::instance().enable("serve.library.dir_fsync", "crash");
    library.flush();
  });
  ASSERT_TRUE(crashed_at_failpoint(status)) << "status " << status;

  DiskLibrary reopened({dir});
  // Snapshot says a, journal repeats a: replay must be idempotent.
  EXPECT_EQ(reopened.stats().entries, 1u);
  ASSERT_TRUE(reopened.get(a.scenario_key).has_value());
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

TEST(ServeChaos, TornJournalAppendDamagesAtMostItsOwnLine) {
  RegistryGuard guard;
  const std::string dir = scratch_dir("torn_journal");
  const ScheduleBlob a = sample_blob("|a");
  const ScheduleBlob b = sample_blob("|b");
  {
    DiskLibrary library({dir});
    util::Failpoints::instance().enable("serve.library.journal_append", "torn:4");
    // Index write failures degrade durability, never availability: put()
    // still succeeds and the entry still serves from this process.
    EXPECT_EQ(library.put(a), DiskLibrary::PutResult::Inserted);
    EXPECT_GE(library.stats().journal_failures, 1u);
    EXPECT_TRUE(library.get(a.scenario_key).has_value());
    util::Failpoints::instance().clear();
    EXPECT_EQ(library.put(b), DiskLibrary::PutResult::Inserted);
  }

  // a's journal line is a torn prefix; b's line follows a sealing newline.
  // Recovery: b via the journal, a via orphan adoption. Nothing lost.
  DiskLibrary reopened({dir});
  EXPECT_EQ(reopened.stats().entries, 2u);
  EXPECT_EQ(reopened.stats().orphans_adopted, 1u);
  EXPECT_TRUE(reopened.get(a.scenario_key).has_value());
  EXPECT_TRUE(reopened.get(b.scenario_key).has_value());
}

// ---------------------------------------------------- index damage recovery

TEST(ServeRecovery, GarbageAndTruncatedIndexLinesAreSkipped) {
  RegistryGuard guard;
  const std::string dir = scratch_dir("garbage_index");
  const ScheduleBlob a = sample_blob("|a");
  const ScheduleBlob b = sample_blob("|b");
  {
    DiskLibrary library({dir});
    library.put(a);
    library.put(b);
  }
  {
    // Vandalise the journal: truncated verbs, wrong token counts, binary
    // noise, a trailing line without newline.
    std::ofstream journal(fs::path(dir) / "index.journal", std::ios::app);
    journal << "entr\n"
            << "entry\n"
            << "entry nothex notafile\n"
            << "entry 0123456789abcdef\n"
            << "\x01\x02\x03\n"
            << "evict\n"
            << "entry 0123456789abcdef 0123456789abcdef.sched extra\n"
            << "entry 0123";  // torn tail, no newline
  }

  DiskLibrary reopened({dir});
  EXPECT_EQ(reopened.stats().entries, 2u);
  EXPECT_TRUE(reopened.get(a.scenario_key).has_value());
  EXPECT_TRUE(reopened.get(b.scenario_key).has_value());
}

TEST(ServeRecovery, IndexLineWhoseFileIsMissingIsDropped) {
  RegistryGuard guard;
  const std::string dir = scratch_dir("missing_file");
  const ScheduleBlob a = sample_blob("|a");
  {
    DiskLibrary library({dir});
    library.put(a);
  }
  fs::remove(fs::path(dir) / (fnv1a_hex(a.scenario_key) + ".sched"));

  DiskLibrary reopened({dir});
  EXPECT_EQ(reopened.stats().entries, 0u);
  EXPECT_FALSE(reopened.get(a.scenario_key).has_value());  // a clean miss
}

TEST(ServeRecovery, OrphanScheduleFileIsAdoptedWhenTheIndexVanishes) {
  RegistryGuard guard;
  const std::string dir = scratch_dir("orphan");
  const ScheduleBlob a = sample_blob("|a");
  {
    DiskLibrary library({dir});
    library.put(a);
  }
  fs::remove(fs::path(dir) / "index.snapshot");
  fs::remove(fs::path(dir) / "index.journal");

  DiskLibrary reopened({dir});
  EXPECT_EQ(reopened.stats().orphans_adopted, 1u);
  const auto got = reopened.get(a.scenario_key);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(encode_blob(*got), encode_blob(a));
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
  const fs::path entry = fs::path(dir) / (fnv1a_hex(a.scenario_key) + ".sched");
  {
    std::fstream f(entry, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(fs::file_size(entry) / 2));
    f.put('\xff');
    f.put('\xff');
  }

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

TEST(ServeRecovery, LegacyIndexTxtIsReplayedThenRetired) {
  RegistryGuard guard;
  const std::string dir = scratch_dir("legacy");
  const ScheduleBlob a = sample_blob("|a");
  const std::string hex = fnv1a_hex(a.scenario_key);
  {
    // Hand-build a v1 layout: entry file + append-only index.txt, no
    // snapshot, no journal.
    std::ofstream entry(fs::path(dir) / (hex + ".sched"), std::ios::binary);
    entry << encode_blob(a);
    std::ofstream index(fs::path(dir) / "index.txt");
    index << "entry " << hex << ' ' << hex << ".sched\n";
  }

  DiskLibrary library({dir});
  ASSERT_TRUE(library.get(a.scenario_key).has_value());
  // The open compacted: v1 index folded into the snapshot and removed.
  EXPECT_FALSE(fs::exists(fs::path(dir) / "index.txt"));
  EXPECT_TRUE(fs::exists(fs::path(dir) / "index.snapshot"));
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
      const fs::path entry = fs::path(dir) / (fnv1a_hex(key) + ".sched");
      ASSERT_TRUE(fs::exists(entry));
      std::fstream f(entry, std::ios::in | std::ios::out | std::ios::binary);
      f.seekp(static_cast<std::streamoff>(fs::file_size(entry) / 2));
      f.put('\xff');
      f.put('\xff');
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
    if (name == "serve.library.snapshot_write" || name == "serve.library.snapshot_rename") {
      // Snapshot faults fire on compaction, not on the request path.
      EXPECT_FALSE(library.flush());
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
