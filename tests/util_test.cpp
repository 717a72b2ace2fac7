// Tests for utility primitives: RNG determinism, thread pool, timers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/log.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace syccl::util {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, BoundsRespected) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.next_below(10), 10u);
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    const auto v = r.next_in(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, CoversRange) {
  Rng r(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 300; ++i) seen.insert(r.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(64, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, PropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(8,
                                 [](std::size_t i) {
                                   if (i == 3) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, RethrowsLowestFailingIndex) {
  // Several indices fail; the lowest one fails last in time. The caller must
  // still see its exception, as a serial loop would.
  ThreadPool pool(4);
  for (int round = 0; round < 5; ++round) {
    try {
      pool.parallel_for(64, [](std::size_t i) {
        if (i == 3) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          throw std::runtime_error("3");
        }
        if (i == 9 || i == 40) throw std::runtime_error(std::to_string(i));
      });
      FAIL() << "no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "3");
    }
  }
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.parallel_for(4, [&](std::size_t) {
    pool.parallel_for(4, [&](std::size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPool, ZeroCountIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, ChunkedDispatchCoversEveryIndexExactlyOnce) {
  // Chunked dispatch claims indices from a shared counter; repeated rounds
  // shake out lost or doubly-claimed indices.
  ThreadPool pool(4);
  for (int round = 0; round < 25; ++round) {
    std::vector<std::atomic<int>> hits(517);
    pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
    for (auto& h : hits) ASSERT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ConcurrentCallersShareWorkers) {
  // Several external threads issue batches against the same pool; each batch
  // must complete exactly (the caller can always finish its batch alone).
  ThreadPool pool(3);
  std::atomic<int> total{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back(
        [&] { pool.parallel_for(100, [&](std::size_t) { total.fetch_add(1); }); });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), 400);
}

TEST(Stopwatch, MeasuresElapsed) {
  Stopwatch sw;
  double t1 = sw.elapsed_seconds();
  EXPECT_GE(t1, 0.0);
  sw.reset();
  EXPECT_LE(sw.elapsed_seconds(), t1 + 1.0);
}

TEST(PhaseTimer, Accumulates) {
  PhaseTimer pt;
  pt.add(0, 1.5);
  pt.add(0, 0.5);
  pt.add(3, 2.0);
  EXPECT_DOUBLE_EQ(pt.total(0), 2.0);
  EXPECT_DOUBLE_EQ(pt.total(3), 2.0);
  EXPECT_DOUBLE_EQ(pt.grand_total(), 4.0);
  EXPECT_THROW(pt.add(99, 1.0), std::out_of_range);
}

TEST(Log, LevelGate) {
  set_log_level(LogLevel::Error);
  EXPECT_EQ(log_level(), LogLevel::Error);
  SYCCL_INFO << "suppressed";  // must not crash
  set_log_level(LogLevel::Warn);
}

}  // namespace
}  // namespace syccl::util
