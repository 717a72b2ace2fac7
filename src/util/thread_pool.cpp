#include "util/thread_pool.h"

#include <atomic>
#include <string>

#include "obs/trace.h"

namespace syccl::util {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 4;
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] {
      obs::set_thread_name("syccl-worker-" + std::to_string(i));
      worker_loop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
  }
}

void ThreadPool::post(std::function<void()> task) {
  // A pool with no workers (constructed before ~ThreadPool only) cannot
  // happen — the constructor always spawns at least one thread — so a posted
  // task is always eventually run.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  // Single-item batches run inline: avoids queue latency and makes the pool
  // usable re-entrantly from within a task.
  if (count == 1 || workers_.empty()) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  // Chunked dispatch: instead of one queued std::function per index, enqueue
  // at most one helper task per worker; helpers (and the caller) claim
  // indices from a shared atomic counter. This kills the per-item allocation
  // and wake-up cost and load-balances automatically. The batch state is
  // heap-shared because a helper stub may be popped after the batch already
  // completed (it then sees next ≥ count and exits immediately).
  struct Batch {
    std::function<void(std::size_t)> fn;  ///< one copy per batch
    std::size_t count = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex done_mutex;
    std::condition_variable done_cv;
    /// The failure of the lowest failing index, so a parallel loop fails
    /// exactly as its serial counterpart would.
    std::exception_ptr error;
    std::size_t error_index = 0;
    std::mutex error_mutex;

    void run() {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> elock(error_mutex);
          if (!error || i < error_index) {
            error = std::current_exception();
            error_index = i;
          }
        }
        if (done.fetch_add(1) + 1 == count) {
          std::lock_guard<std::mutex> dlock(done_mutex);
          done_cv.notify_all();
        }
      }
    }
  };
  auto batch = std::make_shared<Batch>();
  batch->fn = fn;
  batch->count = count;

  const std::size_t helpers = std::min(workers_.size(), count - 1);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t w = 0; w < helpers; ++w) {
      queue_.push([batch] { batch->run(); });
    }
  }
  cv_.notify_all();

  // The caller claims indices too, so every batch can complete on its
  // caller alone — this keeps nested parallel_for calls deadlock-free even
  // when all workers are busy inside outer batches.
  batch->run();

  std::unique_lock<std::mutex> lock(batch->done_mutex);
  batch->done_cv.wait(lock, [&batch] { return batch->done.load() == batch->count; });
  lock.unlock();

  if (batch->error) std::rethrow_exception(batch->error);
}

}  // namespace syccl::util
