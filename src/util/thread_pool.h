// Fixed-size worker pool used to solve independent sub-demands and evaluate
// candidate schedules in parallel (§5.3 "Utilizing isomorphism and
// parallelism to accelerate synthesis").
//
// The pool is a plain FIFO work queue: tasks are coarse-grained
// (milliseconds to seconds), so work stealing would buy nothing.
// parallel_for uses chunked dispatch — one helper task per worker, indices
// claimed from a shared atomic counter — so per-item allocation and wake-up
// costs are amortised over the batch. It blocks the caller until every index
// finished and rethrows the exception of the lowest failing index, so callers
// never observe partially-completed batches and a parallel loop fails with
// the same error as the serial loop it replaces. The caller itself claims
// indices, which makes nested parallel_for calls deadlock-free.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

namespace syccl::util {

class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers. 0 means
  /// std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Runs fn(i) for i in [0, count) across the pool and waits for completion.
  /// If any task throws, the exception of the lowest failing index is
  /// rethrown in the caller after all tasks have drained.
  void parallel_for(std::size_t count, const std::function<void(std::size_t)>& fn);

  /// Enqueues a single task and returns its future (fire-and-wait-later, the
  /// shape serve::Broker needs for asynchronous miss synthesis). Exceptions
  /// propagate through the future. Unlike parallel_for the caller does not
  /// participate, so a submit() from within a pool task that then blocks on
  /// the future can deadlock a fully-busy pool — callers that wait must do so
  /// from outside the pool (the broker waits on connection threads).
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> future = task->get_future();
    post([task] { (*task)(); });
    return future;
  }

 private:
  /// Enqueues a type-erased task (submit's untemplated core).
  void post(std::function<void()> task);


  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace syccl::util
