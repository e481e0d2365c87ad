// Fixed-size worker pool for the deterministic parallel multi-start runner.
//
// Deliberately minimal: a bounded set of workers started in the
// constructor, a FIFO task queue, and exception-capturing futures.  The
// pool itself adds no ordering semantics beyond FIFO dispatch — callers
// that need schedule-independent results (partition/runner.h) must make
// every task independent and merge task outputs in a deterministic order,
// never in completion order.
//
// Tasks must not themselves block on futures of tasks submitted to the
// same pool (no work stealing, so that can deadlock a full pool).  The
// destructor drains the queue: already-submitted tasks still run, then the
// workers join.
#pragma once

#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

namespace prop {

class ThreadPool {
 public:
  /// Starts `threads` workers (clamped to at least 1).
  explicit ThreadPool(int threads);

  /// Drains the queue and joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const noexcept { return static_cast<int>(workers_.size()); }

  /// Best-effort hardware parallelism (>= 1) for "--threads=0 means auto"
  /// surfaces.
  static int hardware_threads() noexcept;

  /// Enqueues `fn` and returns a future for its result.  An exception
  /// thrown by the task is captured and rethrown by future::get(), never
  /// propagated into a worker.
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<decltype(fn())> {
    using Result = decltype(fn());
    auto task =
        std::make_shared<std::packaged_task<Result()>>(std::forward<Fn>(fn));
    std::future<Result> future = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (stopping_) {
        throw std::runtime_error("ThreadPool: submit after shutdown");
      }
      queue_.push([task]() { (*task)(); });
    }
    wake_.notify_one();
    return future;
  }

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable wake_;
  std::queue<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

}  // namespace prop
