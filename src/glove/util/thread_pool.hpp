// Fixed-size worker pool used to parallelize the O(|M|^2) stretch-effort
// computations that dominate GLOVE's running time: heap seeding and the
// greedy loop's rescan batches.  Sec. 6.3 of the paper maps the same
// computations onto CUDA; this pool is the CPU substitute.

#ifndef GLOVE_UTIL_THREAD_POOL_HPP
#define GLOVE_UTIL_THREAD_POOL_HPP

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace glove::util {

/// A minimal task-queue thread pool.  Tasks are `void()` callables; waiting
/// for completion is done through `parallel_for` (parallel.hpp) or by the
/// caller's own synchronization.
class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means `hardware_concurrency()`.
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for asynchronous execution.
  void submit(std::function<void()> task);

  /// Number of worker threads.
  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Process-wide default pool, sized from GLOVE_THREADS (if set) or
  /// hardware concurrency.  Constructed on first use.
  static ThreadPool& shared();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace glove::util

#endif  // GLOVE_UTIL_THREAD_POOL_HPP
