// parallel_for: block-partitioned parallel loop on top of ThreadPool.
//
// The loop body receives index ranges, not single indices, so callers can
// amortize per-task overhead over thousands of cheap stretch computations.
// Exceptions thrown by the body are captured and rethrown on the caller's
// thread (first one wins) so failures are not silently swallowed.

#ifndef GLOVE_UTIL_PARALLEL_HPP
#define GLOVE_UTIL_PARALLEL_HPP

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>

#include "glove/util/thread_pool.hpp"

namespace glove::util {

/// Runs `body(begin, end)` over contiguous chunks of [0, count) on `pool`
/// and blocks until all chunks complete.  `body` must be safe to invoke
/// concurrently on disjoint ranges.
template <typename Body>
void parallel_for(ThreadPool& pool, std::size_t count, const Body& body,
                  std::size_t min_chunk = 256) {
  if (count == 0) return;
  const std::size_t workers = pool.size();
  std::size_t chunks = workers * 4;
  if (chunks == 0) chunks = 1;
  std::size_t chunk = (count + chunks - 1) / chunks;
  if (chunk < min_chunk) chunk = min_chunk;
  const std::size_t tasks = (count + chunk - 1) / chunk;

  if (tasks <= 1) {
    body(std::size_t{0}, count);
    return;
  }

  // `remaining` and `first_error` are guarded by `mutex`.  A task touches
  // these stack locals for the last time while holding the mutex, so the
  // waiter cannot observe completion (and destroy them by returning)
  // before the last task is done with them.
  std::mutex mutex;
  std::condition_variable done_cv;
  std::size_t remaining = tasks;
  std::exception_ptr first_error;

  for (std::size_t t = 0; t < tasks; ++t) {
    const std::size_t begin = t * chunk;
    const std::size_t end = begin + chunk < count ? begin + chunk : count;
    pool.submit([&, begin, end] {
      std::exception_ptr error;
      try {
        body(begin, end);
      } catch (...) {
        error = std::current_exception();
      }
      const std::lock_guard lock{mutex};
      if (error && !first_error) first_error = error;
      if (--remaining == 0) done_cv.notify_all();
    });
  }

  std::unique_lock lock{mutex};
  done_cv.wait(lock, [&] { return remaining == 0; });
  if (first_error) std::rethrow_exception(first_error);
}

/// Convenience overload on the shared pool.
template <typename Body>
void parallel_for(std::size_t count, const Body& body,
                  std::size_t min_chunk = 256) {
  parallel_for(ThreadPool::shared(), count, body, min_chunk);
}

}  // namespace glove::util

#endif  // GLOVE_UTIL_PARALLEL_HPP
