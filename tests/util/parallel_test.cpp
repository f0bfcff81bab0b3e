// Contention-focused coverage for ThreadPool + parallel_for: exception
// propagation under concurrent failures, zero/tiny counts, exact chunk
// boundaries, and nested/shared-pool use.  Designed to be meaningful under
// -fsanitize=thread (see README: GLOVE_SANITIZE=thread).

#include "glove/util/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "glove/util/thread_pool.hpp"

namespace glove::util {
namespace {

/// Spins until `done()` holds, failing (instead of hanging) after a
/// generous deadline so a lost-task regression surfaces as a test failure.
template <typename Pred>
::testing::AssertionResult wait_until(const Pred& done,
                                      std::chrono::seconds limit =
                                          std::chrono::seconds{30}) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) {
      return ::testing::AssertionFailure() << "condition not met in time";
    }
    std::this_thread::yield();
  }
  return ::testing::AssertionSuccess();
}

TEST(ParallelFor, ChunkBoundariesPartitionExactly) {
  // The chunking must produce a disjoint cover of [0, count) for counts
  // around every boundary: multiples of min_chunk, one off either side,
  // primes, and counts smaller than one chunk.
  ThreadPool pool{4};
  for (const std::size_t count :
       {std::size_t{1}, std::size_t{15}, std::size_t{16}, std::size_t{17},
        std::size_t{255}, std::size_t{256}, std::size_t{257},
        std::size_t{1'021}, std::size_t{4'096}, std::size_t{10'000}}) {
    std::vector<std::atomic<int>> hits(count);
    std::mutex ranges_mutex;
    std::vector<std::pair<std::size_t, std::size_t>> ranges;
    parallel_for(
        pool, count,
        [&](std::size_t begin, std::size_t end) {
          ASSERT_LT(begin, end);
          ASSERT_LE(end, count);
          {
            const std::lock_guard lock{ranges_mutex};
            ranges.emplace_back(begin, end);
          }
          for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
        },
        /*min_chunk=*/16);
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "count=" << count << " index=" << i;
    }
    // Ranges must tile [0, count) without overlap.
    std::sort(ranges.begin(), ranges.end());
    std::size_t expected_begin = 0;
    for (const auto& [begin, end] : ranges) {
      ASSERT_EQ(begin, expected_begin) << "count=" << count;
      expected_begin = end;
    }
    ASSERT_EQ(expected_begin, count);
  }
}

TEST(ParallelFor, ZeroCountNeverInvokesBodyOrTouchesPool) {
  // A zero count must return immediately: no task submission, no body call.
  ThreadPool pool{2};
  std::atomic<int> calls{0};
  parallel_for(pool, 0,
               [&](std::size_t, std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, PropagatesFirstExceptionWhenAllChunksThrow) {
  // Every chunk throws concurrently; exactly one exception must surface and
  // the pool must stay usable afterwards.
  ThreadPool pool{4};
  EXPECT_THROW(parallel_for(
                   pool, 10'000,
                   [](std::size_t begin, std::size_t) {
                     throw std::runtime_error{"chunk " + std::to_string(begin)};
                   },
                   /*min_chunk=*/16),
               std::runtime_error);

  std::atomic<std::size_t> visited{0};
  parallel_for(
      pool, 1'000,
      [&](std::size_t begin, std::size_t end) {
        visited.fetch_add(end - begin);
      },
      /*min_chunk=*/16);
  EXPECT_EQ(visited.load(), 1'000u);
}

TEST(ParallelFor, ExceptionDoesNotLoseSiblingChunkWork) {
  // Non-throwing chunks still run to completion even when one throws.
  ThreadPool pool{4};
  const std::size_t count = 8'192;
  std::vector<std::atomic<int>> hits(count);
  std::atomic<std::size_t> thrown_end{0};
  try {
    parallel_for(
        pool, count,
        [&](std::size_t begin, std::size_t end) {
          if (begin == 0) {
            thrown_end.store(end);
            throw std::logic_error{"first chunk"};
          }
          for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
        },
        /*min_chunk=*/64);
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error&) {
  }
  // parallel_for waits for *all* chunks before rethrowing, so everything
  // outside the throwing chunk has been visited exactly once.
  ASSERT_GT(thrown_end.load(), 0u);
  for (std::size_t i = thrown_end.load(); i < count; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelFor, ManyConcurrentLoopsOnSharedPool) {
  // Several caller threads hammer one pool at once; per-loop accounting
  // must stay exact.  This is the contention case TSan cares about.
  ThreadPool pool{4};
  constexpr std::size_t kLoops = 8;
  constexpr std::size_t kCount = 20'000;
  std::vector<std::atomic<std::uint64_t>> sums(kLoops);
  std::vector<std::thread> callers;
  callers.reserve(kLoops);
  for (std::size_t loop = 0; loop < kLoops; ++loop) {
    callers.emplace_back([&, loop] {
      parallel_for(
          pool, kCount,
          [&](std::size_t begin, std::size_t end) {
            std::uint64_t local = 0;
            for (std::size_t i = begin; i < end; ++i) local += i;
            sums[loop].fetch_add(local, std::memory_order_relaxed);
          },
          /*min_chunk=*/128);
    });
  }
  for (auto& caller : callers) caller.join();
  constexpr std::uint64_t expected =
      static_cast<std::uint64_t>(kCount) * (kCount - 1) / 2;
  for (std::size_t loop = 0; loop < kLoops; ++loop) {
    EXPECT_EQ(sums[loop].load(), expected) << "loop " << loop;
  }
}

TEST(ParallelFor, BackToBackTinyLoopsNeverTouchAFinishedLoop) {
  // Near-empty bodies make the last task finish right as the caller wakes
  // up: a task that signalled completion outside the loop's mutex could
  // still be locking it after the caller returned and destroyed it.
  // ASan and TSan flag that use-after-return; this loop gives them
  // thousands of chances.
  ThreadPool pool{4};
  std::atomic<std::size_t> visited{0};
  constexpr std::size_t kLoops = 5'000;
  for (std::size_t loop = 0; loop < kLoops; ++loop) {
    parallel_for(
        pool, 8,
        [&](std::size_t begin, std::size_t end) {
          visited.fetch_add(end - begin, std::memory_order_relaxed);
        },
        /*min_chunk=*/1);
  }
  EXPECT_EQ(visited.load(), kLoops * 8);
}

TEST(ParallelFor, SingleWorkerPoolStillCompletes) {
  // workers == 1 exercises the inline/task boundary arithmetic.
  ThreadPool pool{1};
  std::vector<int> hits(3'000, 0);
  parallel_for(
      pool, hits.size(),
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) ++hits[i];
      },
      /*min_chunk=*/100);
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 3'000);
}

TEST(ThreadPool, SubmitFromWorkerDoesNotDeadlock) {
  // Tasks enqueuing further tasks is how nested parallelism lands on the
  // pool; the queue must accept them without self-deadlock.
  ThreadPool pool{2};
  std::atomic<int> done{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&] {
      pool.submit([&] { done.fetch_add(1); });
      done.fetch_add(1);
    });
  }
  ASSERT_TRUE(wait_until([&] { return done.load() >= 100; }));
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPool, ConcurrentSubmittersAllRun) {
  ThreadPool pool{3};
  constexpr int kThreads = 8;
  constexpr int kTasksPerThread = 500;
  std::atomic<int> executed{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&] {
      for (int i = 0; i < kTasksPerThread; ++i) {
        pool.submit([&] { executed.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  for (auto& s : submitters) s.join();
  ASSERT_TRUE(wait_until(
      [&] { return executed.load() >= kThreads * kTasksPerThread; }));
  EXPECT_EQ(executed.load(), kThreads * kTasksPerThread);
}

TEST(ThreadPool, DestructionDrainsQueuedTasks) {
  // The destructor must run (not drop) already-queued work.
  std::atomic<int> executed{0};
  {
    ThreadPool pool{2};
    for (int i = 0; i < 200; ++i) {
      pool.submit([&] { executed.fetch_add(1); });
    }
  }
  EXPECT_EQ(executed.load(), 200);
}

}  // namespace
}  // namespace glove::util
