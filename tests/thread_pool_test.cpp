// ThreadPool lifetime-stats coverage: the counters are exact by construction
// (every index of every parallel_for runs exactly once), so the assertions
// here are equalities, not tolerances.
#include "parallel/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <vector>

namespace rlplan::parallel {
namespace {

TEST(ThreadPoolLanes, PoolOfThreeRunsThreeLanesAtOnce) {
  // ThreadPool(n) is n lanes: n - 1 workers plus the calling thread. A
  // three-party barrier only opens if all three indices run concurrently;
  // with a lane missing, the third index would start only after another
  // timed out.
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 2u);
  std::mutex mutex;
  std::condition_variable all_here;
  std::size_t arrived = 0;
  std::atomic<int> met{0};
  pool.parallel_for(3, [&](std::size_t) {
    std::unique_lock<std::mutex> lock(mutex);
    ++arrived;
    all_here.notify_all();
    if (all_here.wait_for(lock, std::chrono::seconds(10),
                          [&] { return arrived == 3; })) {
      met.fetch_add(1);
    }
  });
  EXPECT_EQ(met.load(), 3);
}

TEST(ThreadPoolStats, ExactCountsAcrossBurstOfJobs) {
  ThreadPool pool(4);
  const std::vector<std::size_t> burst = {1, 8, 3, 64, 0, 17, 128};
  std::atomic<std::uint64_t> touched{0};
  std::uint64_t expected_tasks = 0;
  std::uint64_t expected_calls = 0;
  std::size_t expected_peak = 0;
  for (const std::size_t n : burst) {
    pool.parallel_for(n, [&touched](std::size_t) {
      touched.fetch_add(1, std::memory_order_relaxed);
    });
    expected_tasks += n;
    if (n > 0) ++expected_calls;  // n = 0 is a counted-out no-op
    expected_peak = std::max(expected_peak, n);
  }

  const ThreadPoolStats stats = pool.stats();
  EXPECT_EQ(stats.parallel_for_calls, expected_calls);
  EXPECT_EQ(stats.tasks_executed, expected_tasks);
  EXPECT_EQ(stats.tasks_executed, touched.load());
  EXPECT_EQ(stats.peak_queue_depth, expected_peak);
  EXPECT_GT(stats.busy_seconds, 0.0);
  EXPECT_GE(stats.idle_seconds, 0.0);
}

TEST(ThreadPoolStats, InlinePoolCountsTheSameWay) {
  // Size 0 and 1 run everything on the caller thread — the stats contract
  // must not depend on whether workers exist.
  for (const std::size_t size : {0u, 1u}) {
    ThreadPool pool(size);
    ASSERT_EQ(pool.size(), 0u);
    std::uint64_t sum = 0;
    pool.parallel_for(10, [&sum](std::size_t i) { sum += i; });
    pool.parallel_for(5, [&sum](std::size_t i) { sum += i; });
    EXPECT_EQ(sum, 45u + 10u);

    const ThreadPoolStats stats = pool.stats();
    EXPECT_EQ(stats.parallel_for_calls, 2u);
    EXPECT_EQ(stats.tasks_executed, 15u);
    EXPECT_EQ(stats.peak_queue_depth, 10u);
    EXPECT_EQ(stats.idle_seconds, 0.0);  // no workers, nobody sleeps
  }
}

TEST(ThreadPoolStats, FreshPoolIsZeroed) {
  ThreadPool pool(2);
  const ThreadPoolStats stats = pool.stats();
  EXPECT_EQ(stats.parallel_for_calls, 0u);
  EXPECT_EQ(stats.tasks_executed, 0u);
  EXPECT_EQ(stats.peak_queue_depth, 0u);
  EXPECT_EQ(stats.busy_seconds, 0.0);
}

TEST(ThreadPoolStats, EmptyCallIsANoOp) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "fn ran for n = 0"; });
  const ThreadPoolStats stats = pool.stats();
  EXPECT_EQ(stats.parallel_for_calls, 0u);
  EXPECT_EQ(stats.tasks_executed, 0u);
}

TEST(ThreadPoolStats, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 500;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&hits](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
  EXPECT_EQ(pool.stats().tasks_executed, kN);
}

}  // namespace
}  // namespace rlplan::parallel
