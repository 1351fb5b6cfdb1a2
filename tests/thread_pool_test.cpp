// ThreadPool coverage: lanes, every index of every parallel_for running
// exactly once (inline pools included), and errors rethrown on the caller.
#include "parallel/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <stdexcept>
#include <thread>
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

TEST(ThreadPoolIndices, BurstOfCallsRunsEveryIndexOnce) {
  ThreadPool pool(4);
  const std::vector<std::size_t> burst = {1, 8, 3, 64, 0, 17, 128};
  std::atomic<std::uint64_t> touched{0};
  std::uint64_t expected = 0;
  for (const std::size_t n : burst) {
    pool.parallel_for(n, [&touched](std::size_t) {
      touched.fetch_add(1, std::memory_order_relaxed);
    });
    expected += n;
  }
  EXPECT_EQ(touched.load(), expected);
}

TEST(ThreadPoolIndices, InlinePoolRunsEveryIndex) {
  // Size 0 and 1 run everything on the caller thread.
  for (const std::size_t size : {0u, 1u}) {
    ThreadPool pool(size);
    ASSERT_EQ(pool.size(), 0u);
    std::uint64_t sum = 0;
    pool.parallel_for(10, [&sum](std::size_t i) { sum += i; });
    pool.parallel_for(5, [&sum](std::size_t i) { sum += i; });
    EXPECT_EQ(sum, 45u + 10u);
  }
}

TEST(ThreadPoolIndices, EmptyCallIsANoOp) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "fn ran for n = 0"; });
}

TEST(ThreadPoolIndices, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 500;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&hits](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

/// parallel_for(n) over a pool of `lanes` whose fn throws at index
/// `throw_at`: the exception reaches the caller, and the pool then runs
/// every index of the next call.
void expect_rethrow_then_full_call(std::size_t lanes, std::size_t throw_at) {
  SCOPED_TRACE("lanes " + std::to_string(lanes) + " throw at " +
               std::to_string(throw_at));
  ThreadPool pool(lanes);
  constexpr std::size_t kN = 64;
  std::atomic<std::size_t> ran{0};
  EXPECT_THROW(pool.parallel_for(kN,
                                 [&](std::size_t i) {
                                   if (i == throw_at) {
                                     throw std::runtime_error("index failed");
                                   }
                                   ran.fetch_add(1);
                                 }),
               std::runtime_error);
  EXPECT_LT(ran.load(), kN);  // the throwing index never counts

  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolErrors, ThrowFromAWorkerIndexRethrowsOnTheCaller) {
  // Index 63 is handed out last; with workers it usually lands on one of
  // them, and on any lane it must surface here, not in std::terminate.
  expect_rethrow_then_full_call(4, 63);
}

TEST(ThreadPoolErrors, ThrowFromTheCallersIndexRethrows) {
  // The caller takes an index too; index 0 is often its first.
  expect_rethrow_then_full_call(4, 0);
}

TEST(ThreadPoolErrors, ThrowOnAWorkerThreadRethrows) {
  // Pin the throw to a worker: only a lane that is not the caller throws.
  ThreadPool pool(3);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> thrown{false};
  EXPECT_THROW(
      pool.parallel_for(
          256,
          [&](std::size_t) {
            if (std::this_thread::get_id() != caller) {
              if (!thrown.exchange(true)) throw std::runtime_error("worker");
              return;
            }
            // The caller's index waits until a worker has thrown.
            const auto give_up =
                std::chrono::steady_clock::now() + std::chrono::seconds(10);
            while (!thrown.load() &&
                   std::chrono::steady_clock::now() < give_up) {
              std::this_thread::yield();
            }
          }),
      std::runtime_error);
  EXPECT_TRUE(thrown.load());
  std::atomic<std::size_t> ran{0};
  pool.parallel_for(100, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 100u);
}

TEST(ThreadPoolErrors, InlinePoolsRethrowTheSameWay) {
  for (const std::size_t lanes : {0u, 1u}) {
    expect_rethrow_then_full_call(lanes, 0);
    expect_rethrow_then_full_call(lanes, 17);
  }
}

TEST(ThreadPoolErrors, ConcurrentSecondCallerGetsLogicError) {
  // The first call holds every lane inside fn at a barrier until the second
  // caller has tried and failed; the first call then finishes in full.
  for (const std::size_t lanes : {1u, 3u}) {
    SCOPED_TRACE("lanes " + std::to_string(lanes));
    ThreadPool pool(lanes);
    std::barrier<> first_inside(2);
    std::barrier<> second_done(2);
    std::atomic<int> first_ran{0};
    std::thread first([&] {
      pool.parallel_for(lanes, [&](std::size_t i) {
        if (i == 0) {
          first_inside.arrive_and_wait();
          second_done.arrive_and_wait();
        }
        first_ran.fetch_add(1);
      });
    });
    first_inside.arrive_and_wait();
    bool second_ran = false;
    EXPECT_THROW(pool.parallel_for(4, [&](std::size_t) { second_ran = true; }),
                 std::logic_error);
    EXPECT_FALSE(second_ran);
    second_done.arrive_and_wait();
    first.join();
    EXPECT_EQ(first_ran.load(), static_cast<int>(lanes));
    std::atomic<int> after{0};
    pool.parallel_for(5, [&](std::size_t) { after.fetch_add(1); });
    EXPECT_EQ(after.load(), 5);
  }
}

}  // namespace
}  // namespace rlplan::parallel
