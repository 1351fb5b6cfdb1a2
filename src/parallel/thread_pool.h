// Fixed-size worker pool with a lock-cheap parallel_for.
//
// Design goals, in order: determinism, low per-call overhead, simplicity.
// There is no work-stealing deque and no per-task future allocation — the
// only primitive is parallel_for(n, fn), which wakes the workers once per
// call and then distributes indices through a single atomic counter. Workers
// take the mutex only to sleep/wake between calls; inside a call the hot
// path is one fetch_add per index.
//
// parallel_for(0-based index) may run fn concurrently from multiple threads;
// fn must only touch per-index state. Results are independent of the thread
// schedule as long as fn(i) writes only to slot i — this is what makes
// VecEnv rollouts bit-reproducible across num_threads settings.
//
// ThreadPool(n) gives parallel_for n lanes: n - 1 worker threads plus the
// calling thread. A pool built with 0 or 1 runs everything inline on the
// caller thread (no worker threads are spawned), so `num_threads = 1` is
// exactly the serial code path.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rlplan::parallel {

/// Lifetime totals for one pool; see ThreadPool::stats(). Counters are exact
/// (every index is executed exactly once, so `tasks_executed` across a burst
/// of parallel_for(n) calls is the sum of the n's). busy/idle seconds
/// overlap across lanes: with W workers plus the caller, a fully utilized
/// pool accrues ~(W+1)× wall time of busy_seconds.
struct ThreadPoolStats {
  std::uint64_t parallel_for_calls = 0;
  std::uint64_t tasks_executed = 0;
  std::size_t peak_queue_depth = 0;  ///< largest single-call n
  double busy_seconds = 0.0;  ///< summed time lanes spent inside fn loops
  double idle_seconds = 0.0;  ///< summed time workers slept between calls
};

class ThreadPool {
 public:
  /// Provides `threads` lanes: spawns threads - 1 workers, and the thread
  /// calling parallel_for is the last lane. 0 or 1 means "inline" (no
  /// worker threads).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker thread count, one less than the lanes (0 = inline execution).
  std::size_t size() const { return workers_.size(); }

  /// Calls fn(i) for every i in [0, n), possibly concurrently. Blocks until
  /// all n calls have returned. The caller thread participates, so the pool
  /// contributes size()+1 lanes of execution. Exceptions thrown by fn
  /// terminate (fn is expected to be noexcept in spirit; environment errors
  /// are programming errors on this path).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// std::thread::hardware_concurrency with a floor of 1.
  static std::size_t hardware_threads();

  /// Snapshot of lifetime totals (safe to call concurrently with
  /// parallel_for; counters may lag an in-flight call). Also feeds the obs
  /// gauges ("pool.queue_depth", "pool.tasks", "pool.parallel_for_us") when
  /// metrics are enabled.
  ThreadPoolStats stats() const;

 private:
  void worker_loop();
  void run_indices();

  std::vector<std::thread> workers_;

  // Lifetime accounting (relaxed atomics; single u64 adds per call/lane).
  std::atomic<std::uint64_t> calls_{0};
  std::atomic<std::uint64_t> tasks_{0};
  std::atomic<std::size_t> peak_depth_{0};
  std::atomic<std::uint64_t> busy_ns_{0};
  std::atomic<std::uint64_t> idle_ns_{0};

  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;

  // State of the in-flight parallel_for (guarded by mutex_ for the
  // sleep/wake transitions; next_ is the lock-free hot path).
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t n_ = 0;
  std::atomic<std::size_t> next_{0};
  std::size_t remaining_workers_ = 0;  ///< workers still inside run_indices()
  std::uint64_t generation_ = 0;       ///< bumped per parallel_for call
  bool stop_ = false;
};

}  // namespace rlplan::parallel
