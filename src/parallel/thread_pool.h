// Fixed-size worker pool with a lock-cheap parallel_for.
//
// Design goals, in order: determinism, low per-call overhead, simplicity.
// There is no work-stealing deque and no per-task future allocation — the
// only primitive is parallel_for(n, fn), which wakes the workers once per
// call and then distributes indices through a single atomic counter. Workers
// take the mutex only to sleep/wake between calls; inside a call the hot
// path is one fetch_add per index. A call returns once its last index has
// finished, without waiting for workers that never woke in time to take
// one: on a shared host a descheduled worker would otherwise stall every
// call.
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
//
// A pool serves one parallel_for at a time: a second call that starts while
// one is in flight — from another thread, or from inside fn — throws
// std::logic_error instead of overwriting the first call's state. An
// exception thrown by fn stops the call from handing out further indices and
// is rethrown on the caller once every lane has returned; the pool stays
// usable.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace rlplan::parallel {

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
  /// contributes size()+1 lanes of execution. When fn throws, no further
  /// index starts, and the first exception is rethrown here once every lane
  /// has returned. Throws std::logic_error, running nothing, when another
  /// parallel_for on this pool is in flight. With obs metrics enabled, a
  /// call sets "pool.queue_depth" to n, adds n to "pool.tasks" and observes
  /// its wall time in "pool.parallel_for_us".
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// std::thread::hardware_concurrency with a floor of 1.
  static std::size_t hardware_threads();

 private:
  /// One parallel_for's state, shared with the workers that take part. A
  /// worker that wakes after the last index has been handed out finds none
  /// left and never calls fn, so the call may return before it wakes.
  struct Call {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    std::atomic<std::size_t> next{0};      ///< the next index to hand out
    std::atomic<std::size_t> finished{0};  ///< run, or skipped after a throw
    std::exception_ptr error;  ///< first exception fn threw (under mutex_)
  };

  void worker_loop();
  void run_indices(Call& call);

  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;

  std::shared_ptr<Call> call_;        ///< the latest call (under mutex_)
  std::uint64_t generation_ = 0;      ///< bumped per call (under mutex_)
  bool stop_ = false;
  std::atomic<bool> in_call_{false};  ///< a parallel_for is in flight
};

}  // namespace rlplan::parallel
