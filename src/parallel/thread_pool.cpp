#include "parallel/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "robust/fault.h"

namespace rlplan::parallel {

namespace {
std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads <= 1) return;  // inline mode
  workers_.reserve(threads - 1);  // the caller thread is the remaining lane
  for (std::size_t i = 0; i + 1 < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
}

std::size_t ThreadPool::hardware_threads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

void ThreadPool::run_indices(Call& call) {
  for (;;) {
    const std::size_t i = call.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= call.n) break;
    std::size_t finished = 1;
    try {
      (*call.fn)(i);
    } catch (...) {
      // No index starts after this one: those never handed out count as
      // finished, so the caller still sees all n.
      const std::size_t handed = call.next.exchange(call.n);
      if (handed < call.n) finished += call.n - handed;
      std::lock_guard<std::mutex> lock(mutex_);
      if (!call.error) call.error = std::current_exception();
    }
    if (call.finished.fetch_add(finished, std::memory_order_acq_rel) +
            finished ==
        call.n) {
      std::lock_guard<std::mutex> lock(mutex_);
      done_.notify_all();
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    std::shared_ptr<Call> call;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [&] {
        return stop_ || generation_ != seen_generation;
      });
      if (stop_) return;
      seen_generation = generation_;
      call = call_;
    }
    run_indices(*call);
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (in_call_.exchange(true, std::memory_order_acquire)) {
    throw std::logic_error(
        "ThreadPool::parallel_for: another call on this pool is in flight");
  }
  struct EndCall {
    std::atomic<bool>& in_call;
    ~EndCall() { in_call.store(false, std::memory_order_release); }
  } end_call{in_call_};
  RLPLAN_GAUGE_SET("pool.queue_depth", n);
  RLPLAN_COUNTER_ADD("pool.tasks", n);
  // The clock is read for the histogram only, so only with metrics on.
  const bool timed = obs::metrics_enabled();
  const std::uint64_t call_t0 = timed ? now_ns() : 0;
  const auto observe = [&] {
    if (timed) {
      RLPLAN_HISTOGRAM_OBSERVE("pool.parallel_for_us",
                               static_cast<double>(now_ns() - call_t0) / 1e3);
    }
  };
  // Chaos site "pool_dispatch": a worker-dispatch fault degrades to inline
  // execution on the caller. Results are bit-identical (fn(i) writes only
  // slot i), so this is the pool's graceful-degradation path.
  const bool dispatch_fault = robust::fault_point("pool_dispatch");
  if (dispatch_fault) RLPLAN_COUNTER_INC("pool.dispatch_degraded");
  if (workers_.empty() || n == 1 || dispatch_fault) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    observe();
    return;
  }
  const auto call = std::make_shared<Call>();
  call->fn = &fn;
  call->n = n;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    call_ = call;
    ++generation_;
  }
  wake_.notify_all();
  run_indices(*call);  // the caller is a lane too
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [&] {
      return call->finished.load(std::memory_order_acquire) == n;
    });
  }
  observe();
  if (call->error) std::rethrow_exception(call->error);
}

}  // namespace rlplan::parallel
