#include "robust/robust.h"

#include <csignal>
#include <limits>
#include <thread>

#include "obs/metrics.h"

namespace rlplan::robust {

const char* to_string(StopReason reason) {
  switch (reason) {
    case StopReason::kNone: return "none";
    case StopReason::kCancelled: return "cancelled";
    case StopReason::kDeadline: return "deadline";
  }
  return "unknown";
}

double Deadline::remaining_seconds() const {
  if (!set_) return std::numeric_limits<double>::infinity();
  const auto left = at_ - std::chrono::steady_clock::now();
  const double s = std::chrono::duration<double>(left).count();
  return s > 0.0 ? s : 0.0;
}

namespace {
// Signal handlers may only touch lock-free atomics, so the handler writes the
// token's raw flag through this pointer (published before the handler is
// installed and never changed afterwards). g_signal_token keeps the flag's
// storage alive for the rest of the process.
std::atomic<std::atomic<bool>*> g_signal_flag{nullptr};
CancelToken g_signal_token;

extern "C" void robust_signal_handler(int signum) {
  std::atomic<bool>* flag = g_signal_flag.load(std::memory_order_relaxed);
  if (flag == nullptr || flag->exchange(true, std::memory_order_relaxed)) {
    // Second signal (or no token): restore default disposition and re-raise,
    // so a run stuck past its cooperative poll can still be killed.
    std::signal(signum, SIG_DFL);
    std::raise(signum);
  }
}
}  // namespace

bool install_signal_cancel(const CancelToken& token) {
  if (!token.active()) return false;
  g_signal_token = token;
  g_signal_flag.store(token.raw_flag(), std::memory_order_release);
  std::signal(SIGINT, robust_signal_handler);
  std::signal(SIGTERM, robust_signal_handler);
  return true;
}

namespace detail {

void backoff_sleep(double seconds) {
  if (seconds > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }
}

void count_retry() { RLPLAN_COUNTER_INC("robust.retries"); }

}  // namespace detail

}  // namespace rlplan::robust
