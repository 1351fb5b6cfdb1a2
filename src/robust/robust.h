// Fault-tolerant execution primitives shared by every long-running pipeline.
//
// Three orthogonal pieces:
//
//  * A typed error taxonomy (RobustError and its subclasses) so callers can
//    react by type — transient IO gets retried, corrupt artifacts get
//    quarantined — instead of string-matching `what()`.
//
//  * Cooperative stop signals: `Deadline` (wall-clock budget) and
//    `CancelToken` (shared flag, settable from another thread or a signal
//    handler), bundled as a cheap-to-copy `RunControl`. Pipelines poll
//    `stop_requested()` at coarse boundaries — SA round, RL epoch, collection
//    batch, characterization probe — and return their best-so-far result
//    tagged with a StopReason rather than running away or throwing mid-work.
//    A default-constructed RunControl is inert and costs one branch per poll,
//    so the layer is invisible when no budget is set.
//
//  * `retry_with_backoff`: bounded exponential-backoff retry for
//    TransientIoError (checkpoint/artifact writes).
//
// Determinism contract: stopping is only ever *earlier* termination of the
// same deterministic sequence — a cancelled run's partial result equals the
// prefix of the uncancelled run (tests/robust_test.cpp enforces this for SA).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

namespace rlplan::robust {

// ------------------------------------------------------------- error taxonomy

/// Base of the layer's typed errors.
class RobustError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Retryable: an interrupted or failed write, a busy file.
class TransientIoError : public RobustError {
 public:
  using RobustError::RobustError;
};

/// Permanent: a checkpoint, model file or JSON document failed validation.
class CorruptArtifactError : public RobustError {
 public:
  using RobustError::RobustError;
};

/// A cooperative stop honoured where best-so-far is impossible (e.g.
/// mid-characterization).
class CancelledError : public RobustError {
 public:
  using RobustError::RobustError;
};

// -------------------------------------------------------- cooperative stopping

/// Why a pipeline stopped early. kNone == ran to natural completion; anything
/// else means the result is best-so-far and should carry a "degraded" tag.
enum class StopReason { kNone, kCancelled, kDeadline };

const char* to_string(StopReason reason);

/// Wall-clock budget. Default-constructed == unlimited (never expires).
class Deadline {
 public:
  Deadline() = default;

  /// Budget of `seconds` starting now. seconds <= 0 (or NaN) is already
  /// expired. The budget saturates: from ~100 years up, +inf included, the
  /// deadline never expires (converting such budgets to clock ticks would
  /// overflow).
  static Deadline after_seconds(double seconds) {
    constexpr double kNeverSeconds = 3.0e9;
    Deadline d;
    d.set_ = true;
    const auto now = std::chrono::steady_clock::now();
    if (seconds >= kNeverSeconds) {
      d.at_ = std::chrono::steady_clock::time_point::max();
    } else if (seconds > 0.0) {
      d.at_ = now + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(seconds));
    } else {
      d.at_ = now;
    }
    return d;
  }

  bool unlimited() const { return !set_; }
  bool expired() const {
    return set_ && std::chrono::steady_clock::now() >= at_;
  }
  /// Seconds left; +inf when unlimited, 0 when expired.
  double remaining_seconds() const;

 private:
  std::chrono::steady_clock::time_point at_{};
  bool set_ = false;
};

/// Shared cooperative-cancellation flag. Value semantics: copies observe (and
/// set) the same flag. Default-constructed tokens are inert — never cancelled,
/// cancel() is a no-op — so APIs can take a CancelToken by value at zero cost.
class CancelToken {
 public:
  CancelToken() = default;

  /// A fresh, live token (uncancelled, shared by all copies).
  static CancelToken create() {
    CancelToken t;
    t.flag_ = std::make_shared<std::atomic<bool>>(false);
    return t;
  }

  bool active() const { return flag_ != nullptr; }
  bool cancelled() const {
    return flag_ && flag_->load(std::memory_order_relaxed);
  }
  /// Safe from any thread. (The underlying store is async-signal-safe, but
  /// signal handlers should go through install_signal_cancel() below, which
  /// uses a pre-registered raw atomic.)
  void cancel() const {
    if (flag_) flag_->store(true, std::memory_order_relaxed);
  }

  /// Raw flag pointer for async-signal contexts (install_signal_cancel keeps
  /// a token copy alive so the pointee never dies); nullptr when inert.
  std::atomic<bool>* raw_flag() const { return flag_.get(); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Bundle of stop signals threaded through pipeline entry points. Cheap to
/// copy; the default instance is inert (active() == false) and pipelines
/// short-circuit their polls on that, so an unset control costs one branch.
struct RunControl {
  Deadline deadline{};
  CancelToken cancel{};

  bool active() const { return !deadline.unlimited() || cancel.active(); }
  /// Cancellation wins over deadline when both fire (it is the explicit ask).
  StopReason stop_reason() const {
    if (cancel.cancelled()) return StopReason::kCancelled;
    if (deadline.expired()) return StopReason::kDeadline;
    return StopReason::kNone;
  }
  bool stop_requested() const {
    return active() && stop_reason() != StopReason::kNone;
  }
};

/// Routes SIGINT/SIGTERM to `token` (async-signal-safely: the handler writes
/// one pre-registered atomic). Returns false if the token is inert. A second
/// signal after cancellation restores default disposition, so a stuck process
/// can still be killed with a repeated Ctrl-C.
bool install_signal_cancel(const CancelToken& token);

// ----------------------------------------------------------------------- retry

struct RetryOptions {
  int max_attempts = 3;              ///< total attempts, including the first
  double initial_backoff_s = 0.05;   ///< sleep before attempt 2
  double backoff_multiplier = 2.0;   ///< geometric growth per further attempt
  double max_backoff_s = 1.0;
};

namespace detail {
/// Sleep hook behind retry_with_backoff (no-op for non-positive durations).
void backoff_sleep(double seconds);
/// Obs accounting: one retry attempt consumed ("robust.retries").
void count_retry();
}  // namespace detail

/// Runs `fn`, retrying on TransientIoError (only — every other exception
/// propagates immediately) with exponential backoff. Rethrows the last
/// transient error once attempts are exhausted.
template <typename Fn>
auto retry_with_backoff(Fn&& fn, const RetryOptions& options = {})
    -> decltype(fn()) {
  double backoff = options.initial_backoff_s;
  for (int attempt = 1;; ++attempt) {
    try {
      return fn();
    } catch (const TransientIoError&) {
      if (attempt >= options.max_attempts) throw;
      detail::count_retry();
      detail::backoff_sleep(backoff);
      backoff = std::min(backoff * options.backoff_multiplier,
                         options.max_backoff_s);
    }
  }
}

}  // namespace rlplan::robust
