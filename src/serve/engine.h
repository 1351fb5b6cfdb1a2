// ServeEngine — the daemon's job scheduler.
//
// Owns one ScenarioRunner (and through it the cross-request caches) plus a
// priority job queue drained by `workers` plain threads, each looping
// pop-job/run-job until shutdown, so exactly `workers` jobs run at once.
// The lanes are dedicated threads rather than a ThreadPool::parallel_for:
// a job lane lives as long as the engine, and the pool's dispatch may
// degrade to inline execution (the pool_dispatch fault site), which would
// leave one lane running every job.
//
// Job lifecycle: queued -> running -> done | failed | cancelled.
//  * Priorities: higher runs first; FIFO (submission order) within a
//    priority.
//  * Cancellation is cooperative and two-phase: a queued job is marked and
//    skipped when popped (it never runs); a running job's CancelToken makes
//    the optimizer legs return best-so-far with degraded/stop_reason tags
//    (the PR 7 machinery), and the job lands in kCancelled with that partial
//    result attached.
//  * Per-job deadline (optional) starts when the job starts running, after
//    any shared characterization — RunOptions semantics.
//
// All engine state is guarded by one mutex + condvar pair; the expensive
// work (the runner) executes outside the lock.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <condition_variable>
#include <mutex>

#include "serve/runner.h"
#include "systems/scenario.h"
#include "util/json.h"

namespace rlplan::serve {

enum class JobState { kQueued, kRunning, kDone, kFailed, kCancelled };
const char* to_string(JobState state);

struct SubmitOptions {
  int priority = 0;        ///< higher runs first; FIFO within a priority
  bool warm_start = false; ///< opt into the family warm-start cache
  double deadline_s = 0.0; ///< per-job wall budget once running (0 = none)
};

/// Snapshot of one job, safe to read after the job is gone from the queue.
struct JobInfo {
  std::uint64_t id = 0;
  std::string name;               ///< scenario name
  JobState state = JobState::kQueued;
  int priority = 0;
  std::string phase;              ///< last progress phase while running
  std::uint64_t progress_seq = 0; ///< bumps on every phase change
  double queued_seconds = 0.0;    ///< submit -> start (or now)
  double run_seconds = 0.0;       ///< start -> finish (or now)
  std::string error;              ///< terminal failure (kFailed)
};

struct EngineStats {
  std::size_t queue_depth = 0;
  std::size_t running = 0;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;  ///< kDone
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  CharacterizationCacheStats cache;
  WarmStartCacheStats warm;
  /// Submit -> finish latency over every terminal job, seconds.
  double latency_p50_s = 0.0;
  double latency_p99_s = 0.0;
};

struct ServeEngineConfig {
  /// Concurrent job lanes, one thread each. 0 = hardware concurrency.
  std::size_t workers = 0;
  RunnerConfig runner{};
};

class ServeEngine {
 public:
  /// Builds the runner (copying the stack) and starts the worker lanes.
  ServeEngine(const thermal::LayerStack& stack, ServeEngineConfig config);
  ~ServeEngine();  ///< implies shutdown()

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Enqueues a validated scenario; returns the job id (monotonic from 1).
  /// Throws std::runtime_error after shutdown.
  std::uint64_t submit(systems::Scenario scenario, SubmitOptions opts = {});

  /// Requests cancellation. Queued jobs become kCancelled immediately;
  /// running jobs stop cooperatively and land in kCancelled with their
  /// best-so-far result. Returns false for unknown ids; true otherwise
  /// (including jobs already terminal — cancel is idempotent).
  bool cancel(std::uint64_t id);

  /// Snapshot of one job; nullopt for unknown ids.
  std::optional<JobInfo> info(std::uint64_t id) const;

  /// Blocks until the job is terminal (or the engine shuts down), invoking
  /// `on_progress` from the waiting thread whenever the job's progress
  /// sequence advances. Returns the final snapshot; nullopt for unknown ids.
  std::optional<JobInfo> wait(
      std::uint64_t id,
      const std::function<void(const JobInfo&)>& on_progress = {});

  /// Full result payload (run_result_to_json) for terminal jobs; nullopt
  /// while queued/running or for unknown ids. Cancelled-while-queued jobs
  /// report an empty result object (they never ran).
  std::optional<util::JsonValue> result_json(std::uint64_t id) const;

  EngineStats stats() const;
  ScenarioRunner& runner() { return runner_; }

  /// Number of job lanes actually running.
  std::size_t workers() const { return workers_; }

  /// Protocol-level shutdown request flag (the transport owner polls it).
  void request_shutdown();
  bool shutdown_requested() const;

  /// Stops accepting work, cancels every queued and running job, and joins
  /// the lanes. Idempotent.
  void shutdown();

 private:
  struct Job;

  void worker_loop();
  JobInfo snapshot_locked(const Job& job) const;
  void run_job(Job& job);

  ServeEngineConfig config_;
  ScenarioRunner runner_;
  std::size_t workers_ = 1;
  std::vector<std::thread> lanes_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   ///< workers wait for jobs
  std::condition_variable done_cv_;   ///< wait()ers wait for transitions
  // Ready queue: ids ordered by (-priority, submit seq). A deque scan on
  // pop keeps the structure trivially correct under mid-queue cancellation;
  // queue depths are operator-scale (hundreds), not millions.
  std::deque<std::uint64_t> queue_;
  std::map<std::uint64_t, std::unique_ptr<Job>> jobs_;
  std::uint64_t next_id_ = 1;
  std::uint64_t submitted_ = 0, completed_ = 0, failed_ = 0, cancelled_ = 0;
  std::vector<double> latencies_s_;
  bool shutdown_ = false;
  std::atomic<bool> shutdown_requested_{false};
};

}  // namespace rlplan::serve
