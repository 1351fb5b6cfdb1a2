#include "serve/engine.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

#include "obs/metrics.h"
#include "parallel/thread_pool.h"
#include "util/log.h"
#include "util/stats.h"

namespace rlplan::serve {

namespace {
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
}  // namespace

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kQueued:
      return "queued";
    case JobState::kRunning:
      return "running";
    case JobState::kDone:
      return "done";
    case JobState::kFailed:
      return "failed";
    case JobState::kCancelled:
      return "cancelled";
  }
  return "?";
}

struct ServeEngine::Job {
  std::uint64_t id = 0;
  systems::Scenario scenario;
  SubmitOptions opts;
  JobState state = JobState::kQueued;
  robust::CancelToken token = robust::CancelToken::create();
  bool cancel_requested = false;
  bool ran = false;  ///< reached kRunning at least once
  std::string phase;
  std::uint64_t progress_seq = 0;
  Clock::time_point submit_tp{};
  Clock::time_point start_tp{};
  Clock::time_point finish_tp{};
  ScenarioRunResult result;
  bool has_result = false;
};

ServeEngine::ServeEngine(const thermal::LayerStack& stack,
                         ServeEngineConfig config)
    : config_(std::move(config)), runner_(stack, config_.runner) {
  workers_ = config_.workers > 0 ? config_.workers
                                 : parallel::ThreadPool::hardware_threads();
  lanes_.reserve(workers_);
  try {
    for (std::size_t i = 0; i < workers_; ++i) {
      lanes_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    shutdown();  // joins the lanes already started
    throw;
  }
}

ServeEngine::~ServeEngine() { shutdown(); }

std::uint64_t ServeEngine::submit(systems::Scenario scenario,
                                  SubmitOptions opts) {
  scenario.validate();
  std::unique_lock<std::mutex> lock(mutex_);
  if (shutdown_) throw std::runtime_error("engine is shut down");
  const std::uint64_t id = next_id_++;
  auto job = std::make_unique<Job>();
  job->id = id;
  job->scenario = std::move(scenario);
  job->opts = opts;
  job->submit_tp = Clock::now();
  jobs_.emplace(id, std::move(job));
  queue_.push_back(id);
  ++submitted_;
  RLPLAN_COUNTER_INC("serve.jobs.submitted");
  RLPLAN_GAUGE_SET("serve.queue_depth", queue_.size());
  lock.unlock();
  work_cv_.notify_one();
  return id;
}

bool ServeEngine::cancel(std::uint64_t id) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;
  Job& job = *it->second;
  job.cancel_requested = true;
  job.token.cancel();
  if (job.state == JobState::kQueued) {
    // Never ran: terminal immediately; the queue entry is skipped when a
    // worker pops it.
    job.state = JobState::kCancelled;
    job.finish_tp = Clock::now();
    ++cancelled_;
    RLPLAN_COUNTER_INC("serve.jobs.cancelled");
    lock.unlock();
    done_cv_.notify_all();
  }
  return true;
}

JobInfo ServeEngine::snapshot_locked(const Job& job) const {
  JobInfo info;
  info.id = job.id;
  info.name = job.scenario.name;
  info.state = job.state;
  info.priority = job.opts.priority;
  info.phase = job.phase;
  info.progress_seq = job.progress_seq;
  info.error = job.result.error;
  const Clock::time_point now = Clock::now();
  switch (job.state) {
    case JobState::kQueued:
      info.queued_seconds = seconds_between(job.submit_tp, now);
      break;
    case JobState::kRunning:
      info.queued_seconds = seconds_between(job.submit_tp, job.start_tp);
      info.run_seconds = seconds_between(job.start_tp, now);
      break;
    default:
      info.queued_seconds = seconds_between(
          job.submit_tp, job.ran ? job.start_tp : job.finish_tp);
      info.run_seconds =
          job.ran ? seconds_between(job.start_tp, job.finish_tp) : 0.0;
  }
  return info;
}

std::optional<JobInfo> ServeEngine::info(std::uint64_t id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  return snapshot_locked(*it->second);
}

std::optional<JobInfo> ServeEngine::wait(
    std::uint64_t id, const std::function<void(const JobInfo&)>& on_progress) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  Job& job = *it->second;
  std::uint64_t seen_seq = job.progress_seq;
  for (;;) {
    const bool terminal = job.state != JobState::kQueued &&
                          job.state != JobState::kRunning;
    if (terminal || shutdown_) return snapshot_locked(job);
    if (job.progress_seq != seen_seq) {
      // Consume the progress edge even without a callback — leaving it
      // unconsumed keeps the cv predicate permanently true and this loop
      // would spin holding the mutex, starving the worker's own progress
      // updates.
      seen_seq = job.progress_seq;
      if (on_progress) {
        const JobInfo snap = snapshot_locked(job);
        // Callback outside the lock: it writes to a socket and must not be
        // able to deadlock against engine state.
        lock.unlock();
        on_progress(snap);
        lock.lock();
      }
      continue;  // re-check: the job may have finished meanwhile
    }
    done_cv_.wait(lock, [&] {
      return shutdown_ || job.progress_seq != seen_seq ||
             (job.state != JobState::kQueued &&
              job.state != JobState::kRunning);
    });
  }
}

std::optional<util::JsonValue> ServeEngine::result_json(
    std::uint64_t id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return std::nullopt;
  const Job& job = *it->second;
  if (job.state == JobState::kQueued || job.state == JobState::kRunning) {
    return std::nullopt;
  }
  if (!job.has_result) {
    // Cancelled while queued (or shut down before running): no run payload.
    return util::JsonValue::make_object();
  }
  return run_result_to_json(job.result);
}

EngineStats ServeEngine::stats() const {
  EngineStats s;
  std::vector<double> latencies;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    s.queue_depth = queue_.size();
    for (const auto& [id, job] : jobs_) {
      if (job->state == JobState::kRunning) ++s.running;
    }
    s.submitted = submitted_;
    s.completed = completed_;
    s.failed = failed_;
    s.cancelled = cancelled_;
    latencies = latencies_s_;
  }
  s.cache = runner_.model_cache().stats();
  s.warm = runner_.warm_cache().stats();
  if (!latencies.empty()) {
    s.latency_p50_s = quantile(latencies, 0.5);
    s.latency_p99_s = quantile(latencies, 0.99);
  }
  return s;
}

void ServeEngine::request_shutdown() {
  shutdown_requested_.store(true, std::memory_order_relaxed);
}

bool ServeEngine::shutdown_requested() const {
  return shutdown_requested_.load(std::memory_order_relaxed);
}

void ServeEngine::shutdown() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (shutdown_) {
      lock.unlock();
    } else {
      shutdown_ = true;
      for (auto& [id, job] : jobs_) {
        job->cancel_requested = true;
        job->token.cancel();
        if (job->state == JobState::kQueued) {
          job->state = JobState::kCancelled;
          job->finish_tp = Clock::now();
          ++cancelled_;
        }
      }
      queue_.clear();
      lock.unlock();
      work_cv_.notify_all();
      done_cv_.notify_all();
    }
  }
  for (std::thread& lane : lanes_) {
    if (lane.joinable()) lane.join();
  }
}

void ServeEngine::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
    if (shutdown_) return;
    // Pop the highest-priority, earliest-submitted ready job. Linear scan:
    // queue depths are operator-scale and the scan runs under the same lock
    // a heap would need anyway.
    auto best = queue_.begin();
    for (auto it = std::next(best); it != queue_.end(); ++it) {
      if (jobs_.at(*it)->opts.priority > jobs_.at(*best)->opts.priority) {
        best = it;
      }
    }
    const std::uint64_t id = *best;
    queue_.erase(best);
    RLPLAN_GAUGE_SET("serve.queue_depth", queue_.size());
    Job& job = *jobs_.at(id);
    if (job.state != JobState::kQueued) continue;  // cancelled while queued
    job.state = JobState::kRunning;
    job.ran = true;
    job.start_tp = Clock::now();
    run_job(job);  // unlocks while running, relocks before returning
  }
}

void ServeEngine::run_job(Job& job) {
  // Called with mutex_ held on job entry; returns with it held.
  RunOptions opts;
  opts.deadline_s = job.opts.deadline_s;
  opts.cancel = job.token;
  opts.warm_start = job.opts.warm_start;
  opts.progress = [this, &job](const char* phase) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      job.phase = phase;
      ++job.progress_seq;
    }
    done_cv_.notify_all();
  };
  const systems::Scenario scenario = job.scenario;  // run outside the lock

  mutex_.unlock();
  ScenarioRunResult result = runner_.run(scenario, opts);
  mutex_.lock();

  job.result = std::move(result);
  job.has_result = true;
  job.finish_tp = Clock::now();
  if (job.cancel_requested) {
    job.state = JobState::kCancelled;
    ++cancelled_;
    RLPLAN_COUNTER_INC("serve.jobs.cancelled");
  } else if (!job.result.error.empty()) {
    job.state = JobState::kFailed;
    ++failed_;
    RLPLAN_COUNTER_INC("serve.jobs.failed");
  } else {
    job.state = JobState::kDone;
    ++completed_;
    RLPLAN_COUNTER_INC("serve.jobs.completed");
  }
  const double latency = seconds_between(job.submit_tp, job.finish_tp);
  latencies_s_.push_back(latency);
  RLPLAN_HISTOGRAM_OBSERVE("serve.job_latency_us", latency * 1e6);
  done_cv_.notify_all();
}

}  // namespace rlplan::serve
