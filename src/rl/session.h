// TrainingSession — the resumable, scenario-driven training engine.
//
// The one trainer over a PpoCore: experience collection over one or many
// problem instances, PPO updates, versioned full-state checkpointing, and
// multi-scenario curriculum training. RlPlanner and the serve runner behind
// tools/regress.cpp are thin shells over this class; tools/train.cpp exposes
// it directly (train/resume/eval subcommands, JSONL metrics).
//
// ## Lifecycle
//
//   tasks (name + system + thermal evaluator)
//        |
//        v
//   TrainingSession: one VecEnv per task — num_envs replicas, replica 0 on
//        |           the task's evaluator, replicas 1.. on clones, one
//        |           action stream each — plus a ThreadPool when
//        |           num_envs > 1 or num_threads > 1, which steps the
//        |           replicas and runs the net's passes and the update
//        v
//   train_epoch():  pick scenario (round-robin / sampled curriculum)
//                   -> parallel::collect_episodes over the task's replicas
//                   -> PpoCore::update (clipped-surrogate PPO + RND)
//                   -> per-scenario best-floorplan tracking
//        |
//        v
//   save_checkpoint() / load_checkpoint() at any epoch boundary
//
// ## Checkpoint format (RLPNNv2)
//
// A typed record stream (nn/serialize.h), named once, in order, by the
// session's schema over the component schemas. Sections, in order:
//
//   section    | records
//   -----------+------------------------------------------------------------
//   header     | version, grid, channels, num_envs, curriculum mode,
//              | trajectory-affecting PPO hyperparameters (validated on
//              | resume), num_tasks, per-task scenario names
//   net        | policy/value weights ("net.*"; warm-start readers stop here)
//   core       | update-RNG state, Adam moments + step count, reward-
//              | normalizer Welford state, intrinsic scale, RND block
//              | (target/predictor weights, predictor Adam, error Welford)
//   session    | epoch + env-step counters, curriculum RNG, per-task action
//              | RNG streams ("task.<t>.action_rng" for one replica,
//              | "task.<t>.rng.<j>" per replica otherwise), per-task best
//              | floorplan + metrics
//   end        | terminal marker (turns tail truncation into an error)
//
// Every float/double is stored as raw IEEE-754 bits and every RNG as its raw
// state, so `train(N)` and `train(k); save; load; train(N-k)` produce
// bit-identical parameters, statistics, and best floorplans — for one
// replica and many alike (tests/session_test.cpp asserts exactly this).
// load_checkpoint() validates the whole file against the session before it
// changes anything, so a load that throws leaves the session as it was.
//
// ## Curriculum
//
// With multiple tasks, one policy trains across all of them: kRoundRobin
// cycles scenarios epoch by epoch, kSampled draws the scenario per epoch
// from a dedicated curriculum RNG stream (util/rng.h seed contract). Every
// TrainStats is tagged with the scenario it trained on so mixed-scenario
// reward scales are never averaged together. Sequential warm-start
// fine-tuning onto a held-out scenario = a fresh single-task session +
// load_checkpoint(path, /*warm_start=*/true).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bump/bump_grid.h"
#include "core/chiplet.h"
#include "core/floorplan.h"
#include "core/reward.h"
#include "rl/env.h"
#include "rl/ppo.h"
#include "thermal/evaluator.h"
#include "util/rng.h"

namespace rlplan::parallel {
class ThreadPool;
class VecEnv;
}  // namespace rlplan::parallel

namespace rlplan::rl {

/// Scenario-selection policy when a session trains over multiple tasks.
enum class CurriculumMode {
  kRoundRobin,  ///< epoch e trains task e % num_tasks
  kSampled,     ///< task drawn per epoch from the curriculum RNG stream
};

/// One problem instance a session trains on.
struct SessionTask {
  std::string name;
  /// Must outlive the session at a stable address (floorplans returned by
  /// the session reference it).
  const ChipletSystem* system = nullptr;
  /// Drives replica 0; replicas 1.. drive clones of it, so it must support
  /// clone() when num_envs > 1. Its own num_evaluations() counts replica 0's
  /// episode ends.
  std::unique_ptr<thermal::ThermalEvaluator> evaluator;
};

struct TrainingSessionConfig {
  EnvConfig env{};
  PolicyNetConfig net{};
  PpoConfig ppo{};
  RewardParams reward{};
  bump::BumpGridConfig bump{};
  /// Environment replicas per task, in [1, VecEnv::kMaxEnvs]. See
  /// RlPlannerConfig for the full semantics.
  std::size_t num_envs = 1;
  /// Lanes of the session's own pool, at most VecEnv::kMaxEnvs; 0 =
  /// min(num_envs, hardware). The pool, built when num_envs > 1 or this is
  /// above 1, steps the replicas and runs the net's passes, both in
  /// collection and in the PPO update. A session built with one lane can
  /// still be lent a pool per update (train_epoch). Changes no result.
  std::size_t num_threads = 0;
  CurriculumMode curriculum = CurriculumMode::kRoundRobin;
  /// THE authoritative seed: every stream (net init, update shuffles, action
  /// sampling, RND, curriculum picks) derives from it — see util/rng.h.
  std::uint64_t seed = 1;
  bool verbose = false;
  /// Cooperative deadline/cancellation, polled at epoch and collection-batch
  /// granularity. A stopped train_epoch() returns immediately with its stats
  /// tagged (stop_reason != kNone); completed state — weights, counters,
  /// bests — is whatever the finished epochs produced, and a checkpoint
  /// saved then resumes bit-exactly. Inert by default.
  robust::RunControl control{};
};

class TrainingSession {
 public:
  /// Builds every task's VecEnv. Throws std::invalid_argument on an empty
  /// task list, a null system/evaluator, num_envs or num_threads out of
  /// range, or (num_envs > 1) an evaluator that cannot be cloned.
  TrainingSession(TrainingSessionConfig config,
                  std::vector<SessionTask> tasks);
  ~TrainingSession();

  TrainingSession(const TrainingSession&) = delete;
  TrainingSession& operator=(const TrainingSession&) = delete;

  /// One collect + update cycle on the scenario the curriculum picks.
  /// The returned stats carry that scenario's name. `update_lanes`, when
  /// given, is a pool lent for this epoch's PPO update in place of the
  /// session's own (ScenarioRunner lends its spare lanes this way); it must
  /// serve no other caller meanwhile. No result depends on it.
  TrainStats train_epoch(parallel::ThreadPool* update_lanes = nullptr);

  int epochs_completed() const { return epochs_completed_; }
  long total_env_steps() const { return total_env_steps_; }
  PpoCore& core() { return core_; }
  const TrainingSessionConfig& config() const { return config_; }

  std::size_t num_tasks() const { return tasks_.size(); }
  const SessionTask& task(std::size_t i) const { return tasks_.at(i); }

  /// Best complete (non-dead-end) floorplan sampled on task `i` so far.
  bool has_best(std::size_t i) const;
  const Floorplan& best_floorplan(std::size_t i) const;
  const EpisodeMetrics& best_metrics(std::size_t i) const;

  /// One greedy (argmax) episode on task `i`'s replica 0; updates that
  /// task's best when the greedy result improves on it. Consumes no RNG.
  EpisodeMetrics greedy_episode(std::size_t i);

  /// Scores an external complete floorplan with task `i`'s reward pipeline.
  EpisodeMetrics evaluate_floorplan(std::size_t i, const Floorplan& fp);

  /// Full-state RLPNNv2 checkpoint (format documented above). Deterministic
  /// content: no timestamps, so identical training histories produce
  /// byte-identical files. Serialized in memory and written through
  /// util::atomic_write_file, so a failed save never destroys the previous
  /// file; failures throw robust::TransientIoError.
  void save_checkpoint(const std::string& path) const;

  /// Restores a checkpoint. Default (resume) mode requires the session to
  /// match the checkpoint exactly — grid, channels, num_envs, task count
  /// and names, RND configuration — and restores every stream so training
  /// continues bit-exactly. With warm_start only the header and the net
  /// weights are read, and only grid and channels must match (fine-tuning
  /// path: fresh optimizer/normalizer/RNG over new scenarios). The file is
  /// read once; a check pass validates everything the load reads before
  /// an assigning pass stores it, so a load that throws changes nothing. A
  /// fault of the file itself (bad magic, truncation, a wrong record, a
  /// missing end, an oversized count) throws robust::CorruptArtifactError;
  /// a mismatch with this session (grid or channels, num_envs, curriculum,
  /// task names, PPO hyperparameters, RND presence, tensor shapes) or an
  /// unopenable path throws a plain std::runtime_error.
  void load_checkpoint(const std::string& path, bool warm_start = false);

  /// Updates config().control for an already-built session (deadline/cancel
  /// wiring from tools that construct the session before parsing budgets).
  void set_control(const robust::RunControl& control);

 private:
  struct TaskRuntime;

  std::size_t pick_task();
  /// The checkpoint schema: saves, or reads one pass of load_checkpoint.
  /// With warm_start it reads the header, enforcing only grid and
  /// channels, then the net weights, and stops.
  void state_io(nn::StateIo& io, bool warm_start);
  void consider_best(TaskRuntime& rt, const EpisodeMetrics& metrics,
                     const Floorplan& fp);

  TrainingSessionConfig config_;
  std::vector<SessionTask> tasks_;
  std::unique_ptr<parallel::ThreadPool> pool_;  ///< see num_threads
  std::vector<std::unique_ptr<TaskRuntime>> runtimes_;
  PpoCore core_;
  RolloutBuffer buffer_;
  Rng curriculum_rng_;
  int epochs_completed_ = 0;
  long total_env_steps_ = 0;
};

/// Corrupt-checkpoint auto-resume: tries each candidate in order (callers
/// list newest first) until one passes full validation and loads, and
/// returns that path. Candidates that fail with robust::CorruptArtifactError
/// are counted ("robust.ckpt_quarantined") and — when `quarantine` is set —
/// renamed to "<path>.corrupt" so later scans skip them. Missing files are
/// skipped silently (rotation histories have gaps). Any other load error —
/// a checkpoint that does not match the session — propagates at once and
/// renames nothing. Throws robust::CorruptArtifactError when no candidate
/// loads.
std::string load_newest_valid_checkpoint(
    TrainingSession& session, const std::vector<std::string>& candidates,
    bool warm_start = false, bool quarantine = true);

}  // namespace rlplan::rl
