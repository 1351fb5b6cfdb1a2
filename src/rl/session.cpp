#include "rl/session.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <stdexcept>

#include "nn/layers.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/collector.h"
#include "parallel/thread_pool.h"
#include "parallel/vec_env.h"
#include "rl/distribution.h"
#include "robust/fault.h"
#include "util/fs.h"
#include "util/log.h"

namespace rlplan::rl {

namespace {

std::string task_tag(std::size_t i) {
  return "task." + std::to_string(i);
}

/// Checkpoint record of task `tag`'s replica-`j` action stream. One-replica
/// sessions use the name existing one-replica checkpoints carry, so those
/// files keep resuming and stay byte-identical.
std::string rng_record(const std::string& tag, std::size_t j,
                       std::size_t num_envs) {
  return num_envs == 1 ? tag + ".action_rng"
                       : tag + ".rng." + std::to_string(j);
}

/// An executor over `pool`'s lanes, or none when it has no workers.
nn::BatchParallelFor executor_over(parallel::ThreadPool* pool) {
  if (pool == nullptr || pool->size() == 0) return {};
  return [pool](std::size_t n, const std::function<void(std::size_t)>& fn) {
    pool->parallel_for(n, fn);
  };
}

}  // namespace

/// Per-task mutable training state: the replicas with their action streams,
/// and the best floorplan sampled so far.
struct TrainingSession::TaskRuntime {
  parallel::VecEnv venv;
  std::optional<Floorplan> best;
  EpisodeMetrics best_metrics{};
};

TrainingSession::TrainingSession(TrainingSessionConfig config,
                                 std::vector<SessionTask> tasks)
    : config_([&] {
        config.net.grid = config.env.grid;
        config.net.channels_in = FloorplanEnv::kChannels;
        return config;
      }()),
      tasks_(std::move(tasks)),
      core_(config_.net, config_.ppo, config_.seed),
      curriculum_rng_(
          derive_named_stream_seed(config_.seed, substream::kCurriculum)) {
  if (tasks_.empty()) {
    throw std::invalid_argument("TrainingSession: no tasks");
  }
  if (config_.num_envs == 0) {
    throw std::invalid_argument("TrainingSession: num_envs must be >= 1");
  }
  // Same sanity cap as num_envs: a negative count cast to size_t must not
  // reach ThreadPool as a request for ~2^64 workers.
  if (config_.num_threads > parallel::VecEnv::kMaxEnvs) {
    throw std::invalid_argument("TrainingSession: num_threads must be <= " +
                                std::to_string(parallel::VecEnv::kMaxEnvs));
  }
  for (const SessionTask& t : tasks_) {
    if (t.system == nullptr || t.evaluator == nullptr) {
      throw std::invalid_argument(
          "TrainingSession: task '" + t.name +
          "' is missing its system or evaluator");
    }
  }

  const std::size_t lanes =
      config_.num_threads > 0
          ? config_.num_threads
          : std::min(config_.num_envs,
                     parallel::ThreadPool::hardware_threads());
  if (config_.num_envs > 1 || lanes > 1) {
    pool_ = std::make_unique<parallel::ThreadPool>(lanes);
    core_.set_executor(executor_over(pool_.get()));
  }

  runtimes_.reserve(tasks_.size());
  for (std::size_t ti = 0; ti < tasks_.size(); ++ti) {
    SessionTask& t = tasks_[ti];
    // Per-task base seed (util/rng.h): task 0 uses the master seed directly
    // (single-scenario sessions match RlPlanner streams); later tasks derive
    // independent bases so curriculum tasks never replay each other's
    // action sequences.
    const std::uint64_t task_seed =
        ti == 0 ? config_.seed
                : derive_named_stream_seed(config_.seed,
                                           substream::kTaskBase + ti);
    runtimes_.push_back(std::make_unique<TaskRuntime>(parallel::VecEnv(
        *t.system, *t.evaluator, RewardCalculator(config_.reward),
        bump::BumpAssigner(config_.bump), config_.env, config_.num_envs,
        task_seed)));
  }
}

TrainingSession::~TrainingSession() = default;

std::size_t TrainingSession::pick_task() {
  if (tasks_.size() == 1) return 0;
  if (config_.curriculum == CurriculumMode::kSampled) {
    return curriculum_rng_.uniform_int(
        static_cast<std::uint64_t>(tasks_.size()));
  }
  return static_cast<std::size_t>(epochs_completed_) % tasks_.size();
}

void TrainingSession::consider_best(TaskRuntime& rt,
                                    const EpisodeMetrics& metrics,
                                    const Floorplan& fp) {
  if (!metrics.valid) return;
  if (!rt.best || metrics.reward > rt.best_metrics.reward) {
    rt.best = fp;
    rt.best_metrics = metrics;
  }
}

TrainStats TrainingSession::train_epoch(parallel::ThreadPool* update_lanes) {
  // Epoch-granularity stop: return before consuming any stream (curriculum
  // pick included), so a stopped session checkpoints exactly the state of
  // its last completed epoch.
  if (config_.control.active() && config_.control.stop_requested()) {
    TrainStats stats;
    stats.stop_reason = config_.control.stop_reason();
    RLPLAN_COUNTER_INC("robust.degraded");
    return stats;
  }
  // The span tag is the absolute epoch index so curriculum phases line up
  // in the trace timeline; per-scenario attribution rides on the counter.
  RLPLAN_TRACE_SPAN("rl.epoch", static_cast<std::int64_t>(epochs_completed_));
  // Snapshot every checkpointed stream this epoch consumes. A cancel lands
  // mid-collection, and the abandoned partial epoch must not leak into the
  // checkpoint: rewinding these makes the stopped state identical to the
  // last completed epoch, so resume replays the interrupted epoch bit-exactly
  // against an uninterrupted run. (Best-so-far is deliberately NOT rewound —
  // it is a monotone max over the same replayed episode stream, so keeping
  // partial-epoch discoveries is both safe and what "best-so-far" means.)
  const auto curriculum_state = curriculum_rng_.state();
  const std::size_t ti = pick_task();
  TaskRuntime& rt = *runtimes_[ti];
  parallel::VecEnv& venv = rt.venv;
  std::vector<std::array<std::uint64_t, 4>> rng_states;
  rng_states.reserve(venv.size());
  for (std::size_t j = 0; j < venv.size(); ++j) {
    rng_states.push_back(venv.rng(j).state());
  }
  const long steps_before = total_env_steps_;
  const PpoCore::RewardNormState rew_before = core_.reward_norm_state();

  TrainStats stats;
  stats.scenario = tasks_[ti].name;
  buffer_.clear();
  // Clamp before the size_t conversion: a (mis)configured negative episode
  // count must mean "collect nothing", not 2^64.
  const auto episodes = static_cast<std::size_t>(
      std::max(core_.config().episodes_per_update, 0));
  parallel::CollectorStats cstats;
  {
    RLPLAN_TRACE_SPAN("rl.collect", static_cast<std::int64_t>(episodes));
    cstats = parallel::collect_episodes(
        venv, core_.net(), episodes, buffer_, pool_.get(),
        [&](std::size_t env_index, const StepOutcome& outcome) {
          if (!outcome.dead_end) {
            const FloorplanEnv& env = venv.env(env_index);
            consider_best(rt, env.last_metrics(), env.floorplan());
          }
          core_.record_episode_reward(outcome.reward);
        },
        config_.control);
  }
  stats.stop_reason = cstats.stop_reason;
  RLPLAN_COUNTER_ADD("rl.env_steps", cstats.steps);
  RLPLAN_COUNTER_ADD("rl.episodes", cstats.episodes);
  total_env_steps_ += static_cast<long>(cstats.steps);

  stats.steps = cstats.steps;
  stats.episodes = cstats.episodes;
  stats.dead_ends = cstats.dead_ends;
  stats.mean_reward =
      cstats.episodes > 0
          ? cstats.reward_sum / static_cast<double>(cstats.episodes)
          : 0.0;
  stats.best_reward = cstats.episodes > 0 ? cstats.reward_best : 0.0;

  // A cancelled epoch is a partial epoch on the way out (e.g. a SIGINT
  // heading for a final checkpoint), not a completed one: it skips the
  // update — and the RND bonuses, whose error statistics are checkpointed —
  // and rewinds the streams it consumed, so the checkpoint is the
  // last-completed-epoch state. A deadline-stopped epoch still updates on
  // the full episodes it managed to collect (best-so-far).
  if (stats.stop_reason == robust::StopReason::kCancelled) {
    curriculum_rng_.set_state(curriculum_state);
    for (std::size_t j = 0; j < venv.size(); ++j) {
      venv.rng(j).set_state(rng_states[j]);
    }
    total_env_steps_ = steps_before;
    core_.restore_reward_norm(rew_before);
    return stats;
  }
  if (!buffer_.empty()) {
    core_.fill_intrinsic(buffer_);
    RLPLAN_TRACE_SPAN("rl.update",
                      static_cast<std::int64_t>(buffer_.steps().size()));
    parallel::ThreadPool* lanes =
        update_lanes != nullptr ? update_lanes : pool_.get();
    if (lanes == nullptr || lanes->size() == 0) {
      RLPLAN_COUNTER_INC("rl.update.serial");
      core_.update(buffer_, stats);
    } else {
      RLPLAN_COUNTER_INC("rl.update.lent");
      // Nested in rl.update, so a trace shows which updates ran on lanes.
      RLPLAN_TRACE_SPAN("rl.update.lent",
                        static_cast<std::int64_t>(lanes->size() + 1));
      // Lent lanes serve this update only; the session's own executor comes
      // back afterwards, also when the update throws.
      core_.set_executor(executor_over(lanes));
      struct Restore {
        PpoCore& core;
        parallel::ThreadPool* own;
        ~Restore() { core.set_executor(executor_over(own)); }
      } restore{core_, pool_.get()};
      core_.update(buffer_, stats);
    }
  }
  if (obs::metrics_enabled()) {
    // Dynamic name => registered through the registry, not the static-cache
    // macro (one mutex-guarded lookup per epoch, far off the hot path).
    obs::MetricsRegistry::instance()
        .counter("rl.epochs." + stats.scenario)
        .add(1);
  }
  ++epochs_completed_;

  if (config_.verbose) {
    RLPLAN_INFO << "epoch " << (epochs_completed_ - 1) << " ["
                << stats.scenario << "]: mean_reward=" << stats.mean_reward
                << " best=" << stats.best_reward
                << " entropy=" << stats.entropy
                << " dead_ends=" << stats.dead_ends;
  }
  return stats;
}

bool TrainingSession::has_best(std::size_t i) const {
  return runtimes_.at(i)->best.has_value();
}

const Floorplan& TrainingSession::best_floorplan(std::size_t i) const {
  const TaskRuntime& rt = *runtimes_.at(i);
  if (!rt.best) {
    throw std::logic_error("TrainingSession: no complete episode on task '" +
                           tasks_[i].name + "' yet");
  }
  return *rt.best;
}

const EpisodeMetrics& TrainingSession::best_metrics(std::size_t i) const {
  return runtimes_.at(i)->best_metrics;
}

EpisodeMetrics TrainingSession::greedy_episode(std::size_t i) {
  // Replica 0 plays the argmax episode; a dead end leaves its
  // last_metrics() invalid.
  FloorplanEnv& env = runtimes_.at(i)->venv.env(0);
  env.reset();
  while (!env.done()) {
    nn::Tensor batch = env.observation();
    batch.reshape({1, batch.dim(0), batch.dim(1), batch.dim(2)});
    const PolicyValueNet::Output out = core_.net().forward(batch);
    env.step(MaskedCategorical(out.logits.data(), env.action_mask()).argmax());
  }
  const EpisodeMetrics metrics = env.last_metrics();
  if (metrics.valid) {
    consider_best(*runtimes_[i], metrics, env.floorplan());
  }
  return metrics;
}

EpisodeMetrics TrainingSession::evaluate_floorplan(std::size_t i,
                                                   const Floorplan& fp) {
  return runtimes_.at(i)->venv.env(0).evaluate_floorplan(fp);
}

void TrainingSession::set_control(const robust::RunControl& control) {
  config_.control = control;
}

// --- Checkpointing -----------------------------------------------------------

void TrainingSession::state_io(nn::StateIo& io, bool warm_start) {
  // Header. Architecture must match in every mode (the weights below are
  // meaningless otherwise); session shape only for full resume.
  std::uint64_t version = 2;
  const std::uint64_t stored_version = io.u64("version", version);
  if (stored_version != 2) {
    throw robust::CorruptArtifactError("checkpoint: unsupported version " +
                                       std::to_string(stored_version));
  }
  const std::string arch =
      "checkpoint: network architecture mismatch (grid/channels)";
  io.expect("grid", std::uint64_t{config_.net.grid}, arch);
  io.expect("channels", std::uint64_t{config_.net.channels_in}, arch);
  const bool resume = !warm_start;
  io.expect("num_envs", std::uint64_t{config_.num_envs},
            "checkpoint: num_envs mismatch (session " +
                std::to_string(config_.num_envs) + ")",
            resume);
  io.expect("curriculum_mode", static_cast<std::uint64_t>(config_.curriculum),
            "checkpoint: curriculum mode mismatch", resume);
  // Trajectory-affecting PPO hyperparameters: a resume with different
  // values would silently diverge from the advertised bit-exact
  // continuation, so a resume enforces them (warm start does not).
  {
    const auto ppo = [&](const char* name, auto value) {
      io.expect(name, value,
                std::string("checkpoint: PPO hyperparameter mismatch on "
                            "resume (") +
                    name +
                    "); pass the same training configuration, or load with "
                    "warm_start=true",
                resume);
    };
    const PpoConfig& p = config_.ppo;
    ppo("ppo.episodes_per_update",
        static_cast<std::uint64_t>(p.episodes_per_update));
    ppo("ppo.update_epochs", static_cast<std::uint64_t>(p.update_epochs));
    ppo("ppo.minibatch", std::uint64_t{p.minibatch});
    ppo("ppo.clip", p.clip);
    ppo("ppo.vf_coef", p.vf_coef);
    ppo("ppo.ent_coef", p.ent_coef);
    ppo("ppo.max_grad_norm", p.max_grad_norm);
    ppo("ppo.gamma", p.gae.gamma);
    ppo("ppo.lam", p.gae.lam);
    ppo("ppo.lr", p.adam.lr);
    ppo("ppo.beta1", p.adam.beta1);
    ppo("ppo.beta2", p.adam.beta2);
    ppo("ppo.eps", p.adam.eps);
    ppo("ppo.weight_decay", p.adam.weight_decay);
    ppo("ppo.intrinsic_coef", p.intrinsic_coef);
    ppo("ppo.intrinsic_decay", p.intrinsic_decay);
    ppo("ppo.normalize_rewards", std::uint64_t{p.normalize_rewards ? 1u : 0u});
    ppo("ppo.rnd_predictor_lr", p.rnd.predictor_lr);
    ppo("ppo.rnd_bonus_clip", p.rnd.bonus_clip);
    ppo("ppo.rnd_train_batch", std::uint64_t{p.rnd.train_batch});
  }
  std::uint64_t num_tasks = tasks_.size();
  const std::uint64_t stored_tasks = io.u64("num_tasks", num_tasks);
  // Cap before the name loop: a corrupt count is a file fault.
  if (stored_tasks > parallel::VecEnv::kMaxEnvs) {
    throw robust::CorruptArtifactError("checkpoint: corrupt task count");
  }
  if (resume && stored_tasks != tasks_.size()) {
    throw std::runtime_error("checkpoint: task count mismatch");
  }
  for (std::size_t i = 0; i < stored_tasks; ++i) {
    // A warm start reads names past the session's task count unchecked.
    const std::string name = i < tasks_.size() ? tasks_[i].name : "";
    io.expect(task_tag(i) + ".name", name,
              "checkpoint: task " + std::to_string(i) +
                  " is not the session's '" + name + "'",
              resume);
  }

  // Net weights + full core state; a warm start stops after the weights,
  // leaving the rest of the stream unread.
  core_.state_io(io, warm_start);
  if (warm_start) return;

  // Session state.
  io.u64("session.epochs_completed", epochs_completed_);
  io.u64("session.total_env_steps", total_env_steps_);
  io.rng("session.curriculum_rng", curriculum_rng_);
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    TaskRuntime& rt = *runtimes_[i];
    const std::string tag = task_tag(i);
    for (std::size_t j = 0; j < config_.num_envs; ++j) {
      io.rng(rng_record(tag, j, config_.num_envs), rt.venv.rng(j));
    }
    std::uint64_t present = rt.best ? 1 : 0;
    if (io.u64(tag + ".best_present", present) == 0) {
      if (io.assigning()) {
        rt.best.reset();
        rt.best_metrics = {};
      }
      continue;
    }
    // Placements flattened as [placed, x bits, y bits, rotated] per
    // chiplet; doubles as raw IEEE bits for exact round-trip.
    const std::size_t n = tasks_[i].system->num_chiplets();
    std::vector<std::uint64_t> flat(n * 4);
    if (rt.best) {
      for (std::size_t k = 0; k < n; ++k) {
        const auto& p = rt.best->placement(k);
        flat[k * 4] = p.has_value() ? 1 : 0;
        flat[k * 4 + 1] = p ? std::bit_cast<std::uint64_t>(p->position.x) : 0;
        flat[k * 4 + 2] = p ? std::bit_cast<std::uint64_t>(p->position.y) : 0;
        flat[k * 4 + 3] = p && p->rotated ? 1 : 0;
      }
    }
    io.u64vec(tag + ".best_placements", flat);
    io.f64(tag + ".best_wirelength_mm", rt.best_metrics.wirelength_mm);
    io.f64(tag + ".best_temperature_c", rt.best_metrics.temperature_c);
    io.f64(tag + ".best_reward", rt.best_metrics.reward);
    if (io.assigning()) {
      Floorplan fp(*tasks_[i].system);
      for (std::size_t k = 0; k < n; ++k) {
        if (flat[k * 4] != 0) {
          fp.place(k,
                   {std::bit_cast<double>(flat[k * 4 + 1]),
                    std::bit_cast<double>(flat[k * 4 + 2])},
                   flat[k * 4 + 3] != 0);
        }
      }
      rt.best = std::move(fp);
      rt.best_metrics.valid = true;
    }
  }
  io.finish();
}

void TrainingSession::save_checkpoint(const std::string& path) const {
  // The "ckpt_write" chaos site injects a TransientIoError (callers may
  // retry) before any byte is written.
  if (robust::fault_point("ckpt_write")) {
    throw robust::TransientIoError(path + ": injected ckpt_write fault");
  }
  nn::StateIo io;
  // A saving pass only reads the members the schema names.
  const_cast<TrainingSession*>(this)->state_io(io, /*warm_start=*/false);
  util::atomic_write_file(path, io.bytes());
}

void TrainingSession::load_checkpoint(const std::string& path,
                                      bool warm_start) {
  // Read once: serve's warm-start cache renames fresh checkpoints over the
  // path other jobs read, so two opens could see two different files.
  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw std::runtime_error("TrainingSession: cannot open " + path);
  }
  const std::string bytes(std::istreambuf_iterator<char>(is),
                          std::istreambuf_iterator<char>{});
  // The check pass throws on any fault or mismatch before the assigning
  // pass stores a record, so a rejected load changes nothing.
  for (const bool assign : {false, true}) {
    nn::StateIo io(bytes, assign);
    state_io(io, warm_start);
  }
}

std::string load_newest_valid_checkpoint(
    TrainingSession& session, const std::vector<std::string>& candidates,
    bool warm_start, bool quarantine) {
  std::vector<std::string> quarantined;
  for (const std::string& path : candidates) {
    {
      // Missing candidates are normal (rotation histories have gaps);
      // only files that exist but fail to load count as corruption.
      std::ifstream probe(path, std::ios::binary);
      if (!probe) continue;
    }
    // Only a fault of the file itself moves on to the next candidate. Any
    // other error (a checkpoint that does not match this session, an
    // unreadable path) would fail every candidate alike, so it propagates
    // before anything is renamed.
    try {
      session.load_checkpoint(path, warm_start);
      return path;
    } catch (const robust::CorruptArtifactError& e) {
      RLPLAN_COUNTER_INC("robust.ckpt_quarantined");
      RLPLAN_WARN << "checkpoint " << path
                  << " failed to load, trying next candidate: " << e.what();
      quarantined.push_back(path);
      if (quarantine) {
        const std::string bad = path + ".corrupt";
        if (std::rename(path.c_str(), bad.c_str()) != 0) {
          RLPLAN_WARN << "could not quarantine " << path << " to " << bad;
        }
      }
    }
  }
  std::string msg = "no valid checkpoint among " +
                    std::to_string(candidates.size()) + " candidate(s)";
  if (!quarantined.empty()) {
    msg += "; failed:";
    for (const std::string& q : quarantined) msg += " " + q;
  }
  throw robust::CorruptArtifactError(msg);
}

}  // namespace rlplan::rl
