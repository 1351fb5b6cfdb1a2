#include "rl/session.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
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
#include "util/log.h"

namespace rlplan::rl {

namespace {

std::uint64_t f64_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double bits_f64(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

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

/// Installs `pool` (when non-null) as the nn batch executor for its
/// lifetime, so every forward of an epoch — rollout batches and PPO
/// minibatches — fans its batch rows out over the workers, and restores the
/// previous executor on exit (LIFO). Row-wise arithmetic is untouched, so
/// results stay bit-identical.
class ScopedBatchExecutor {
 public:
  explicit ScopedBatchExecutor(parallel::ThreadPool* pool) : pool_(pool) {
    if (pool_ == nullptr) return;
    previous_ = nn::exchange_batch_parallel_for(
        [pool](std::size_t count,
               const std::function<void(std::size_t)>& fn) {
          pool->parallel_for(count, fn);
        });
  }
  ~ScopedBatchExecutor() {
    if (pool_ != nullptr) nn::set_batch_parallel_for(std::move(previous_));
  }
  ScopedBatchExecutor(const ScopedBatchExecutor&) = delete;
  ScopedBatchExecutor& operator=(const ScopedBatchExecutor&) = delete;

 private:
  parallel::ThreadPool* pool_;
  nn::BatchParallelFor previous_;
};

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

  if (config_.num_envs > 1) {
    const std::size_t threads =
        config_.num_threads > 0
            ? config_.num_threads
            : std::min(config_.num_envs,
                       parallel::ThreadPool::hardware_threads());
    pool_ = std::make_unique<parallel::ThreadPool>(threads);
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

TrainStats TrainingSession::train_epoch() {
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
  std::vector<parallel::EnvSlot> slots;
  std::vector<std::array<std::uint64_t, 4>> rng_states;
  slots.reserve(venv.size());
  rng_states.reserve(venv.size());
  for (std::size_t j = 0; j < venv.size(); ++j) {
    slots.push_back({&venv.env(j), &venv.rng(j)});
    rng_states.push_back(venv.rng(j).state());
  }
  const long steps_before = total_env_steps_;
  const PpoCore::RewardNormState rew_before = core_.reward_norm_state();

  TrainStats stats;
  stats.scenario = tasks_[ti].name;
  buffer_.clear();
  const ScopedBatchExecutor executor(pool_.get());
  // Clamp before the size_t conversion: a (mis)configured negative episode
  // count must mean "collect nothing", not 2^64.
  const auto episodes = static_cast<std::size_t>(
      std::max(core_.config().episodes_per_update, 0));
  parallel::CollectorStats cstats;
  {
    RLPLAN_TRACE_SPAN("rl.collect", static_cast<std::int64_t>(episodes));
    cstats = parallel::collect_episodes(
        slots, core_.net(), episodes, buffer_, pool_.get(),
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
    core_.update(buffer_, stats);
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

void TrainingSession::save_checkpoint(const std::string& path) const {
  // Write-then-rename: a crash mid-save must never destroy the previous
  // checkpoint (rename over the target is atomic on POSIX), especially when
  // the target is the very file this session resumed from.
  // Failures throw robust::TransientIoError (callers may retry; the "ckpt_write"
  // chaos site injects exactly that class before any byte is written).
  if (robust::fault_point("ckpt_write")) {
    throw robust::TransientIoError(path + ": injected ckpt_write fault");
  }
  const std::string tmp_path = path + ".tmp";
  std::ofstream os(tmp_path, std::ios::binary | std::ios::trunc);
  if (!os) {
    throw robust::TransientIoError("TrainingSession: cannot open " + tmp_path);
  }
  nn::StateWriter w(os);

  // Header.
  w.u64("version", 2);
  w.u64("grid", config_.net.grid);
  w.u64("channels", config_.net.channels_in);
  w.u64("num_envs", config_.num_envs);
  w.u64("curriculum_mode", static_cast<std::uint64_t>(config_.curriculum));
  // Trajectory-affecting PPO hyperparameters: a resume with different
  // values would silently diverge from the advertised bit-exact
  // continuation, so load_checkpoint validates them (warm start does not).
  {
    const PpoConfig& p = config_.ppo;
    w.u64("ppo.episodes_per_update", static_cast<std::uint64_t>(
                                         static_cast<std::int64_t>(
                                             p.episodes_per_update)));
    w.u64("ppo.update_epochs", static_cast<std::uint64_t>(
                                   static_cast<std::int64_t>(
                                       p.update_epochs)));
    w.u64("ppo.minibatch", p.minibatch);
    w.f32("ppo.clip", p.clip);
    w.f32("ppo.vf_coef", p.vf_coef);
    w.f32("ppo.ent_coef", p.ent_coef);
    w.f32("ppo.max_grad_norm", p.max_grad_norm);
    w.f32("ppo.gamma", p.gae.gamma);
    w.f32("ppo.lam", p.gae.lam);
    w.f32("ppo.lr", p.adam.lr);
    w.f32("ppo.beta1", p.adam.beta1);
    w.f32("ppo.beta2", p.adam.beta2);
    w.f32("ppo.eps", p.adam.eps);
    w.f32("ppo.weight_decay", p.adam.weight_decay);
    w.f32("ppo.intrinsic_coef", p.intrinsic_coef);
    w.f32("ppo.intrinsic_decay", p.intrinsic_decay);
    w.u64("ppo.normalize_rewards", p.normalize_rewards ? 1 : 0);
    w.f32("ppo.rnd_predictor_lr", p.rnd.predictor_lr);
    w.f32("ppo.rnd_bonus_clip", p.rnd.bonus_clip);
    w.u64("ppo.rnd_train_batch", p.rnd.train_batch);
  }
  w.u64("num_tasks", tasks_.size());
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    w.str(task_tag(i) + ".name", tasks_[i].name);
  }

  // Net weights + full core state.
  core_.save_state(w);

  // Session state.
  w.u64("session.epochs_completed",
        static_cast<std::uint64_t>(epochs_completed_));
  w.u64("session.total_env_steps",
        static_cast<std::uint64_t>(total_env_steps_));
  w.u64vec("session.curriculum_rng", curriculum_rng_.state());
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    const TaskRuntime& rt = *runtimes_[i];
    const std::string tag = task_tag(i);
    for (std::size_t j = 0; j < config_.num_envs; ++j) {
      w.u64vec(rng_record(tag, j, config_.num_envs), rt.venv.rng(j).state());
    }
    w.u64(tag + ".best_present", rt.best ? 1 : 0);
    if (rt.best) {
      // Placements flattened as [placed, x bits, y bits, rotated] per
      // chiplet; doubles as raw IEEE bits for exact round-trip.
      std::vector<std::uint64_t> flat;
      flat.reserve(rt.best->num_chiplets() * 4);
      for (std::size_t k = 0; k < rt.best->num_chiplets(); ++k) {
        const auto& p = rt.best->placement(k);
        flat.push_back(p.has_value() ? 1 : 0);
        flat.push_back(p ? f64_bits(p->position.x) : 0);
        flat.push_back(p ? f64_bits(p->position.y) : 0);
        flat.push_back(p && p->rotated ? 1 : 0);
      }
      w.u64vec(tag + ".best_placements", flat);
      w.f64(tag + ".best_wirelength_mm", rt.best_metrics.wirelength_mm);
      w.f64(tag + ".best_temperature_c", rt.best_metrics.temperature_c);
      w.f64(tag + ".best_reward", rt.best_metrics.reward);
    }
  }
  w.finish();
  os.close();
  if (!os) {
    std::remove(tmp_path.c_str());
    throw robust::TransientIoError("TrainingSession: write failed: " +
                                   tmp_path);
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    throw robust::TransientIoError("TrainingSession: cannot rename " +
                                   tmp_path + " to " + path);
  }
}

void TrainingSession::load_checkpoint(const std::string& path,
                                      bool warm_start) {
  // v1 files carry weights only, so they can never satisfy a full resume;
  // requiring warm_start makes the API fail-safe instead of silently
  // restarting optimizer/normalizer/RNG state under a resume banner.
  if (nn::checkpoint_file_version(path) == 1) {
    if (!warm_start) {
      throw std::runtime_error(
          "checkpoint: " + path + " is a v1 weight-only file; full-state "
          "resume is impossible — load it with warm_start=true to restore "
          "the weights only");
    }
    nn::load_parameters(core_.net().parameters(), path);
    return;
  }

  std::ifstream is(path, std::ios::binary);
  if (!is) {
    throw std::runtime_error("TrainingSession: cannot open " + path);
  }
  nn::StateReader r(is);

  // Header. Architecture must match in every mode (the weights below are
  // meaningless otherwise); session shape only for full resume.
  const std::uint64_t version = r.u64("version");
  if (version != 2) {
    throw robust::CorruptArtifactError("checkpoint: unsupported version " +
                                       std::to_string(version));
  }
  const std::uint64_t grid = r.u64("grid");
  const std::uint64_t channels = r.u64("channels");
  if (grid != config_.net.grid || channels != config_.net.channels_in) {
    throw std::runtime_error(
        "checkpoint: network architecture mismatch (grid/channels)");
  }
  const std::uint64_t num_envs = r.u64("num_envs");
  const std::uint64_t curriculum_mode = r.u64("curriculum_mode");
  // PPO hyperparameters: always read (the record stream is sequential),
  // validated only on full resume.
  std::vector<std::string> ppo_mismatches;
  const auto check_u64 = [&](const char* name, std::uint64_t expect) {
    if (r.u64(name) != expect && !warm_start) {
      ppo_mismatches.emplace_back(name);
    }
  };
  const auto check_f32 = [&](const char* name, float expect) {
    if (r.f32(name) != expect && !warm_start) {
      ppo_mismatches.emplace_back(name);
    }
  };
  {
    const PpoConfig& p = config_.ppo;
    check_u64("ppo.episodes_per_update",
              static_cast<std::uint64_t>(
                  static_cast<std::int64_t>(p.episodes_per_update)));
    check_u64("ppo.update_epochs",
              static_cast<std::uint64_t>(
                  static_cast<std::int64_t>(p.update_epochs)));
    check_u64("ppo.minibatch", p.minibatch);
    check_f32("ppo.clip", p.clip);
    check_f32("ppo.vf_coef", p.vf_coef);
    check_f32("ppo.ent_coef", p.ent_coef);
    check_f32("ppo.max_grad_norm", p.max_grad_norm);
    check_f32("ppo.gamma", p.gae.gamma);
    check_f32("ppo.lam", p.gae.lam);
    check_f32("ppo.lr", p.adam.lr);
    check_f32("ppo.beta1", p.adam.beta1);
    check_f32("ppo.beta2", p.adam.beta2);
    check_f32("ppo.eps", p.adam.eps);
    check_f32("ppo.weight_decay", p.adam.weight_decay);
    check_f32("ppo.intrinsic_coef", p.intrinsic_coef);
    check_f32("ppo.intrinsic_decay", p.intrinsic_decay);
    check_u64("ppo.normalize_rewards", p.normalize_rewards ? 1 : 0);
    check_f32("ppo.rnd_predictor_lr", p.rnd.predictor_lr);
    check_f32("ppo.rnd_bonus_clip", p.rnd.bonus_clip);
    check_u64("ppo.rnd_train_batch", p.rnd.train_batch);
  }
  if (!ppo_mismatches.empty()) {
    std::string joined;
    for (const std::string& m : ppo_mismatches) {
      if (!joined.empty()) joined += ", ";
      joined += m;
    }
    throw std::runtime_error(
        "checkpoint: PPO hyperparameter mismatch on resume (" + joined +
        "); pass the same training configuration, or load with "
        "warm_start=true");
  }
  const std::uint64_t num_tasks = r.u64("num_tasks");
  // Cap before allocating (like the serialize.cpp readers): corruption must
  // surface as the documented CorruptArtifactError, not bad_alloc.
  if (num_tasks > parallel::VecEnv::kMaxEnvs) {
    throw robust::CorruptArtifactError("checkpoint: corrupt task count");
  }
  std::vector<std::string> names(num_tasks);
  for (std::size_t i = 0; i < num_tasks; ++i) {
    names[i] = r.str(task_tag(i) + ".name");
  }

  if (warm_start) {
    // Weights only; the remaining record stream is intentionally unread.
    core_.load_net_only(r);
    return;
  }

  if (num_envs != config_.num_envs) {
    throw std::runtime_error("checkpoint: num_envs mismatch (checkpoint " +
                             std::to_string(num_envs) + ", session " +
                             std::to_string(config_.num_envs) + ")");
  }
  if (curriculum_mode != static_cast<std::uint64_t>(config_.curriculum)) {
    throw std::runtime_error("checkpoint: curriculum mode mismatch");
  }
  if (num_tasks != tasks_.size()) {
    throw std::runtime_error("checkpoint: task count mismatch");
  }
  for (std::size_t i = 0; i < num_tasks; ++i) {
    if (names[i] != tasks_[i].name) {
      throw std::runtime_error("checkpoint: task " + std::to_string(i) +
                               " is '" + names[i] + "', session has '" +
                               tasks_[i].name + "'");
    }
  }

  core_.load_state(r);

  epochs_completed_ = static_cast<int>(r.u64("session.epochs_completed"));
  total_env_steps_ = static_cast<long>(r.u64("session.total_env_steps"));
  const auto cur_state = r.u64vec("session.curriculum_rng");
  if (cur_state.size() != 4) {
    throw robust::CorruptArtifactError("checkpoint: bad curriculum RNG state");
  }
  curriculum_rng_.set_state(
      {cur_state[0], cur_state[1], cur_state[2], cur_state[3]});

  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    TaskRuntime& rt = *runtimes_[i];
    const std::string tag = task_tag(i);
    for (std::size_t j = 0; j < config_.num_envs; ++j) {
      const std::string name = rng_record(tag, j, config_.num_envs);
      const auto s = r.u64vec(name);
      if (s.size() != 4) {
        throw robust::CorruptArtifactError("checkpoint: bad RNG state in '" +
                                           name + "'");
      }
      rt.venv.rng(j).set_state({s[0], s[1], s[2], s[3]});
    }
    if (r.u64(tag + ".best_present") != 0) {
      const auto flat = r.u64vec(tag + ".best_placements");
      const std::size_t n = tasks_[i].system->num_chiplets();
      if (flat.size() != n * 4) {
        throw std::runtime_error("checkpoint: best-floorplan size mismatch "
                                 "for task '" + tasks_[i].name + "'");
      }
      Floorplan fp(*tasks_[i].system);
      for (std::size_t k = 0; k < n; ++k) {
        if (flat[k * 4] != 0) {
          fp.place(k, {bits_f64(flat[k * 4 + 1]), bits_f64(flat[k * 4 + 2])},
                   flat[k * 4 + 3] != 0);
        }
      }
      rt.best = std::move(fp);
      rt.best_metrics.valid = true;
      rt.best_metrics.wirelength_mm = r.f64(tag + ".best_wirelength_mm");
      rt.best_metrics.temperature_c = r.f64(tag + ".best_temperature_c");
      rt.best_metrics.reward = r.f64(tag + ".best_reward");
    } else {
      rt.best.reset();
      rt.best_metrics = {};
    }
  }
  r.finish();
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
