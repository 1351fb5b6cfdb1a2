// Proximal Policy Optimization (Schulman et al., 2017; paper Section II-B)
// with optional RND intrinsic bonus: PpoCore, the pure update core —
// policy/value net, Adam, optional RND, reward normalizer, intrinsic
// annealing, and the update RNG. It knows nothing about environments or how
// experience is collected; its entire mutable state is checkpointable
// (state_io).
//
// One update = `update_epochs` passes of clipped-surrogate minibatch SGD
// (Adam) over a collected rollout. Policy gradients flow through the masked
// softmax analytically (see PpoCore::update()), so masked actions receive
// exactly zero gradient.
//
// Collection, multi-scenario curriculum training, full-state checkpointing,
// and resume live one layer up in TrainingSession (rl/session.h), the one
// trainer over a PpoCore.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "nn/optim.h"
#include "nn/serialize.h"
#include "rl/policy_net.h"
#include "rl/rnd.h"
#include "rl/rollout.h"
#include "robust/robust.h"
#include "util/rng.h"

namespace rlplan::rl {

struct PpoConfig {
  int episodes_per_update = 16;
  int update_epochs = 4;
  /// Samples per SGD step; at least 1.
  std::size_t minibatch = 64;
  float clip = 0.2f;
  float vf_coef = 0.5f;
  float ent_coef = 0.01f;
  float max_grad_norm = 0.5f;
  GaeConfig gae{};
  nn::AdamConfig adam{};
  /// Enables random network distillation exploration bonus.
  bool use_rnd = false;
  RndConfig rnd{};
  /// Initial weight of the intrinsic reward (annealed multiplicatively by
  /// `intrinsic_decay` every update so late training optimizes the true
  /// objective).
  float intrinsic_coef = 0.3f;
  float intrinsic_decay = 0.99f;
  /// Normalize extrinsic rewards by the running std of episode rewards
  /// before GAE, so the value-loss gradient scale is independent of the
  /// objective's physical units (wirelength in mm produces rewards of
  /// wildly different magnitudes across benchmarks).
  bool normalize_rewards = true;
};

struct TrainStats {
  /// Scenario the epoch trained on (curriculum tag; empty for
  /// single-scenario trainers). Keeps mixed-scenario reward scales from
  /// being averaged into one meaningless mean downstream.
  std::string scenario;
  double mean_reward = 0.0;  ///< mean terminal extrinsic reward this epoch
  double best_reward = 0.0;  ///< best terminal reward this epoch
  double policy_loss = 0.0;
  double value_loss = 0.0;
  double entropy = 0.0;
  double approx_kl = 0.0;
  double grad_norm = 0.0;
  double rnd_error = 0.0;
  std::size_t steps = 0;
  std::size_t episodes = 0;
  std::size_t dead_ends = 0;
  /// True when the epoch's network update was rolled back by the NaN guard
  /// (weights and optimizer state restored to their pre-update values; see
  /// PpoCore::nan_skips()).
  bool update_skipped = false;
  /// kNone for a full epoch; kCancelled/kDeadline when a RunControl stopped
  /// collection early (the update then runs over the partial buffer only if
  /// the stop was a deadline with data already collected — see
  /// TrainingSession::train_epoch).
  robust::StopReason stop_reason = robust::StopReason::kNone;

  bool degraded() const {
    return update_skipped || stop_reason != robust::StopReason::kNone;
  }
};

/// Pure PPO update core over a fixed network architecture. Contains no
/// environment or collection logic; everything it mutates is covered by
/// state_io(), which is what makes training resumable.
class PpoCore {
 public:
  /// `net_config.grid` and `net_config.channels_in` must be final — they fix
  /// the observation/action space the core updates over. `seed` starts the
  /// net-init and update stream (util/rng.h seed table). Throws
  /// std::invalid_argument, naming the field, when config.minibatch is 0, or
  /// config.rnd.train_batch is 0 with config.use_rnd set.
  PpoCore(PolicyNetConfig net_config, PpoConfig config, std::uint64_t seed);

  PolicyValueNet& net() { return net_; }
  const PpoConfig& config() const { return config_; }

  /// The executor the net's passes, the RND nets, Adam, gradient clipping
  /// and the update's per-sample rows fan out over (empty = serial). Every
  /// element keeps its whole sum on one lane in the serial order, and the
  /// loss sums add in sample order, so no result depends on it. It does not
  /// own its lanes: the caller keeps them alive while it is set.
  void set_executor(const nn::BatchParallelFor& executor);
  long optimizer_steps() const { return optimizer_.step_count(); }

  /// Folds one terminal episode reward into the running normalizer
  /// (Welford). Called by the collection front end, once per episode, in
  /// collection order — the order is part of the deterministic contract.
  void record_episode_reward(double reward);

  /// Fills Transition::reward_int for every buffered step, in buffer
  /// (episode-contiguous) order. bonus() also folds each raw error into the
  /// RND normalization stats, so this order is part of the deterministic
  /// contract — do not reorder or parallelize. No-op without RND.
  void fill_intrinsic(RolloutBuffer& buffer);

  /// One PPO update pass (reward normalization, GAE, `update_epochs` x
  /// minibatch clipped-surrogate SGD, RND predictor training + intrinsic
  /// annealing) over the collected buffer. Fills the loss/entropy/grad
  /// fields of `stats`.
  ///
  /// NaN guard: weights and optimizer state are snapshotted on entry; if any
  /// parameter is non-finite after the minibatch passes (real numerical
  /// blow-up or the "ppo_nan" chaos site), or a minibatch throws mid-update
  /// (NaN logits surface as "no feasible action" from the masked softmax
  /// before the scan can run), the whole update is rolled back
  /// bit-exactly, stats.update_skipped is set, and nan_skips() increments.
  /// The update RNG is NOT rewound — the skipped epoch still consumed its
  /// shuffles — so the guarded run remains fully deterministic.
  void update(RolloutBuffer& buffer, TrainStats& stats);

  /// Number of updates rolled back by the NaN guard this process (not
  /// checkpointed; also counted in the "rl.nan_skips" obs metric).
  long nan_skips() const { return nan_skips_; }

  /// Welford reward-normalizer state, exposed so a cancelled (mid-epoch)
  /// collection can be rewound: the partial epoch's episode rewards must not
  /// survive into the checkpoint, or resume-and-replay double-counts them.
  struct RewardNormState {
    double mean = 0.0;
    double m2 = 0.0;
    long n = 0;
  };
  RewardNormState reward_norm_state() const {
    return {rew_mean_, rew_m2_, rew_n_};
  }
  void restore_reward_norm(const RewardNormState& s) {
    rew_mean_ = s.mean;
    rew_m2_ = s.m2;
    rew_n_ = s.n;
  }

  /// Checkpoint schema (nn/serialize.h), in order: net weights, then the
  /// full update state (update RNG, Adam moments + step count, reward
  /// normalizer, intrinsic scale, RND presence, which must match, and the
  /// RND block). Net weights lead so that `net_only` — the warm-start path:
  /// fine-tune from a checkpoint with fresh optimizer, normalizer and RNG
  /// state — can stop after them. An assigning pass stores each record as
  /// it reads it; TrainingSession::load_checkpoint makes loads
  /// all-or-nothing with a check pass first.
  void state_io(nn::StateIo& io, bool net_only);

 private:
  PpoConfig config_;
  Rng rng_;  ///< net init, then minibatch + RND shuffling (seed contract)
  PolicyValueNet net_;
  std::optional<RndBonus> rnd_;
  nn::Adam optimizer_;
  float intrinsic_scale_ = 1.0f;
  // Running std of episode rewards for reward normalization (Welford).
  double rew_mean_ = 0.0;
  double rew_m2_ = 0.0;
  long rew_n_ = 0;
  long nan_skips_ = 0;  ///< updates rolled back by the NaN guard
  nn::BatchParallelFor executor_;
};

}  // namespace rlplan::rl
