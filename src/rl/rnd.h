// Random Network Distillation exploration bonus (Burda et al., 2018; paper
// Section II-B).
//
// A fixed, randomly initialized *target* network embeds each visited state;
// a *predictor* network of identical architecture is trained to match the
// target's output. States the predictor has not yet learned (novel states)
// produce a large prediction error, which is used as an intrinsic reward.
// Errors are normalized by their running standard deviation so the bonus
// scale is stationary across training.
#pragma once

#include <cstddef>
#include <vector>

#include "nn/layers.h"
#include "nn/optim.h"
#include "nn/serialize.h"
#include "nn/tensor.h"
#include "util/rng.h"

namespace rlplan::rl {

struct RndConfig {
  std::size_t conv1 = 8;
  std::size_t conv2 = 8;
  std::size_t embed_dim = 32;
  float predictor_lr = 1e-3f;
  /// Clip for the normalized bonus (keeps outliers from dominating GAE).
  float bonus_clip = 5.0f;
  /// Minibatch size for predictor training; at least 1 when RND is on.
  std::size_t train_batch = 32;
};

class RndBonus {
 public:
  RndBonus(std::size_t channels_in, std::size_t grid, RndConfig config,
           Rng& rng);

  /// Intrinsic bonus for one state [C, G, G]: normalized prediction error.
  /// Also folds the raw error into the running normalization statistics.
  float bonus(const nn::Tensor& state);

  /// One predictor training pass over the given states (shuffled minibatch
  /// MSE steps). Returns the mean pre-update prediction error.
  double train(const std::vector<const nn::Tensor*>& states, Rng& rng);

  std::size_t embed_dim() const { return config_.embed_dim; }

  /// The executor both encoders and the predictor's Adam fan out over
  /// (empty = serial); see PolicyValueNet::set_executor.
  void set_executor(const nn::BatchParallelFor& executor);

  /// Raw (unnormalized) prediction error for diagnostics/tests.
  double raw_error(const nn::Tensor& state);

  /// Checkpoint schema (nn/serialize.h): target and predictor weights, the
  /// predictor's Adam state and the running error-normalization statistics,
  /// as records under `prefix`, so a resumed trainer produces bit-identical
  /// bonuses. Reading requires an identically-configured RndBonus.
  void state_io(nn::StateIo& io, const std::string& prefix);

 private:
  nn::Tensor embed_target(const nn::Tensor& batch);

  RndConfig config_;
  nn::Sequential target_;
  nn::Sequential predictor_;
  nn::Adam optimizer_;
  // Running normalization of raw errors (Welford).
  double err_mean_ = 0.0;
  double err_m2_ = 0.0;
  std::size_t err_n_ = 0;
};

/// Builds the shared RND conv-encoder architecture. Exposed for tests.
/// Throws std::invalid_argument unless `grid` is a positive multiple of 4 of
/// at most EnvConfig::kMaxGrid.
nn::Sequential make_rnd_encoder(std::size_t channels_in, std::size_t grid,
                                const RndConfig& config, Rng& rng,
                                const std::string& name);

}  // namespace rlplan::rl
