// Shared-trunk policy/value network (paper Section II-B).
//
// "The policy network and the value network share the same feature encoding
// CNN layers and two separate fully connected layers are used to get the
// probability matrix and expected reward."
//
// Architecture (G = action grid, C = observation channels):
//   conv1 CxGxG -> c1 x G   x G    (3x3, stride 1, pad 1) + ReLU
//   conv2      -> c2 x G/2 x G/2   (3x3, stride 2, pad 1) + ReLU
//   conv3      -> c3 x G/4 x G/4   (3x3, stride 2, pad 1) + ReLU
//   flatten -> fc (shared) + ReLU
//   policy head: Linear(fc, G*G)   (logits over placement cells)
//   value  head: Linear(fc, 1)
// Each ReLU is its layer's epilogue (nn::Activation::kReLU), not a module.
#pragma once

#include <cstddef>
#include <vector>

#include "nn/layers.h"
#include "nn/tensor.h"
#include "util/rng.h"

namespace rlplan::rl {

struct PolicyNetConfig {
  std::size_t channels_in = 6;
  /// A positive multiple of 4, at most EnvConfig::kMaxGrid.
  std::size_t grid = 32;
  std::size_t conv1 = 8;
  std::size_t conv2 = 16;
  std::size_t conv3 = 16;
  std::size_t fc = 128;
};

class PolicyValueNet {
 public:
  /// Throws std::invalid_argument, before drawing from `rng`, when
  /// config.grid is not a valid PolicyNetConfig grid.
  PolicyValueNet(PolicyNetConfig config, Rng& rng);

  struct Output {
    nn::Tensor logits;  ///< [batch, G*G]
    nn::Tensor value;   ///< [batch, 1]
  };

  /// states: [batch, C, G, G].
  Output forward(const nn::Tensor& states);

  /// Backpropagates both heads through the shared trunk, accumulating
  /// parameter gradients. Must follow a forward() with the same batch.
  void backward(const nn::Tensor& grad_logits, const nn::Tensor& grad_value);

  std::vector<nn::Parameter*> parameters();
  void zero_grad();

  /// The executor every layer's forward and backward fan out over (empty =
  /// serial). It does not own its lanes: the caller keeps them alive while
  /// it is set, and one pass at a time runs on them.
  void set_executor(const nn::BatchParallelFor& executor);

  const PolicyNetConfig& config() const { return config_; }
  std::size_t num_actions() const { return config_.grid * config_.grid; }

 private:
  PolicyNetConfig config_;
  nn::Sequential trunk_;
  nn::Linear policy_head_;
  nn::Linear value_head_;
};

}  // namespace rlplan::rl
