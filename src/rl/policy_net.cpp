#include "rl/policy_net.h"

#include <memory>
#include <stdexcept>
#include <string>

#include "rl/env.h"

namespace rlplan::rl {

namespace {

PolicyNetConfig checked_grid(PolicyNetConfig config) {
  if (config.grid < 4 || config.grid % 4 != 0 ||
      config.grid > EnvConfig::kMaxGrid) {
    throw std::invalid_argument(
        "PolicyNetConfig: grid must be a positive multiple of 4 (two "
        "stride-2 convs) of at most " +
        std::to_string(EnvConfig::kMaxGrid));
  }
  return config;
}

}  // namespace

PolicyValueNet::PolicyValueNet(PolicyNetConfig config, Rng& rng)
    : config_(checked_grid(config)),
      policy_head_(config.fc, config.grid * config.grid, rng, "policy_head"),
      value_head_(config.fc, 1, rng, "value_head") {
  const std::size_t g4 = config_.grid / 4;
  constexpr auto kReLU = nn::Activation::kReLU;
  trunk_.add(std::make_unique<nn::Conv2d>(config_.channels_in, config_.conv1,
                                          3, 1, 1, rng, "conv1", kReLU));
  trunk_.add(std::make_unique<nn::Conv2d>(config_.conv1, config_.conv2, 3, 2,
                                          1, rng, "conv2", kReLU));
  trunk_.add(std::make_unique<nn::Conv2d>(config_.conv2, config_.conv3, 3, 2,
                                          1, rng, "conv3", kReLU));
  trunk_.add(std::make_unique<nn::Flatten>());
  trunk_.add(std::make_unique<nn::Linear>(config_.conv3 * g4 * g4, config_.fc,
                                          rng, "fc_shared", kReLU));
}

PolicyValueNet::Output PolicyValueNet::forward(const nn::Tensor& states) {
  if (states.rank() != 4 || states.dim(1) != config_.channels_in ||
      states.dim(2) != config_.grid || states.dim(3) != config_.grid) {
    throw std::invalid_argument("PolicyValueNet::forward: bad state shape");
  }
  const nn::Tensor features = trunk_.forward(states);
  Output out;
  out.logits = policy_head_.forward(features);
  out.value = value_head_.forward(features);
  return out;
}

void PolicyValueNet::backward(const nn::Tensor& grad_logits,
                              const nn::Tensor& grad_value) {
  nn::Tensor d_features = policy_head_.backward(grad_logits);
  d_features.add_(value_head_.backward(grad_value));
  trunk_.backward_params(d_features);
}

std::vector<nn::Parameter*> PolicyValueNet::parameters() {
  std::vector<nn::Parameter*> params = trunk_.parameters();
  for (nn::Parameter* p : policy_head_.parameters()) params.push_back(p);
  for (nn::Parameter* p : value_head_.parameters()) params.push_back(p);
  return params;
}

void PolicyValueNet::set_executor(const nn::BatchParallelFor& executor) {
  trunk_.set_executor(executor);
  policy_head_.set_executor(executor);
  value_head_.set_executor(executor);
}

void PolicyValueNet::zero_grad() {
  for (nn::Parameter* p : parameters()) p->grad.fill(0.0f);
}

}  // namespace rlplan::rl
