#include "rl/rnd.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>

#include "rl/env.h"

namespace rlplan::rl {

nn::Sequential make_rnd_encoder(std::size_t channels_in, std::size_t grid,
                                const RndConfig& config, Rng& rng,
                                const std::string& name) {
  if (grid < 4 || grid % 4 != 0 || grid > EnvConfig::kMaxGrid) {
    throw std::invalid_argument(
        "RND encoder: grid must be a positive multiple of 4 of at most " +
        std::to_string(EnvConfig::kMaxGrid));
  }
  const std::size_t g4 = grid / 4;
  nn::Sequential net;
  net.add(std::make_unique<nn::Conv2d>(channels_in, config.conv1, 3, 2, 1,
                                       rng, name + ".conv1",
                                       nn::Activation::kReLU));
  net.add(std::make_unique<nn::Conv2d>(config.conv1, config.conv2, 3, 2, 1,
                                       rng, name + ".conv2",
                                       nn::Activation::kReLU));
  net.add(std::make_unique<nn::Flatten>());
  net.add(std::make_unique<nn::Linear>(config.conv2 * g4 * g4,
                                       config.embed_dim, rng,
                                       name + ".proj"));
  return net;
}

RndBonus::RndBonus(std::size_t channels_in, std::size_t grid, RndConfig config,
                   Rng& rng)
    : config_(config),
      target_(make_rnd_encoder(channels_in, grid, config, rng, "rnd_target")),
      predictor_(
          make_rnd_encoder(channels_in, grid, config, rng, "rnd_pred")),
      optimizer_(predictor_.parameters(),
                 nn::AdamConfig{.lr = config.predictor_lr}) {}

void RndBonus::set_executor(const nn::BatchParallelFor& executor) {
  target_.set_executor(executor);
  predictor_.set_executor(executor);
  optimizer_.set_executor(executor);
}

nn::Tensor RndBonus::embed_target(const nn::Tensor& batch) {
  // The target is frozen: forward only, gradients never consumed.
  return target_.forward(batch);
}

double RndBonus::raw_error(const nn::Tensor& state) {
  nn::Tensor batch = state;
  batch.reshape({1, state.dim(0), state.dim(1), state.dim(2)});
  const nn::Tensor t = embed_target(batch);
  const nn::Tensor p = predictor_.forward(batch);
  double err = 0.0;
  for (std::size_t i = 0; i < t.numel(); ++i) {
    const double d = static_cast<double>(p[i]) - t[i];
    err += d * d;
  }
  return err / static_cast<double>(t.numel());
}

float RndBonus::bonus(const nn::Tensor& state) {
  const double err = raw_error(state);

  ++err_n_;
  const double delta = err - err_mean_;
  err_mean_ += delta / static_cast<double>(err_n_);
  err_m2_ += delta * (err - err_mean_);
  const double var =
      err_n_ > 1 ? err_m2_ / static_cast<double>(err_n_ - 1) : 0.0;
  const double stddev = std::sqrt(var);

  const double normalized = stddev > 1e-12 ? err / stddev : 0.0;
  return static_cast<float>(
      std::min(normalized, static_cast<double>(config_.bonus_clip)));
}

void RndBonus::state_io(nn::StateIo& io, const std::string& prefix) {
  nn::parameter_tensors(io, prefix + ".target", target_.parameters());
  nn::parameter_tensors(io, prefix + ".predictor", predictor_.parameters());
  optimizer_.state_io(io, prefix + ".adam");
  io.f64(prefix + ".err_mean", err_mean_);
  io.f64(prefix + ".err_m2", err_m2_);
  io.u64(prefix + ".err_n", err_n_);
}

double RndBonus::train(const std::vector<const nn::Tensor*>& states,
                       Rng& rng) {
  if (states.empty()) return 0.0;
  const std::size_t c = states[0]->dim(0);
  const std::size_t g = states[0]->dim(1);

  std::vector<std::size_t> order(states.size());
  std::iota(order.begin(), order.end(), 0u);
  // Fisher-Yates with the caller's RNG for determinism.
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform_int(std::uint64_t{i})]);
  }

  double total_err = 0.0;
  std::size_t total_elems = 0;
  for (std::size_t start = 0; start < order.size();
       start += config_.train_batch) {
    const std::size_t count =
        std::min(config_.train_batch, order.size() - start);
    nn::Tensor batch({count, c, g, g});
    for (std::size_t b = 0; b < count; ++b) {
      const nn::Tensor& s = *states[order[start + b]];
      std::copy(s.data().begin(), s.data().end(),
                batch.data().begin() +
                    static_cast<std::ptrdiff_t>(b * s.numel()));
    }
    const nn::Tensor t = embed_target(batch);
    const nn::Tensor p = predictor_.forward(batch);

    // MSE loss; d(loss)/dp = 2 (p - t) / numel.
    nn::Tensor grad(p.shape());
    const float scale = 2.0f / static_cast<float>(p.numel());
    for (std::size_t i = 0; i < p.numel(); ++i) {
      const float d = p[i] - t[i];
      grad[i] = scale * d;
      total_err += static_cast<double>(d) * d;
    }
    total_elems += p.numel();

    optimizer_.zero_grad();
    predictor_.backward_params(grad);
    optimizer_.step();
  }
  return total_elems > 0 ? total_err / static_cast<double>(total_elems) : 0.0;
}

}  // namespace rlplan::rl
