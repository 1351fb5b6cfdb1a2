#include "nn/optim.h"

#include <algorithm>
#include <cmath>

#include "nn/serialize.h"

namespace rlplan::nn {

namespace {

/// A block of one parameter tensor's elements: [begin, end) of tensor k.
struct ElementBlock {
  std::size_t k, begin, end;
};

/// Cuts every tensor into blocks of at most kBlockElements elements, in
/// parameter order.
std::vector<ElementBlock> element_blocks(
    const std::vector<Parameter*>& params) {
  constexpr std::size_t kBlockElements = 8192;
  std::vector<ElementBlock> blocks;
  for (std::size_t k = 0; k < params.size(); ++k) {
    const std::size_t n = params[k]->value.numel();
    for (std::size_t i = 0; i < n; i += kBlockElements) {
      blocks.push_back({k, i, std::min(n, i + kBlockElements)});
    }
  }
  return blocks;
}

}  // namespace

Adam::Adam(std::vector<Parameter*> params, AdamConfig config)
    : params_(std::move(params)), config_(config) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Parameter* p : params_) {
    m_.emplace_back(p->value.shape());
    v_.emplace_back(p->value.shape());
  }
}

void Adam::step() {
  ++t_;
  const float b1t = 1.0f - std::pow(config_.beta1, static_cast<float>(t_));
  const float b2t = 1.0f - std::pow(config_.beta2, static_cast<float>(t_));
  const std::vector<ElementBlock> blocks = element_blocks(params_);
  for_each_item(executor_, blocks.size(), [&](std::size_t block) {
    const auto [k, begin, end] = blocks[block];
    Parameter& p = *params_[k];
    auto val = p.value.data();
    auto grad = p.grad.data();
    auto m = m_[k].data();
    auto v = v_[k].data();
    for (std::size_t i = begin; i < end; ++i) {
      float g = grad[i];
      m[i] = config_.beta1 * m[i] + (1.0f - config_.beta1) * g;
      v[i] = config_.beta2 * v[i] + (1.0f - config_.beta2) * g * g;
      const float m_hat = m[i] / b1t;
      const float v_hat = v[i] / b2t;
      float update = m_hat / (std::sqrt(v_hat) + config_.eps);
      if (config_.weight_decay > 0.0f) {
        update += config_.weight_decay * val[i];
      }
      val[i] -= config_.lr * update;
    }
  });
}

void Adam::zero_grad() {
  for (Parameter* p : params_) p->grad.fill(0.0f);
}

void Adam::state_io(StateIo& io, const std::string& prefix) {
  io.u64(prefix + ".t", t_);
  io.expect(prefix + ".params", std::uint64_t{params_.size()},
            "checkpoint: optimizer parameter count mismatch for '" + prefix +
                "'");
  for (std::size_t k = 0; k < params_.size(); ++k) {
    const std::string tag = prefix + "." + std::to_string(k);
    io.tensor(tag + ".m", m_[k]);
    io.tensor(tag + ".v", v_[k]);
  }
}

double clip_grad_norm(const std::vector<Parameter*>& params, double max_norm,
                      const BatchParallelFor& executor) {
  std::vector<double> squares(params.size());
  for_each_item(executor, params.size(), [&](std::size_t k) {
    squares[k] = params[k]->grad.squared_norm();
  });
  double sq = 0.0;
  for (const double s : squares) sq += s;
  const double norm = std::sqrt(sq);
  if (norm > max_norm && norm > 0.0) {
    const float scale = static_cast<float>(max_norm / norm);
    const std::vector<ElementBlock> blocks = element_blocks(params);
    for_each_item(executor, blocks.size(), [&](std::size_t block) {
      const auto [k, begin, end] = blocks[block];
      float* g = params[k]->grad.data().data();
      for (std::size_t i = begin; i < end; ++i) g[i] *= scale;
    });
  }
  return norm;
}

}  // namespace rlplan::nn
