#include "rl/ppo.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "obs/metrics.h"
#include "rl/distribution.h"
#include "robust/fault.h"
#include "util/log.h"

namespace rlplan::rl {

namespace {

/// Rejects the batch sizes that are loop strides in update(): zero would
/// never advance, and no deadline can stop the update loop.
PpoConfig checked_config(PpoConfig config) {
  if (config.minibatch == 0) {
    throw std::invalid_argument("PpoConfig: minibatch must be at least 1");
  }
  if (config.use_rnd && config.rnd.train_batch == 0) {
    throw std::invalid_argument(
        "PpoConfig: rnd.train_batch must be at least 1 when use_rnd is set");
  }
  return config;
}

}  // namespace

PpoCore::PpoCore(PolicyNetConfig net_config, PpoConfig config,
                 std::uint64_t seed)
    : config_(checked_config(config)),
      rng_(seed),
      net_(net_config, rng_),
      optimizer_({}, config.adam) {
  optimizer_ = nn::Adam(net_.parameters(), config_.adam);
  if (config_.use_rnd) {
    rnd_.emplace(net_config.channels_in, net_config.grid, config_.rnd, rng_);
  }
}

void PpoCore::set_executor(const nn::BatchParallelFor& executor) {
  executor_ = executor;
  net_.set_executor(executor);
  optimizer_.set_executor(executor);
  if (rnd_) rnd_->set_executor(executor);
}

void PpoCore::record_episode_reward(double reward) {
  // Welford running mean/M2 for reward normalization in update().
  ++rew_n_;
  const double delta = reward - rew_mean_;
  rew_mean_ += delta / static_cast<double>(rew_n_);
  rew_m2_ += delta * (reward - rew_mean_);
}

void PpoCore::fill_intrinsic(RolloutBuffer& buffer) {
  if (!rnd_) return;
  for (auto& tr : buffer.mutable_steps()) {
    tr.reward_int = rnd_->bonus(tr.state);
  }
}

void PpoCore::update(RolloutBuffer& buffer, TrainStats& stats) {
  // NaN-guard snapshot: last-good weights + optimizer state, restored
  // bit-exactly if this update goes non-finite. Always on — real numerical
  // blow-ups do not wait for chaos runs — and cheap next to the minibatch
  // passes (one copy of the parameters vs update_epochs forward/backwards).
  std::vector<nn::Tensor> last_good_params;
  last_good_params.reserve(net_.parameters().size());
  for (const nn::Parameter* p : net_.parameters()) {
    last_good_params.push_back(p->value);
  }
  const nn::Adam::Snapshot last_good_opt = optimizer_.snapshot();

  // Reward normalization: divide by the running std of episode rewards so
  // value targets are O(1) regardless of the objective's physical scale.
  if (config_.normalize_rewards && rew_n_ >= 2) {
    const double var = rew_m2_ / static_cast<double>(rew_n_ - 1);
    const double stddev = std::sqrt(var);
    const auto scale = static_cast<float>(
        1.0 / std::clamp(stddev, 1e-3, 1e9));
    for (auto& tr : buffer.mutable_steps()) {
      tr.reward_ext *= scale;
    }
  }

  GaeConfig gae = config_.gae;
  gae.intrinsic_coef = config_.intrinsic_coef * intrinsic_scale_;
  buffer.compute_advantages(gae);

  const std::size_t n = buffer.size();
  const std::size_t c = net_.config().channels_in;
  const std::size_t g = net_.config().grid;
  const std::size_t num_actions = net_.num_actions();

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0u);

  double policy_loss_sum = 0.0, value_loss_sum = 0.0, entropy_sum = 0.0;
  double kl_sum = 0.0, grad_norm_sum = 0.0;
  std::size_t sample_count = 0, batch_count = 0;

  // Chaos site "ppo_nan": one decision per update; when it fires, the first
  // minibatch's gradient is poisoned so the guard below must catch the
  // resulting non-finite weights and roll the whole update back.
  bool inject_nan = robust::fault_point("ppo_nan");

  // Non-finite weights do not always survive to the post-loop scan: NaN
  // logits make the masked softmax throw ("no feasible action") on the very
  // next minibatch. A throw mid-update is therefore treated exactly like a
  // failed finiteness scan — roll the whole update back.
  bool update_threw = false;
  try {
    for (int epoch = 0; epoch < config_.update_epochs; ++epoch) {
      // Deterministic Fisher-Yates shuffle per epoch.
      for (std::size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng_.uniform_int(std::uint64_t{i})]);
      }
      for (std::size_t start = 0; start < n; start += config_.minibatch) {
        const std::size_t count = std::min(config_.minibatch, n - start);

        nn::Tensor batch({count, c, g, g});
        for (std::size_t b = 0; b < count; ++b) {
          const Transition& tr = buffer.step(order[start + b]);
          std::copy(tr.state.data().begin(), tr.state.data().end(),
                    batch.data().begin() +
                        static_cast<std::ptrdiff_t>(b * tr.state.numel()));
        }

        PolicyValueNet::Output out = net_.forward(batch);
        nn::Tensor grad_logits({count, num_actions});
        nn::Tensor grad_value({count, std::size_t{1}});
        const float inv_count = 1.0f / static_cast<float>(count);

        // Per sample: its gradient rows and its loss terms, each in its own
        // slot, so samples may run on any lanes; the sums below add the
        // terms in sample order.
        struct SampleTerms {
          double policy_loss, kl, entropy, value_loss;
        };
        std::vector<SampleTerms> terms(count);
        const auto sample_row = [&](std::size_t b) {
          const Transition& tr = buffer.step(order[start + b]);
          const float adv = buffer.advantages()[order[start + b]];
          const float ret = buffer.returns()[order[start + b]];

          const std::span<const float> logits_row(
              out.logits.data().data() + b * num_actions, num_actions);
          const MaskedCategorical dist(logits_row, tr.mask);
          const float logp_new = dist.log_prob(tr.action);
          const float ratio = std::exp(logp_new - tr.log_prob);
          const float entropy = dist.entropy();

          // Clipped surrogate: L = -min(ratio*A, clip(ratio)*A).
          const float unclipped = ratio * adv;
          const float clipped =
              std::clamp(ratio, 1.0f - config_.clip, 1.0f + config_.clip) * adv;
          terms[b].policy_loss = -std::min(unclipped, clipped);
          terms[b].kl = tr.log_prob - logp_new;
          terms[b].entropy = entropy;

          // d(-min)/dlogp_new: zero when the clipped branch is active.
          float dl_dlogp = 0.0f;
          const bool clip_active =
              (adv >= 0.0f && ratio > 1.0f + config_.clip) ||
              (adv < 0.0f && ratio < 1.0f - config_.clip);
          if (!clip_active) dl_dlogp = -adv * ratio;
          dl_dlogp *= inv_count;

          // dlogp_a/dlogit_k = delta_ak - p_k (restricted to the mask support);
          // entropy term: dH/dlogit_k = -p_k (log p_k + H).
          const auto& probs = dist.probs();
          for (std::size_t k = 0; k < num_actions; ++k) {
            const float p = probs[k];
            float grad = 0.0f;
            if (p > 0.0f) {
              const float delta_ak = (k == tr.action) ? 1.0f : 0.0f;
              grad += dl_dlogp * (delta_ak - p);
              const float logp_k = std::log(p);
              grad += config_.ent_coef * inv_count * p * (logp_k + entropy);
            }
            grad_logits.at(b, k) = grad;
          }

          // Value head: vf_coef * (v - ret)^2, mean over batch.
          const float v = out.value.at(b, 0);
          terms[b].value_loss = static_cast<double>(v - ret) * (v - ret);
          grad_value.at(b, 0) =
              config_.vf_coef * 2.0f * (v - ret) * inv_count;
        };
        nn::for_each_item(executor_, count, sample_row);
        for (const SampleTerms& t : terms) {
          policy_loss_sum += t.policy_loss;
          kl_sum += t.kl;
          entropy_sum += t.entropy;
          value_loss_sum += t.value_loss;
        }

        net_.zero_grad();
        net_.backward(grad_logits, grad_value);
        if (inject_nan) {
          inject_nan = false;
          const auto params = net_.parameters();
          if (!params.empty() && !params.front()->grad.data().empty()) {
            params.front()->grad.data()[0] =
                std::numeric_limits<float>::quiet_NaN();
          }
        }
        grad_norm_sum += nn::clip_grad_norm(
            net_.parameters(), config_.max_grad_norm, executor_);
        optimizer_.step();

        sample_count += count;
        ++batch_count;
      }
    }
  } catch (const std::exception& e) {
    update_threw = true;
    RLPLAN_WARN << "PPO update threw mid-minibatch (" << e.what()
                << "); treating as a numerical fault";
  }

  if (sample_count > 0) {
    stats.policy_loss = policy_loss_sum / static_cast<double>(sample_count);
    stats.value_loss = value_loss_sum / static_cast<double>(sample_count);
    stats.entropy = entropy_sum / static_cast<double>(sample_count);
    stats.approx_kl = kl_sum / static_cast<double>(sample_count);
  }
  if (batch_count > 0) {
    stats.grad_norm = grad_norm_sum / static_cast<double>(batch_count);
  }

  // NaN guard: a non-finite weight anywhere (or a mid-update throw) means
  // this update diverged — numerically or via the chaos site. Restore the
  // last-good snapshot bit-exactly, skip the RND pass, and tag the epoch
  // instead of training on from a poisoned network. The update RNG keeps the
  // shuffles it consumed, so the guarded sequence stays deterministic.
  bool finite = !update_threw;
  for (const nn::Parameter* p : net_.parameters()) {
    if (!finite) break;
    for (const float x : p->value.data()) {
      if (!std::isfinite(x)) {
        finite = false;
        break;
      }
    }
  }
  if (!finite) {
    const auto params = net_.parameters();
    for (std::size_t i = 0; i < params.size(); ++i) {
      params[i]->value = last_good_params[i];
    }
    optimizer_.restore(last_good_opt);
    ++nan_skips_;
    stats.update_skipped = true;
    stats.policy_loss = stats.value_loss = stats.entropy = 0.0;
    stats.approx_kl = stats.grad_norm = 0.0;
    RLPLAN_COUNTER_INC("rl.nan_skips");
    RLPLAN_COUNTER_INC("robust.degraded");
    RLPLAN_WARN << "PPO update produced non-finite weights; rolled back to "
                << "the last-good state (skip #" << nan_skips_ << ")";
    return;
  }

  // RND predictor catches up on the freshly visited states, then the bonus
  // anneals so late training focuses on the extrinsic objective.
  if (rnd_) {
    std::vector<const nn::Tensor*> states;
    states.reserve(buffer.size());
    for (const auto& tr : buffer.steps()) states.push_back(&tr.state);
    stats.rnd_error = rnd_->train(states, rng_);
    intrinsic_scale_ *= config_.intrinsic_decay;
  }
}

void PpoCore::state_io(nn::StateIo& io, bool net_only) {
  nn::parameter_tensors(io, "net", net_.parameters());
  if (net_only) return;
  io.rng("core.update_rng", rng_);
  optimizer_.state_io(io, "core.adam");
  io.f64("core.rew_mean", rew_mean_);
  io.f64("core.rew_m2", rew_m2_);
  io.u64("core.rew_n", rew_n_);
  io.f32("core.intrinsic_scale", intrinsic_scale_);
  io.expect("core.rnd_present", std::uint64_t{rnd_ ? 1u : 0u},
            "checkpoint: RND configuration mismatch (use_rnd differs from "
            "the checkpointed trainer)");
  if (rnd_) rnd_->state_io(io, "core.rnd");
}

}  // namespace rlplan::rl
