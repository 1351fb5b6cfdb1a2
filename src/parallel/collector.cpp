#include "parallel/collector.h"

#include <algorithm>
#include <limits>
#include <span>
#include <vector>

#include "obs/metrics.h"
#include "rl/distribution.h"

namespace rlplan::parallel {

CollectorStats collect_episodes(VecEnv& venv, rl::PolicyValueNet& net,
                                std::size_t min_episodes,
                                rl::RolloutBuffer& out, ThreadPool* pool,
                                const EpisodeCallback& on_episode_end,
                                const robust::RunControl& control) {
  CollectorStats stats;
  if (min_episodes == 0) return stats;
  const bool controlled = control.active();

  const std::size_t n = venv.size();
  const std::size_t c = rl::FloorplanEnv::kChannels;
  const std::size_t g = venv.env(0).grid();
  const std::size_t num_actions = venv.env(0).num_actions();

  // Per-replica episode-in-flight transitions plus live flags.
  std::vector<std::vector<rl::Transition>> pending(n);
  std::vector<std::uint8_t> live(n, 0);
  std::vector<std::size_t> live_index;
  std::vector<std::size_t> actions;
  std::vector<rl::StepOutcome> outcomes;

  std::size_t episodes_started = 0;
  for (std::size_t e = 0; e < n && episodes_started < min_episodes; ++e) {
    venv.env(e).reset();
    live[e] = 1;
    ++episodes_started;
  }

  double reward_best = -std::numeric_limits<double>::infinity();
  for (;;) {
    // Collection-batch granularity stop: episodes completed so far are
    // already flushed to `out`; in-flight partial episodes are dropped (the
    // buffer stays episode-aligned).
    if (controlled && control.stop_requested()) {
      stats.stop_reason = control.stop_reason();
      RLPLAN_COUNTER_INC("robust.degraded");
      break;
    }
    live_index.clear();
    for (std::size_t e = 0; e < n; ++e) {
      if (live[e]) live_index.push_back(e);
    }
    const std::size_t batch = live_index.size();
    if (batch == 0) break;

    // 1. Gather live observations into one [B, C, G, G] batch.
    nn::Tensor states({batch, c, g, g});
    const std::size_t stride = c * g * g;
    for (std::size_t j = 0; j < batch; ++j) {
      const auto obs = venv.env(live_index[j]).observation().data();
      std::copy(obs.begin(), obs.end(),
                states.data().begin() +
                    static_cast<std::ptrdiff_t>(j * stride));
    }

    // 2. One batched forward for every live replica.
    rl::PolicyValueNet::Output fwd = net.forward(states);

    // 3. Sample one masked action per replica with its own RNG stream.
    actions.resize(batch);
    outcomes.assign(batch, rl::StepOutcome{});
    for (std::size_t j = 0; j < batch; ++j) {
      const std::size_t e = live_index[j];
      rl::FloorplanEnv& env = venv.env(e);
      const std::span<const float> logits_row(
          fwd.logits.data().data() + j * num_actions, num_actions);
      const rl::MaskedCategorical dist(logits_row, env.action_mask());
      const std::size_t action = dist.sample(venv.rng(e));
      actions[j] = action;

      rl::Transition tr;
      tr.state = env.observation();
      tr.mask = env.action_mask();
      tr.action = action;
      tr.log_prob = dist.log_prob(action);
      tr.value = fwd.value.at(j, 0);
      pending[e].push_back(std::move(tr));
    }

    // 4. Step every live replica. Each replica only touches its own env
    //    (+ cloned evaluator), so pooled stepping is schedule-independent.
    if (pool != nullptr) {
      pool->parallel_for(batch, [&](std::size_t j) {
        outcomes[j] = venv.env(live_index[j]).step(actions[j]);
      });
    } else {
      for (std::size_t j = 0; j < batch; ++j) {
        outcomes[j] = venv.env(live_index[j]).step(actions[j]);
      }
    }

    // 5. Record outcomes and recycle finished replicas, in replica order.
    for (std::size_t j = 0; j < batch; ++j) {
      const std::size_t e = live_index[j];
      const rl::StepOutcome& outcome = outcomes[j];
      rl::Transition& tr = pending[e].back();
      tr.reward_ext = static_cast<float>(outcome.reward);
      tr.episode_end = outcome.done;
      ++stats.steps;
      if (!outcome.done) continue;

      ++stats.episodes;
      if (outcome.dead_end) ++stats.dead_ends;
      stats.reward_sum += outcome.reward;
      reward_best = std::max(reward_best, outcome.reward);
      if (on_episode_end) on_episode_end(e, outcome);

      for (auto& t : pending[e]) out.push(std::move(t));
      pending[e].clear();

      if (episodes_started < min_episodes) {
        venv.env(e).reset();
        ++episodes_started;
      } else {
        live[e] = 0;
      }
    }
  }
  stats.reward_best = stats.episodes > 0 ? reward_best : 0.0;
  return stats;
}

}  // namespace rlplan::parallel
