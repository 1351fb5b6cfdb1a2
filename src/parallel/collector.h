// Rollout collection: batched policy forwards over environment replicas.
//
// collect_episodes() is the ONE experience-collection pipeline of the
// training stack; TrainingSession (rl/session.h) feeds it a task's VecEnv —
// one replica and no pool in the serial case. One call gathers at least
// `min_episodes` complete placement episodes under the current policy:
//
//   while any replica is live:
//     1. gather the [B, C, G, G] observations of the B live replicas
//     2. ONE batched PolicyValueNet forward (fanned out over the executor
//        the net's owner set on it — see PolicyValueNet::set_executor; a
//        TrainingSession sets one over its pool)
//     3. per replica: masked-categorical sample with its own RNG stream
//     4. step all B replicas — concurrently via ThreadPool::parallel_for
//        when a pool is given (parallelizing the episode-end reward
//        evaluation: microbump assignment + thermal model, the most
//        expensive part of a step), serially on the caller thread otherwise
//     5. finished replicas flush their episode into the shared buffer
//        (episode-aligned: an episode's transitions are contiguous and
//        terminated by episode_end, exactly what GAE expects), then reset
//        for another episode or go idle once the quota is met
//
// Everything outside steps 2/4 runs on the caller thread in replica order,
// so the produced rollout is a deterministic function of (policy weights,
// replica RNG states, replica count) — independent of the pool's thread
// count and of thread timing. With one replica the pipeline degenerates to
// the classic sample-step loop: episodes run one after another through
// batch-1 forwards.
#pragma once

#include <cstddef>
#include <functional>

#include "parallel/thread_pool.h"
#include "parallel/vec_env.h"
#include "rl/env.h"
#include "rl/policy_net.h"
#include "rl/rollout.h"
#include "robust/robust.h"

namespace rlplan::parallel {

/// Aggregate statistics of one collect_episodes() call.
struct CollectorStats {
  std::size_t steps = 0;      ///< transitions appended to the buffer
  std::size_t episodes = 0;   ///< completed episodes (>= min_episodes,
                              ///< unless the run was stopped early)
  std::size_t dead_ends = 0;  ///< episodes that ended with no feasible action
  double reward_sum = 0.0;    ///< sum of terminal extrinsic rewards
  double reward_best = 0.0;   ///< best terminal reward (valid iff episodes>0)
  /// kNone when the quota was met; otherwise the control stopped collection
  /// at a batch boundary — only the episodes completed by then are in the
  /// buffer (a deterministic prefix of the uncancelled run's episodes).
  robust::StopReason stop_reason = robust::StopReason::kNone;

  bool degraded() const { return stop_reason != robust::StopReason::kNone; }
};

/// Invoked on the caller thread, in deterministic replica order, right after
/// replica `env_index` finishes an episode and before it resets;
/// `venv.env(env_index)` still holds the terminal floorplan/metrics.
using EpisodeCallback =
    std::function<void(std::size_t env_index, const rl::StepOutcome&)>;

/// The unified collection pipeline documented above, over every replica of
/// `venv` with each replica's own sampling stream. Steps are fanned over
/// `pool` when non-null, run serially otherwise; either way the result is
/// identical. Appends the collected transitions to `out` and returns the
/// aggregate statistics.
CollectorStats collect_episodes(VecEnv& venv, rl::PolicyValueNet& net,
                                std::size_t min_episodes,
                                rl::RolloutBuffer& out, ThreadPool* pool,
                                const EpisodeCallback& on_episode_end = {},
                                const robust::RunControl& control = {});

}  // namespace rlplan::parallel
