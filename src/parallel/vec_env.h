// Vectorized floorplanning environment: N independent FloorplanEnv replicas.
//
// Replica 0 drives the caller's thermal evaluator; every other replica owns
// a private clone of it — so the episode-end reward evaluation, the
// expensive part of a step, can run on any worker thread with zero
// synchronization, and incremental evaluators (thermal/incremental.h) keep
// fully independent per-replica coupling caches fed by each env's
// notify_place stream. A one-replica VecEnv clones nothing, so evaluators
// that cannot be cloned work there. Each replica also owns a private
// action-sampling RNG whose seed is derived deterministically from the
// VecEnv seed and the replica index. Because every replica's state is fully
// self-contained, trajectories are bit-identical to running the same N
// environments sequentially with the same derived seeds, for ANY
// num_threads setting (tests/vec_env_test.cpp asserts exactly this).
#pragma once

#include <cstdint>
#include <cstddef>
#include <memory>
#include <vector>

#include "bump/assigner.h"
#include "core/chiplet.h"
#include "core/reward.h"
#include "rl/env.h"
#include "thermal/evaluator.h"
#include "util/rng.h"

namespace rlplan::parallel {

class VecEnv {
 public:
  /// Sanity cap on num_envs (each replica owns an evaluator clone; far more
  /// replicas than cores is never useful and usually signals an integer
  /// conversion bug at the call site).
  static constexpr std::size_t kMaxEnvs = 4096;

  /// Builds `num_envs` replicas over `system`. Replica 0 drives `evaluator`
  /// itself; replicas 1.. drive clones of it. `system` and `evaluator` must
  /// outlive the VecEnv. Throws std::invalid_argument when num_envs is 0 or
  /// above kMaxEnvs, or when num_envs > 1 and the evaluator does not support
  /// cloning.
  VecEnv(const ChipletSystem& system, thermal::ThermalEvaluator& evaluator,
         RewardCalculator reward_calc, bump::BumpAssigner assigner,
         rl::EnvConfig env_config, std::size_t num_envs, std::uint64_t seed);

  std::size_t size() const { return envs_.size(); }

  rl::FloorplanEnv& env(std::size_t i) { return *envs_.at(i); }
  const rl::FloorplanEnv& env(std::size_t i) const { return *envs_.at(i); }

  /// Per-replica action-sampling stream (seeded with derive_seed(seed, i)).
  Rng& rng(std::size_t i) { return rngs_.at(i); }
  const Rng& rng(std::size_t i) const { return rngs_.at(i); }

  /// Seed of replica i: the (i+1)-th output of a SplitMix64 stream over the
  /// base seed. Stable across releases — the determinism tests and any
  /// recorded trajectories depend on it.
  static std::uint64_t derive_seed(std::uint64_t base, std::size_t index);

 private:
  std::vector<std::unique_ptr<thermal::ThermalEvaluator>> clones_;
  std::vector<std::unique_ptr<rl::FloorplanEnv>> envs_;
  std::vector<Rng> rngs_;
};

}  // namespace rlplan::parallel
