#include "parallel/vec_env.h"

#include <stdexcept>

namespace rlplan::parallel {

VecEnv::VecEnv(const ChipletSystem& system,
               thermal::ThermalEvaluator& evaluator,
               RewardCalculator reward_calc, bump::BumpAssigner assigner,
               rl::EnvConfig env_config, std::size_t num_envs,
               std::uint64_t seed) {
  // The upper bound catches size_t underflow from negative inputs before it
  // reaches vector::reserve as an opaque length_error.
  if (num_envs == 0 || num_envs > kMaxEnvs) {
    throw std::invalid_argument("VecEnv: num_envs must be in [1, " +
                                std::to_string(kMaxEnvs) + "]");
  }
  clones_.reserve(num_envs - 1);
  envs_.reserve(num_envs);
  rngs_.reserve(num_envs);
  for (std::size_t i = 0; i < num_envs; ++i) {
    thermal::ThermalEvaluator* replica_evaluator = &evaluator;
    if (i > 0) {
      clones_.push_back(evaluator.clone());
      if (!clones_.back()) {
        throw std::invalid_argument("VecEnv: evaluator '" + evaluator.name() +
                                    "' does not support clone()");
      }
      replica_evaluator = clones_.back().get();
    }
    envs_.push_back(std::make_unique<rl::FloorplanEnv>(
        system, *replica_evaluator, reward_calc, assigner, env_config));
    rngs_.emplace_back(derive_seed(seed, i));
  }
}

std::uint64_t VecEnv::derive_seed(std::uint64_t base, std::size_t index) {
  return derive_substream_seed(base, index);
}

}  // namespace rlplan::parallel
