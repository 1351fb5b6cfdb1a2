// Sequential chiplet-placement MDP (the paper's "floorplanning environment").
//
// One episode places all chiplets, one per step, in a fixed order (largest
// area first by default). The action space is a G x G grid of candidate
// lower-left positions; the environment maintains the action mask M_t that
// zeroes infeasible cells (overlap / out of bounds), exactly as Fig. 1 of the
// paper describes. After the final placement, the reward calculator performs
// microbump assignment for the wirelength term and queries the injected
// thermal evaluator for the temperature term. Each placement is mirrored to
// the evaluator through the incremental protocol (notify_place), so an
// incremental evaluator (thermal/incremental.h) has every pairwise thermal
// coupling cached by the time the episode-end reward is computed; plain
// evaluators ignore the notifications and evaluate in one batch.
//
// Observation: a [C, G, G] tensor with C = 6 channels:
//   0  occupancy (fractional cell coverage of placed dies)
//   1  power-density map of placed dies (normalized)
//   2  feasibility mask of the chiplet being placed now
//   3  next-die width  / interposer width  (constant plane)
//   4  next-die height / interposer height (constant plane)
//   5  placement progress t / N             (constant plane)
#pragma once

#include <cstdint>
#include <vector>

#include "bump/assigner.h"
#include "core/chiplet.h"
#include "core/floorplan.h"
#include "core/reward.h"
#include "nn/tensor.h"
#include "thermal/evaluator.h"

namespace rlplan::rl {

struct EnvConfig {
  /// Largest G any grid-sized component accepts: the scenario loader's
  /// rl_grid cap. A negative count cast to size_t lands far above it, where
  /// G * G would wrap.
  static constexpr std::size_t kMaxGrid = 4096;

  std::size_t grid = 32;    ///< G: action/state resolution, in [4, kMaxGrid]
  double spacing_mm = 0.0;  ///< minimum clearance between dies
  /// Placement order (chiplet indices); empty = by descending area.
  std::vector<std::size_t> order{};
  /// Extrinsic reward when the agent reaches a state with no feasible action
  /// (drives the policy away from dead-end packings).
  double dead_end_reward = -100.0;
};

struct StepOutcome {
  bool done = false;
  bool dead_end = false;
  double reward = 0.0;  ///< extrinsic; nonzero only at episode end
};

/// Terminal metrics of the last completed episode.
struct EpisodeMetrics {
  bool valid = false;
  double wirelength_mm = 0.0;
  double temperature_c = 0.0;
  double reward = 0.0;
};

class FloorplanEnv {
 public:
  /// `system` and `evaluator` must outlive the environment. Throws
  /// std::invalid_argument on a grid outside [4, EnvConfig::kMaxGrid] or a
  /// bad placement order.
  FloorplanEnv(const ChipletSystem& system,
               thermal::ThermalEvaluator& evaluator,
               RewardCalculator reward_calc = RewardCalculator{},
               bump::BumpAssigner assigner = bump::BumpAssigner{},
               EnvConfig config = {});

  const ChipletSystem& system() const { return *system_; }
  const EnvConfig& config() const { return config_; }
  std::size_t grid() const { return config_.grid; }
  std::size_t num_actions() const { return config_.grid * config_.grid; }
  static constexpr std::size_t kChannels = 6;

  /// Starts a new episode; returns the initial observation.
  const nn::Tensor& reset();

  /// Current observation [kChannels, G, G] (valid after reset()).
  const nn::Tensor& observation() const { return observation_; }

  /// Feasibility of each action for the chiplet being placed now
  /// (1 = feasible). All-zero iff the episode is in a dead end.
  const std::vector<std::uint8_t>& action_mask() const { return mask_; }
  bool has_feasible_action() const;

  /// Applies an action (grid cell index). Infeasible actions throw
  /// std::invalid_argument — the agent must sample under the mask.
  StepOutcome step(std::size_t action);

  bool done() const { return done_; }
  std::size_t current_step() const { return t_; }
  /// Chiplet index being placed at the current step.
  std::size_t current_chiplet() const;

  const Floorplan& floorplan() const { return floorplan_; }
  const EpisodeMetrics& last_metrics() const { return metrics_; }
  const RewardCalculator& reward_calculator() const { return reward_calc_; }

  /// Grid-cell lower-left position in mm for an action index.
  Point action_position(std::size_t action) const;

  /// Evaluates a *complete external* floorplan with this env's reward
  /// pipeline (bump assignment + thermal evaluator). Used to score SA
  /// baselines under the identical objective.
  EpisodeMetrics evaluate_floorplan(const Floorplan& fp);

 private:
  void rebuild_mask();
  void rebuild_observation();
  double finish_episode();
  /// Shared metrics assembly; the flag picks the temperature query style
  /// (incremental for the internal episode end, batch for external scoring).
  EpisodeMetrics score_floorplan(const Floorplan& fp, bool use_incremental);

  EnvConfig config_;  ///< first: validated before anything sizes from it
  const ChipletSystem* system_;
  thermal::ThermalEvaluator* evaluator_;
  RewardCalculator reward_calc_;
  bump::BumpAssigner assigner_;

  std::vector<std::size_t> order_;
  Floorplan floorplan_;
  nn::Tensor observation_;
  std::vector<std::uint8_t> mask_;
  std::size_t t_ = 0;
  bool done_ = true;
  EpisodeMetrics metrics_{};
  double max_power_density_ = 0.0;
};

}  // namespace rlplan::rl
