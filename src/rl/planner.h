// RlPlanner — the top-level public API of the library.
//
// Wires together everything the paper's Fig. 1 shows: the placement
// environment, the PPO(+RND) agent, and the thermal-aware reward calculator
// (microbump assignment + injected thermal model), then trains for a given
// number of epochs or wall-clock budget and returns the best floorplan found.
// Training itself runs through the resumable TrainingSession engine
// (rl/session.h) — the planner is a convenience shell that adds thermal
// characterization, the epoch/time-budget loop, and ground-truth final
// scoring on top of a single-scenario session.
//
// The thermal backend is selectable: kFastModel (the paper's configuration —
// characterize once, evaluate cheaply every episode) or kGridSolver (ground
// truth in the loop, for ablations). Regardless of backend, the final best
// floorplan is re-evaluated with the ground-truth grid solver so reported
// temperatures are comparable across methods, as in Table I.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "bump/bump_grid.h"
#include "core/chiplet.h"
#include "core/floorplan.h"
#include "core/reward.h"
#include "rl/env.h"
#include "rl/ppo.h"
#include "thermal/characterize.h"
#include "thermal/evaluator.h"
#include "thermal/layer_stack.h"

namespace rlplan::rl {

enum class ThermalBackend {
  kFastModel,   ///< characterized LTI surrogate in the training loop
  kGridSolver,  ///< full grid solve per episode (slow; ablation only)
};

struct RlPlannerConfig {
  EnvConfig env{};
  PolicyNetConfig net{};
  PpoConfig ppo{};
  RewardParams reward{};
  bump::BumpGridConfig bump{};
  thermal::GridSolverConfig solver{};
  thermal::CharacterizationConfig characterization{};
  ThermalBackend backend = ThermalBackend::kFastModel;
  /// Environment replicas (src/parallel/). Each epoch collects its episodes
  /// from num_envs replicas: one batched policy forward per step over all
  /// live replicas, per-replica action-RNG streams derived from `seed`, and
  /// — when num_envs > 1 — environment stepping (including the episode-end
  /// thermal + microbump reward evaluation) fanned out over a thread pool,
  /// with replicas 1.. on clones of the evaluator. num_envs == 1 (the
  /// default) steps the one replica on the caller thread; results are
  /// reproducible for every num_envs and independent of num_threads.
  std::size_t num_envs = 1;
  /// Worker threads for env stepping and batched forwards when
  /// num_envs > 1. 0 = min(num_envs, hardware threads). Changing
  /// num_threads never changes the result, only the wall clock.
  std::size_t num_threads = 0;
  int epochs = 100;            ///< training epochs (collect+update cycles)
  double time_budget_s = 0.0;  ///< stop early when exceeded (0 = none)
  int greedy_eval_every = 10;  ///< greedy-decode cadence (0 = never)
  /// THE authoritative seed: every stream the training engine consumes (net
  /// init, PPO update shuffles, per-replica action sampling, RND) derives
  /// from it — see the derivation table in util/rng.h.
  std::uint64_t seed = 1;
  bool verbose = false;
};

struct PlannerResult {
  std::optional<Floorplan> best;     ///< best placement found
  EpisodeMetrics best_metrics{};     ///< metrics under the training evaluator
  double final_wirelength_mm = 0.0;  ///< microbump wirelength of `best`
  double final_temperature_c = 0.0;  ///< ground-truth (grid solver) peak temp
  double final_reward = 0.0;         ///< reward at ground-truth temperature
  double characterization_s = 0.0;
  double train_s = 0.0;
  int epochs_run = 0;
  long env_steps = 0;
  std::vector<TrainStats> history;
};

class RlPlanner {
 public:
  explicit RlPlanner(RlPlannerConfig config = {});

  const RlPlannerConfig& config() const { return config_; }

  /// Trains on `system` over `stack`, characterizing a fast model first when
  /// the backend requires one.
  PlannerResult plan(const ChipletSystem& system,
                     const thermal::LayerStack& stack);

  /// As plan(), but reuses a pre-characterized fast model (Table I workflow:
  /// one characterization shared across methods).
  PlannerResult plan_with_model(const ChipletSystem& system,
                                const thermal::LayerStack& stack,
                                thermal::FastThermalModel model);

 private:
  PlannerResult run(const ChipletSystem& system,
                    const thermal::LayerStack& stack,
                    std::unique_ptr<thermal::ThermalEvaluator> evaluator,
                    double characterization_s);

  RlPlannerConfig config_;
};

/// Deterministic first-fit placement (row-major scan of the action grid).
/// Fallback baseline and smoke-test utility; throws if a chiplet cannot be
/// placed.
Floorplan first_fit_floorplan(const ChipletSystem& system,
                              const EnvConfig& config);

}  // namespace rlplan::rl
