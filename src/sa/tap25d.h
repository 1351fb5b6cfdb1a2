// TAP-2.5D baseline: thermally-aware simulated-annealing chiplet placement
// (Ma et al., DATE 2021) — the comparison method of Tables I and III.
//
// State: a complete legal floorplan. Moves: displace one die (range shrinks
// as temperature falls), swap two dies, rotate one die; illegal proposals are
// rejected pre-evaluation. Cost: the negated RLPlanner reward (identical
// objective), with the thermal term supplied by an injected evaluator — the
// grid solver reproduces TAP-2.5D(HotSpot), the fast model reproduces
// TAP-2.5D(Fast Thermal Model). The classic anneal stages that cost:
// lambda * W is a lower bound of it (the thermal penalty is never
// negative), so a move whose wirelength alone loses the Metropolis draw is
// rejected without a thermal query, with results identical to scoring
// every move in full (sa/annealer.h).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>

#include "bump/assigner.h"
#include "core/chiplet.h"
#include "core/floorplan.h"
#include "core/reward.h"
#include "sa/annealer.h"
#include "thermal/evaluator.h"

namespace rlplan::sa {

struct Tap25dConfig {
  AnnealOptions anneal{};
  /// Move mix (normalized internally).
  double p_displace = 0.6;
  double p_swap = 0.25;
  double p_rotate = 0.15;
  /// Displacement range as a fraction of interposer extent at T0, shrinking
  /// linearly (in cooling-level count) to the final fraction.
  double displace_frac_initial = 0.35;
  double displace_frac_final = 0.02;
  double spacing_mm = 0.0;
  std::uint64_t seed = 1;
  /// Candidates proposed and scored per Metropolis round. 1 (default) is the
  /// classic single-proposal anneal driven through the incremental thermal
  /// protocol, with the wirelength bound skipping thermal queries on moves
  /// it already rejects. K > 1 switches to population mode: each round
  /// draws up to K legal perturbations of the current state, scores all of
  /// them through ONE ThermalEvaluator::max_temperature_batch() call (the
  /// SoA batch kernel on fast-model evaluators), and applies Metropolis
  /// acceptance to the best candidate. Each scored candidate counts against
  /// anneal.max_evaluations.
  std::size_t population = 1;
  /// Worker threads for the batched thermal scoring when population > 1
  /// (0 = score the batch on the calling thread). Results are identical for
  /// every thread count.
  std::size_t batch_threads = 0;
};

struct Tap25dResult {
  Floorplan best;
  double reward = 0.0;
  double wirelength_mm = 0.0;
  double temperature_c = 0.0;  ///< from the *injected* evaluator
  AnnealStats stats{};

  explicit Tap25dResult(Floorplan fp) : best(std::move(fp)) {}

  /// Cost-evaluation throughput of the anneal — the number the regression
  /// suite's `min_sa_evals_per_sec` floors gate on.
  double evaluations_per_second() const {
    return stats.seconds > 0.0
               ? static_cast<double>(stats.evaluations) / stats.seconds
               : 0.0;
  }
};

class Tap25dPlanner {
 public:
  explicit Tap25dPlanner(Tap25dConfig config = {});

  const Tap25dConfig& config() const { return config_; }

  /// Anneals from a first-fit initial placement. `evaluator` supplies the
  /// thermal term; wall/evaluation budgets come from config().anneal.
  /// config().population selects between the classic single-proposal anneal
  /// (1, driven through the incremental thermal protocol) and the
  /// batch-scored population mode (> 1).
  Tap25dResult plan(const ChipletSystem& system,
                    thermal::ThermalEvaluator& evaluator,
                    RewardCalculator reward_calc = RewardCalculator{},
                    bump::BumpAssigner assigner = bump::BumpAssigner{});

 private:
  /// Population-mode anneal: K proposals per Metropolis round, scored with
  /// one ThermalEvaluator::max_temperature_batch() call per round.
  Floorplan anneal_population(
      const ChipletSystem& system, thermal::ThermalEvaluator& evaluator,
      const RewardCalculator& reward_calc, const bump::BumpAssigner& assigner,
      Floorplan initial,
      std::function<std::optional<Floorplan>(const Floorplan&, Rng&)> propose,
      Rng& rng, AnnealStats& stats) const;

  Tap25dConfig config_;
};

}  // namespace rlplan::sa
