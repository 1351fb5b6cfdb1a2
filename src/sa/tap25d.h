// TAP-2.5D baseline: thermally-aware simulated-annealing chiplet placement
// (Ma et al., DATE 2021) — the comparison method of Tables I and III.
//
// State: a complete legal floorplan. Moves: displace one die (range shrinks
// as temperature falls), swap two dies, rotate one die; illegal proposals are
// rejected pre-evaluation. Cost: the negated RLPlanner reward (identical
// objective), with the thermal term supplied by an injected evaluator — the
// grid solver reproduces TAP-2.5D(HotSpot), the fast model reproduces
// TAP-2.5D(Fast Thermal Model). The planner runs sa::anneal with
// Tap25dConfig::population proposals per move and stages the cost in both
// modes: lambda * W is a lower bound of it (the thermal penalty is never
// negative), so a round whose wirelength alone loses the Metropolis draw is
// rejected without a thermal query, with results identical to scoring
// every candidate in full (sa/annealer.h).
#pragma once

#include <cstdint>

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
  /// Proposals per Metropolis round, sa::anneal's K. The thermal term is the
  /// only step that depends on it: 1 (default) is the classic anneal, which
  /// queries each candidate through the incremental thermal protocol; K > 1
  /// is population mode, which scores a round's legal candidates through
  /// ONE ThermalEvaluator::max_temperature_batch() call (exact deltas off
  /// the current floorplan on fast-model evaluators, thermal/incremental.h)
  /// and applies Metropolis acceptance to the best. Each scored candidate
  /// counts against anneal.max_evaluations.
  std::size_t population = 1;
  /// Worker threads handed to max_temperature_batch() when population > 1
  /// (0 = none). The fast model's evaluator uses them only for systems above
  /// IncrementalThermalState::kMaxChiplets, where it falls back to
  /// FastThermalModel::evaluate_batch(); other evaluators may ignore them.
  /// Results are identical for every thread count.
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
  /// thermal term; wall/evaluation budgets come from config().anneal, and
  /// config().population selects the thermal call (see Tap25dConfig).
  Tap25dResult plan(const ChipletSystem& system,
                    thermal::ThermalEvaluator& evaluator,
                    RewardCalculator reward_calc = RewardCalculator{},
                    bump::BumpAssigner assigner = bump::BumpAssigner{});

 private:
  Tap25dConfig config_;
};

}  // namespace rlplan::sa
