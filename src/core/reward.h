// Thermally-aware floorplanning reward (RLPlanner, Section II-C).
//
//   R = -lambda * W  -  mu * max(T - T0, 0)^alpha / (1 + exp(-(T - T0)))
//
// W: total microbump wirelength (mm); T: peak chiplet temperature (deg C);
// T0: thermal limit; alpha: smoothness exponent avoiding a gradient kink at
// T == T0; lambda, mu: objective weights. The same function (negated) is the
// SA baseline's cost, so every method in Tables I/III optimizes an identical
// objective.
//
// The paper does not publish per-benchmark weights; defaults below put the
// wirelength and thermal terms on comparable scales for the bundled
// benchmarks and are overridable everywhere.
#pragma once

namespace rlplan {

struct RewardParams {
  double lambda = 2.0e-4;  ///< per-mm wirelength weight
  double mu = 1.0;         ///< thermal overshoot weight
  double t0_celsius = 85.0;  ///< thermal limit T0
  double alpha = 1.0;        ///< overshoot exponent (>= 1)
};

class RewardCalculator {
 public:
  explicit RewardCalculator(RewardParams params = {});

  const RewardParams& params() const { return params_; }

  /// Reward (higher is better; always <= 0 for W, T >= 0 inputs).
  double reward(double wirelength_mm, double temperature_c) const;

  /// Positive cost for minimizers (== -reward).
  double cost(double wirelength_mm, double temperature_c) const {
    return -reward(wirelength_mm, temperature_c);
  }

  /// The wirelength term alone, lambda * W. reward() subtracts it and a
  /// non-negative thermal penalty, so in floating point
  /// cost(W, T) >= wirelength_cost(W) for every T: the lower bound the SA
  /// baseline rejects moves on before it queries the temperature.
  double wirelength_cost(double wirelength_mm) const {
    return params_.lambda * wirelength_mm;
  }

  /// The thermal penalty term alone (the mu-weighted smoothed overshoot).
  double thermal_penalty(double temperature_c) const;

 private:
  RewardParams params_;
};

}  // namespace rlplan
