#include "core/reward.h"

#include <cmath>
#include <stdexcept>

namespace rlplan {

RewardCalculator::RewardCalculator(RewardParams params) : params_(params) {
  if (params_.lambda < 0.0 || params_.mu < 0.0) {
    throw std::invalid_argument("RewardParams: weights must be non-negative");
  }
  if (params_.alpha < 1.0) {
    throw std::invalid_argument(
        "RewardParams: alpha must be >= 1 for a smooth penalty at T0");
  }
}

double RewardCalculator::thermal_penalty(double temperature_c) const {
  const double dt = temperature_c - params_.t0_celsius;
  const double overshoot = std::max(dt, 0.0);
  if (overshoot == 0.0 && dt < -30.0) {
    return 0.0;  // sigmoid underflow guard; exact value is ~0 anyway
  }
  const double sigmoid_denom = 1.0 + std::exp(-dt);
  return params_.mu * std::pow(overshoot, params_.alpha) / sigmoid_denom;
}

double RewardCalculator::reward(double wirelength_mm,
                                double temperature_c) const {
  // -(lambda * W) equals (-lambda) * W bit for bit: negation is exact and
  // rounding is symmetric.
  return -wirelength_cost(wirelength_mm) - thermal_penalty(temperature_c);
}

}  // namespace rlplan
