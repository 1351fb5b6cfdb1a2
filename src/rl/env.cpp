#include "rl/env.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace rlplan::rl {

namespace {

EnvConfig checked_grid(EnvConfig config) {
  if (config.grid < 4 || config.grid > EnvConfig::kMaxGrid) {
    throw std::invalid_argument("EnvConfig: grid must be in [4, " +
                                std::to_string(EnvConfig::kMaxGrid) + "]");
  }
  return config;
}

}  // namespace

FloorplanEnv::FloorplanEnv(const ChipletSystem& system,
                           thermal::ThermalEvaluator& evaluator,
                           RewardCalculator reward_calc,
                           bump::BumpAssigner assigner, EnvConfig config)
    : config_(checked_grid(std::move(config))),
      system_(&system),
      evaluator_(&evaluator),
      reward_calc_(reward_calc),
      assigner_(std::move(assigner)),
      floorplan_(system),
      observation_({kChannels, config_.grid, config_.grid}),
      mask_(config_.grid * config_.grid, 0) {
  system.validate();
  order_ = config_.order.empty() ? system.placement_order_by_area()
                                 : config_.order;
  if (order_.size() != system.num_chiplets()) {
    throw std::invalid_argument(
        "EnvConfig: order must list every chiplet exactly once");
  }
  std::vector<bool> seen(system.num_chiplets(), false);
  for (std::size_t i : order_) {
    if (i >= system.num_chiplets() || seen[i]) {
      throw std::invalid_argument("EnvConfig: invalid placement order");
    }
    seen[i] = true;
  }
  for (const auto& c : system.chiplets()) {
    max_power_density_ = std::max(max_power_density_, c.power_density());
  }
  if (max_power_density_ <= 0.0) max_power_density_ = 1.0;
}

const nn::Tensor& FloorplanEnv::reset() {
  floorplan_.clear();
  evaluator_->notify_reset(*system_);
  t_ = 0;
  done_ = false;
  metrics_ = {};
  rebuild_mask();
  rebuild_observation();
  return observation_;
}

std::size_t FloorplanEnv::current_chiplet() const {
  if (done_) throw std::logic_error("current_chiplet: episode is done");
  return order_.at(t_);
}

Point FloorplanEnv::action_position(std::size_t action) const {
  const std::size_t g = config_.grid;
  if (action >= g * g) {
    throw std::invalid_argument("action index out of range");
  }
  const std::size_t row = action / g;
  const std::size_t col = action % g;
  const double px = system_->interposer_width() * static_cast<double>(col) /
                    static_cast<double>(g);
  const double py = system_->interposer_height() * static_cast<double>(row) /
                    static_cast<double>(g);
  return {px, py};
}

bool FloorplanEnv::has_feasible_action() const {
  return std::any_of(mask_.begin(), mask_.end(),
                     [](std::uint8_t m) { return m != 0; });
}

StepOutcome FloorplanEnv::step(std::size_t action) {
  if (done_) throw std::logic_error("step: episode is done; call reset()");
  if (action >= mask_.size() || mask_[action] == 0) {
    throw std::invalid_argument(
        "step: infeasible action (the agent must respect the mask)");
  }
  const std::size_t chiplet = current_chiplet();
  const Point position = action_position(action);
  floorplan_.place(chiplet, position, /*rotated=*/false);
  // Keep an incremental evaluator in sync as the episode builds up, so the
  // episode-end temperature query finds every pairwise coupling already
  // cached (a no-op for evaluators without incremental support).
  evaluator_->notify_place(*system_, chiplet, {position, /*rotated=*/false});
  ++t_;

  StepOutcome out;
  if (t_ == order_.size()) {
    done_ = true;
    out.done = true;
    out.reward = finish_episode();
    return out;
  }

  rebuild_mask();
  if (!has_feasible_action()) {
    done_ = true;
    out.done = true;
    out.dead_end = true;
    out.reward = config_.dead_end_reward;
    metrics_ = {};  // no valid terminal metrics for dead ends
    return out;
  }
  rebuild_observation();
  return out;
}

double FloorplanEnv::finish_episode() {
  // The incremental path reads the state built up by the per-step
  // notify_place() calls; the default protocol falls back to a full batch
  // evaluation, so both produce the same temperature.
  metrics_ = score_floorplan(floorplan_, /*use_incremental=*/true);
  evaluator_->commit();
  return metrics_.reward;
}

EpisodeMetrics FloorplanEnv::evaluate_floorplan(const Floorplan& fp) {
  if (!fp.is_complete()) {
    throw std::logic_error("evaluate_floorplan: incomplete floorplan");
  }
  return score_floorplan(fp, /*use_incremental=*/false);
}

EpisodeMetrics FloorplanEnv::score_floorplan(const Floorplan& fp,
                                             bool use_incremental) {
  EpisodeMetrics m;
  m.valid = true;
  m.wirelength_mm = assigner_.assign(*system_, fp).total_mm;
  m.temperature_c =
      use_incremental ? evaluator_->incremental_max_temperature(*system_, fp)
                      : evaluator_->max_temperature(*system_, fp);
  m.reward = reward_calc_.reward(m.wirelength_mm, m.temperature_c);
  return m;
}

void FloorplanEnv::rebuild_mask() {
  const std::size_t g = config_.grid;
  std::fill(mask_.begin(), mask_.end(), 0);
  if (t_ >= order_.size()) return;
  const std::size_t chiplet = order_[t_];
  for (std::size_t a = 0; a < g * g; ++a) {
    if (floorplan_.can_place(chiplet, action_position(a), /*rotated=*/false,
                             config_.spacing_mm)) {
      mask_[a] = 1;
    }
  }
}

void FloorplanEnv::rebuild_observation() {
  const std::size_t g = config_.grid;
  observation_.fill(0.0f);
  const double cw = system_->interposer_width() / static_cast<double>(g);
  const double ch = system_->interposer_height() / static_cast<double>(g);

  // Channels 0/1: occupancy and normalized power density of placed dies.
  for (std::size_t i = 0; i < system_->num_chiplets(); ++i) {
    if (!floorplan_.is_placed(i)) continue;
    const Rect r = floorplan_.rect_of(i);
    const double density =
        system_->chiplet(i).power_density() / max_power_density_;
    const auto c0 = static_cast<std::size_t>(
        std::clamp(std::floor(r.x / cw), 0.0, static_cast<double>(g - 1)));
    const auto c1 = static_cast<std::size_t>(
        std::clamp(std::ceil(r.right() / cw), 0.0, static_cast<double>(g)));
    const auto r0 = static_cast<std::size_t>(
        std::clamp(std::floor(r.y / ch), 0.0, static_cast<double>(g - 1)));
    const auto r1 = static_cast<std::size_t>(
        std::clamp(std::ceil(r.top() / ch), 0.0, static_cast<double>(g)));
    for (std::size_t row = r0; row < r1; ++row) {
      for (std::size_t col = c0; col < c1; ++col) {
        const Rect cell{static_cast<double>(col) * cw,
                        static_cast<double>(row) * ch, cw, ch};
        const auto f = static_cast<float>(
            cell.intersection_area(r) / cell.area());
        if (f <= 0.0f) continue;
        observation_.at(0, row, col) =
            std::min(1.0f, observation_.at(0, row, col) + f);
        observation_.at(1, row, col) = std::min(
            1.0f, observation_.at(1, row, col) +
                      f * static_cast<float>(density));
      }
    }
  }

  // Channel 2: feasibility of the current chiplet. Channels 3-5: scalars.
  float w_next = 0.0f;
  float h_next = 0.0f;
  if (t_ < order_.size()) {
    const Chiplet& next = system_->chiplet(order_[t_]);
    w_next = static_cast<float>(next.width / system_->interposer_width());
    h_next = static_cast<float>(next.height / system_->interposer_height());
  }
  const auto progress = static_cast<float>(
      static_cast<double>(t_) / static_cast<double>(order_.size()));
  for (std::size_t row = 0; row < g; ++row) {
    for (std::size_t col = 0; col < g; ++col) {
      observation_.at(2, row, col) =
          mask_[row * g + col] != 0 ? 1.0f : 0.0f;
      observation_.at(3, row, col) = w_next;
      observation_.at(4, row, col) = h_next;
      observation_.at(5, row, col) = progress;
    }
  }
}

}  // namespace rlplan::rl
