#include "rl/planner.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "rl/session.h"
#include "thermal/incremental.h"
#include "util/log.h"
#include "util/timer.h"

namespace rlplan::rl {

RlPlanner::RlPlanner(RlPlannerConfig config) : config_(std::move(config)) {}

PlannerResult RlPlanner::plan(const ChipletSystem& system,
                              const thermal::LayerStack& stack) {
  if (config_.backend == ThermalBackend::kGridSolver) {
    return run(system, stack,
               std::make_unique<thermal::GridSolverEvaluator>(stack,
                                                              config_.solver),
               0.0);
  }
  const Timer timer;
  thermal::ThermalCharacterizer characterizer(stack,
                                              config_.characterization);
  thermal::FastThermalModel model = characterizer.characterize(
      system.interposer_width(), system.interposer_height());
  const double charac_s = timer.seconds();
  // The incremental evaluator caches pairwise couplings as the env places
  // dies step by step (thermal/incremental.h).
  return run(system, stack,
             std::make_unique<thermal::IncrementalFastModelEvaluator>(
                 std::move(model)),
             charac_s);
}

PlannerResult RlPlanner::plan_with_model(const ChipletSystem& system,
                                         const thermal::LayerStack& stack,
                                         thermal::FastThermalModel model) {
  return run(system, stack,
             std::make_unique<thermal::IncrementalFastModelEvaluator>(
                 std::move(model)),
             0.0);
}

PlannerResult RlPlanner::run(const ChipletSystem& system,
                             const thermal::LayerStack& stack,
                             std::unique_ptr<thermal::ThermalEvaluator>
                                 evaluator,
                             double characterization_s) {
  PlannerResult result;
  result.characterization_s = characterization_s;

  // Single-scenario session over the caller's system; num_envs > 1 fans
  // the replicas over the session's thread pool.
  TrainingSessionConfig sc;
  sc.env = config_.env;
  sc.net = config_.net;
  sc.ppo = config_.ppo;
  sc.reward = config_.reward;
  sc.bump = config_.bump;
  sc.num_envs = config_.num_envs;
  sc.num_threads = config_.num_threads;
  sc.seed = config_.seed;
  sc.verbose = config_.verbose;

  std::vector<SessionTask> tasks;
  tasks.push_back({system.name(), &system, std::move(evaluator)});
  TrainingSession session(sc, std::move(tasks));
  if (config_.verbose && config_.num_envs > 1) {
    RLPLAN_INFO << "parallel rollouts: " << config_.num_envs << " envs";
  }

  const Timer timer;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    if (config_.time_budget_s > 0.0 &&
        timer.seconds() >= config_.time_budget_s) {
      break;
    }
    TrainStats stats = session.train_epoch();
    ++result.epochs_run;
    if (config_.greedy_eval_every > 0 &&
        (epoch + 1) % config_.greedy_eval_every == 0) {
      session.greedy_episode(0);
    }
    result.history.push_back(std::move(stats));
  }
  // Final greedy decode often beats the best stochastic sample.
  session.greedy_episode(0);
  result.train_s = timer.seconds();
  result.env_steps = session.total_env_steps();

  if (!session.has_best(0)) {
    RLPLAN_WARN << "no complete episode sampled; falling back to first-fit";
    result.best = first_fit_floorplan(system, config_.env);
    result.best_metrics = session.evaluate_floorplan(0, *result.best);
  } else {
    result.best = session.best_floorplan(0);
    result.best_metrics = session.best_metrics(0);
  }

  // Ground-truth final evaluation (comparable across methods, as Table I
  // reports HotSpot temperatures for every configuration).
  thermal::GridThermalSolver truth(stack, config_.solver);
  result.final_temperature_c = truth.solve(system, *result.best).max_temp_c;
  result.final_wirelength_mm =
      bump::BumpAssigner(config_.bump).assign(system, *result.best).total_mm;
  result.final_reward = RewardCalculator(config_.reward)
                            .reward(result.final_wirelength_mm,
                                    result.final_temperature_c);
  return result;
}

Floorplan first_fit_floorplan(const ChipletSystem& system,
                              const EnvConfig& config) {
  Floorplan fp(system);
  const std::size_t g = config.grid;
  const auto order = config.order.empty() ? system.placement_order_by_area()
                                          : config.order;
  for (const std::size_t chiplet : order) {
    bool placed = false;
    for (std::size_t a = 0; a < g * g && !placed; ++a) {
      const std::size_t row = a / g;
      const std::size_t col = a % g;
      const Point p{system.interposer_width() * static_cast<double>(col) /
                        static_cast<double>(g),
                    system.interposer_height() * static_cast<double>(row) /
                        static_cast<double>(g)};
      if (fp.can_place(chiplet, p, false, config.spacing_mm)) {
        fp.place(chiplet, p, false);
        placed = true;
      }
    }
    if (!placed) {
      throw std::runtime_error("first_fit_floorplan: chiplet " +
                               system.chiplet(chiplet).name +
                               " does not fit");
    }
  }
  return fp;
}

}  // namespace rlplan::rl
