// End-to-end integration: characterization -> RL training -> SA baseline ->
// ground-truth scoring, at miniature scale.
#include <gtest/gtest.h>

#include "rl/planner.h"
#include "sa/tap25d.h"
#include "systems/synthetic.h"
#include "systems/systems.h"
#include "thermal/characterize.h"
#include "thermal/evaluator.h"
#include "thermal/incremental.h"

namespace rlplan {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    stack_ = new thermal::LayerStack(thermal::LayerStack::default_2p5d());
    systems::SyntheticConfig sc;
    sc.interposer_w_mm = 32.0;
    sc.interposer_h_mm = 32.0;
    sc.min_chiplets = 4;
    sc.max_chiplets = 4;
    sc.min_dim_mm = 5.0;
    sc.max_dim_mm = 9.0;
    sc.min_power_w = 5.0;
    sc.max_power_w = 20.0;
    system_ = new ChipletSystem(
        systems::SyntheticSystemGenerator(sc).generate(77, "integration"));

    thermal::CharacterizationConfig cc;
    cc.solver.dims = {24, 24};
    cc.auto_axis_points = 4;
    thermal::ThermalCharacterizer charac(*stack_, cc);
    model_ = new thermal::FastThermalModel(charac.characterize(32.0, 32.0));
  }
  static void TearDownTestSuite() {
    delete model_;
    delete system_;
    delete stack_;
    model_ = nullptr;
    system_ = nullptr;
    stack_ = nullptr;
  }

  static thermal::LayerStack* stack_;
  static ChipletSystem* system_;
  static thermal::FastThermalModel* model_;
};

thermal::LayerStack* IntegrationTest::stack_ = nullptr;
ChipletSystem* IntegrationTest::system_ = nullptr;
thermal::FastThermalModel* IntegrationTest::model_ = nullptr;

TEST_F(IntegrationTest, RlPlannerEndToEnd) {
  rl::RlPlannerConfig config;
  config.env.grid = 12;
  config.net.grid = 12;
  config.net.conv1 = 4;
  config.net.conv2 = 4;
  config.net.conv3 = 4;
  config.net.fc = 32;
  config.epochs = 3;
  config.ppo.episodes_per_update = 4;
  config.solver.dims = {24, 24};
  config.seed = 5;
  rl::RlPlanner planner(config);
  const auto result = planner.plan_with_model(*system_, *stack_, *model_);

  ASSERT_TRUE(result.best.has_value());
  EXPECT_TRUE(result.best->is_complete());
  EXPECT_TRUE(result.best->is_legal());
  EXPECT_EQ(result.epochs_run, 3);
  EXPECT_EQ(result.history.size(), 3u);
  EXPECT_GT(result.final_wirelength_mm, 0.0);
  EXPECT_GT(result.final_temperature_c, stack_->ambient_c());
  EXPECT_LT(result.final_temperature_c, 150.0);
  EXPECT_LT(result.final_reward, 0.0);
  // Fast-model metrics and ground truth agree within a sane band.
  EXPECT_NEAR(result.best_metrics.temperature_c, result.final_temperature_c,
              8.0);
}

TEST_F(IntegrationTest, RlPlannerWithRndEndToEnd) {
  rl::RlPlannerConfig config;
  config.env.grid = 12;
  config.net.grid = 12;
  config.net.conv1 = 4;
  config.net.conv2 = 4;
  config.net.conv3 = 4;
  config.net.fc = 32;
  config.epochs = 2;
  config.ppo.episodes_per_update = 4;
  config.ppo.use_rnd = true;
  config.solver.dims = {24, 24};
  config.seed = 6;
  rl::RlPlanner planner(config);
  const auto result = planner.plan_with_model(*system_, *stack_, *model_);
  ASSERT_TRUE(result.best.has_value());
  EXPECT_TRUE(result.best->is_legal());
}

TEST_F(IntegrationTest, SaBothEvaluatorConfigurations) {
  sa::Tap25dConfig config;
  config.anneal.max_evaluations = 300;
  config.anneal.t_final = 1e-2;
  config.seed = 7;

  thermal::IncrementalFastModelEvaluator fast_eval(*model_);
  sa::Tap25dPlanner planner(config);
  const auto fast_result = planner.plan(*system_, fast_eval);
  EXPECT_TRUE(fast_result.best.is_legal());

  thermal::GridSolverEvaluator truth_eval(*stack_, {.dims = {24, 24}});
  sa::Tap25dConfig slow_config = config;
  slow_config.anneal.max_evaluations = 60;  // solver evals are expensive
  sa::Tap25dPlanner slow_planner(slow_config);
  const auto slow_result = slow_planner.plan(*system_, truth_eval);
  EXPECT_TRUE(slow_result.best.is_legal());

  // Both must land in a physically sensible temperature range.
  EXPECT_GT(fast_result.temperature_c, stack_->ambient_c());
  EXPECT_GT(slow_result.temperature_c, stack_->ambient_c());
}

TEST_F(IntegrationTest, OptimizedBeatsRandomPlacement) {
  // Any optimizer output should beat the average random legal placement
  // under the identical ground-truth objective.
  thermal::GridThermalSolver truth(*stack_, {.dims = {24, 24}});
  const bump::BumpAssigner assigner;
  const RewardCalculator rc;
  const auto score = [&](const Floorplan& fp) {
    return rc.reward(assigner.assign(*system_, fp).total_mm,
                     truth.solve(*system_, fp).max_temp_c);
  };

  double random_sum = 0.0;
  for (int i = 0; i < 5; ++i) {
    Rng rng(1000 + i);
    random_sum += score(systems::random_legal_floorplan(*system_, rng));
  }
  const double random_avg = random_sum / 5.0;

  sa::Tap25dConfig config;
  config.anneal.max_evaluations = 400;
  config.seed = 9;
  thermal::IncrementalFastModelEvaluator fast_eval(*model_);
  sa::Tap25dPlanner planner(config);
  const auto sa_result = planner.plan(*system_, fast_eval);
  EXPECT_GT(score(sa_result.best), random_avg)
      << "SA under the fast model failed to beat random placement on the "
         "ground-truth objective";
}

TEST_F(IntegrationTest, FirstFitFallbackWorksOnBenchmarks) {
  for (const auto& sys : systems::make_benchmark_systems()) {
    rl::EnvConfig config;
    config.grid = 48;
    const Floorplan fp = rl::first_fit_floorplan(sys, config);
    EXPECT_TRUE(fp.is_complete()) << sys.name();
    EXPECT_TRUE(fp.is_legal()) << sys.name();
  }
}

TEST_F(IntegrationTest, BenchmarkSystemsLandInPaperTemperatureRegime) {
  // First-fit placements of the Table I systems should produce peak
  // temperatures in a plausible operating window (the paper reports 75-98C;
  // unoptimized placements may run somewhat hotter).
  thermal::GridThermalSolver truth(*stack_, {.dims = {32, 32}});
  for (const auto& sys : systems::make_benchmark_systems()) {
    rl::EnvConfig config;
    config.grid = 48;
    const Floorplan fp = rl::first_fit_floorplan(sys, config);
    const double t = truth.solve(sys, fp).max_temp_c;
    EXPECT_GT(t, 60.0) << sys.name();
    // First-fit corner-packs the dies, which is thermally pathological;
    // optimized placements land 30-50 K cooler (see bench/table1_baselines).
    EXPECT_LT(t, 145.0) << sys.name();
  }
}

}  // namespace
}  // namespace rlplan
