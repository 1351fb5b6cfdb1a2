#include "sa/tap25d.h"

#include <gtest/gtest.h>

#include <cmath>

#include "fast_model_oracle.h"
#include "rl/planner.h"
#include "systems/synthetic.h"
#include "thermal/evaluator.h"
#include "thermal/incremental.h"

namespace rlplan::sa {
namespace {

// Geometric proxy evaluator: compact packings run hotter.
class ProxyEvaluator final : public thermal::ThermalEvaluator {
 public:
  double max_temperature(const ChipletSystem& system,
                         const Floorplan& floorplan) override {
    ++count_;
    double worst = 45.0;
    const auto rects = floorplan.placed_rects();
    for (std::size_t i = 0; i < rects.size(); ++i) {
      if (!rects[i]) continue;
      double t = 45.0 + system.chiplet(i).power;
      for (std::size_t j = 0; j < rects.size(); ++j) {
        if (j == i || !rects[j]) continue;
        t += system.chiplet(j).power /
             (1.0 + 0.5 * center_distance(*rects[i], *rects[j]));
      }
      worst = std::max(worst, t);
    }
    return worst;
  }
  long num_evaluations() const override { return count_; }
  std::string name() const override { return "proxy"; }

 private:
  long count_ = 0;
};

ChipletSystem sa_system() {
  return ChipletSystem("sa", 30.0, 30.0,
                       {{"a", 9.0, 7.0, 30.0},
                        {"b", 7.0, 7.0, 15.0},
                        {"c", 5.0, 9.0, 10.0},
                        {"d", 4.0, 4.0, 5.0}},
                       {{0, 1, 128}, {1, 2, 64}, {2, 3, 32}, {0, 3, 16}});
}

/// Characterization-free model with smooth analytic tables, imaged on an
/// extent_mm square package.
thermal::FastThermalModel analytic_model(double extent_mm = 30.0) {
  std::vector<double> dims{2.0, 6.0, 10.0};
  std::vector<std::vector<double>> self_vals(3, std::vector<double>(3));
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      self_vals[i][j] = 2.5 / (1.0 + 0.05 * dims[i] * dims[j]);
    }
  }
  std::vector<double> distances, mutual_vals;
  for (double d = 0.0; d <= 45.0; d += 1.5) {
    distances.push_back(d);
    mutual_vals.push_back(0.03 + 0.7 * std::exp(-d / 7.0));
  }
  thermal::FastThermalModel model(
      thermal::SelfResistanceTable(dims, dims, self_vals),
      thermal::MutualResistanceTable(distances, mutual_vals), 45.0, {});
  model.set_image_params(extent_mm, extent_mm, 0.03);
  return model;
}

Tap25dConfig quick_config(std::uint64_t seed) {
  Tap25dConfig config;
  config.anneal.max_evaluations = 600;
  config.anneal.t_final = 1e-3;
  config.anneal.cooling = 0.9;
  config.seed = seed;
  return config;
}

TEST(Tap25d, ProducesLegalFloorplan) {
  const auto sys = sa_system();
  ProxyEvaluator eval;
  Tap25dPlanner planner(quick_config(1));
  const auto result = planner.plan(sys, eval);
  EXPECT_TRUE(result.best.is_complete());
  EXPECT_TRUE(result.best.is_legal());
  EXPECT_GT(result.wirelength_mm, 0.0);
  EXPECT_LT(result.reward, 0.0);
}

TEST(Tap25d, ImprovesOverInitialPlacement) {
  const auto sys = sa_system();
  ProxyEvaluator eval;
  const RewardCalculator rc;
  const bump::BumpAssigner ba;

  // Reconstruct the planner's initial state (first-fit, grid 64).
  rl::EnvConfig ff;
  ff.grid = 64;
  const Floorplan initial = rl::first_fit_floorplan(sys, ff);
  ProxyEvaluator eval_init;
  const double initial_reward =
      rc.reward(ba.assign(sys, initial).total_mm,
                eval_init.max_temperature(sys, initial));

  Tap25dPlanner planner(quick_config(2));
  const auto result = planner.plan(sys, eval);
  EXPECT_GE(result.reward, initial_reward)
      << "SA must not end worse than its starting point";
}

TEST(Tap25d, DeterministicGivenSeed) {
  const auto sys = sa_system();
  auto run = [&](std::uint64_t seed) {
    ProxyEvaluator eval;
    Tap25dPlanner planner(quick_config(seed));
    return planner.plan(sys, eval).reward;
  };
  EXPECT_DOUBLE_EQ(run(3), run(3));
}

TEST(Tap25d, RespectsEvaluationBudget) {
  const auto sys = sa_system();
  ProxyEvaluator eval;
  Tap25dConfig config = quick_config(4);
  config.anneal.max_evaluations = 100;
  Tap25dPlanner planner(config);
  planner.plan(sys, eval);
  // +2: final reporting re-evaluates wirelength and temperature once.
  EXPECT_LE(eval.num_evaluations(), 102);
}

TEST(Tap25d, SpacingConstraintHolds) {
  const auto sys = sa_system();
  ProxyEvaluator eval;
  Tap25dConfig config = quick_config(5);
  config.spacing_mm = 1.0;
  Tap25dPlanner planner(config);
  const auto result = planner.plan(sys, eval);
  EXPECT_TRUE(result.best.is_legal(1.0));
}

TEST(Tap25d, RotationMovesProduceRotatedDies) {
  // With rotate-heavy move mix, at least some accepted state should carry a
  // rotation for non-square dies.
  const auto sys = sa_system();
  ProxyEvaluator eval;
  Tap25dConfig config = quick_config(6);
  config.p_displace = 0.2;
  config.p_swap = 0.0;
  config.p_rotate = 0.8;
  config.anneal.max_evaluations = 400;
  Tap25dPlanner planner(config);
  const auto result = planner.plan(sys, eval);
  EXPECT_TRUE(result.best.is_legal());
}

TEST(Tap25d, RejectsDegenerateMoveMix) {
  Tap25dConfig config;
  config.p_displace = 0.0;
  config.p_swap = 0.0;
  config.p_rotate = 0.0;
  EXPECT_THROW(Tap25dPlanner{config}, std::invalid_argument);
}

TEST(Tap25d, EvaluatorInjectionIsObservable) {
  const auto sys = sa_system();
  ProxyEvaluator eval;
  Tap25dPlanner planner(quick_config(7));
  planner.plan(sys, eval);
  EXPECT_GT(eval.num_evaluations(), 10);
}

TEST(Tap25d, IncrementalEvaluatorMatchesOracleTrajectory) {
  // The incremental evaluator's temperatures sit within ~1e-13 C of the
  // oracle's full re-evaluations, far inside any Metropolis decision margin
  // here, so the whole anneal — every accept/reject, driven through the
  // commit/rollback hooks — must follow the identical trajectory and land on
  // the identical floorplan.
  const thermal::FastThermalModel model = analytic_model();
  const auto sys = sa_system();
  thermal::oracle::OracleEvaluator reference(model);
  thermal::IncrementalFastModelEvaluator incr(model);
  Tap25dPlanner planner(quick_config(3));
  const auto r_ref = planner.plan(sys, reference);
  const auto r_incr = planner.plan(sys, incr);

  EXPECT_EQ(r_ref.stats.accepted, r_incr.stats.accepted);
  EXPECT_EQ(r_ref.stats.evaluations, r_incr.stats.evaluations);
  EXPECT_NEAR(r_ref.temperature_c, r_incr.temperature_c, 1e-9);
  EXPECT_NEAR(r_ref.reward, r_incr.reward, 1e-9);
  for (std::size_t i = 0; i < sys.num_chiplets(); ++i) {
    ASSERT_TRUE(r_incr.best.is_placed(i));
    EXPECT_EQ(r_ref.best.placement(i), r_incr.best.placement(i))
        << "chiplet " << i;
  }
}

TEST(Tap25d, WirelengthBoundSkipsThermalQueries) {
  // A sweep-like system (random nets over many dies, running below T0):
  // wirelength alone rejects most moves, and every evaluation is either an
  // incremental thermal query or a rejection on the bound. A refactor that
  // silently stops skipping fails here.
  systems::FamilyConfig fc;
  fc.chiplets = 24;
  fc.interposer_w_mm = 70.0;
  fc.interposer_h_mm = 70.0;
  fc.min_dim_mm = 3.0;
  fc.max_dim_mm = 8.0;
  fc.min_power_w = 1.0;
  fc.max_power_w = 4.0;
  fc.extra_net_prob = 0.1;
  const ChipletSystem sys = systems::generate_family(fc, 37, "sweep24");
  const thermal::FastThermalModel model = analytic_model(70.0);
  thermal::IncrementalFastModelEvaluator eval(model);

  Tap25dConfig config = quick_config(23);
  config.anneal.max_evaluations = 1500;
  config.anneal.t_final = 1e-5;
  const auto result = Tap25dPlanner(config).plan(sys, eval);
  EXPECT_EQ(eval.incremental_queries() + result.stats.early_rejects,
            result.stats.evaluations);
  EXPECT_GT(result.stats.early_rejects, result.stats.evaluations / 4);
  EXPECT_EQ(eval.full_evaluations(), 1);  // the final reporting evaluation
}

// ------------------------------------------------------- population mode ----

TEST(Tap25dPopulation, ProducesLegalFloorplanAndRespectsBudget) {
  const auto sys = sa_system();
  ProxyEvaluator eval;  // exercises the default max_temperature_batch
  Tap25dConfig config = quick_config(11);
  config.population = 4;
  config.anneal.max_evaluations = 300;
  Tap25dPlanner planner(config);
  const auto result = planner.plan(sys, eval);
  EXPECT_TRUE(result.best.is_complete());
  EXPECT_TRUE(result.best.is_legal());
  EXPECT_GT(result.stats.evaluations, 0);
  // The round in flight when the budget trips may finish scoring its K
  // candidates; +2 for the final reporting evaluations.
  EXPECT_LE(eval.num_evaluations(),
            300 + static_cast<long>(config.population) + 2);
}

TEST(Tap25dPopulation, DeterministicGivenSeedAndThreadCountIndependent) {
  const auto sys = sa_system();
  const auto model = analytic_model();
  const auto run = [&](std::size_t threads) {
    thermal::IncrementalFastModelEvaluator eval(model);
    Tap25dConfig config = quick_config(12);
    config.population = 5;
    config.batch_threads = threads;
    Tap25dPlanner planner(config);
    return planner.plan(sys, eval);
  };
  const auto serial = run(0);
  const auto threaded = run(3);
  EXPECT_DOUBLE_EQ(serial.reward, threaded.reward);
  EXPECT_EQ(serial.stats.evaluations, threaded.stats.evaluations);
  EXPECT_EQ(serial.stats.accepted, threaded.stats.accepted);
  for (std::size_t i = 0; i < sys.num_chiplets(); ++i) {
    EXPECT_EQ(serial.best.placement(i), threaded.best.placement(i));
  }
}

TEST(Tap25dPopulation, NoWorseThanInitialPlacement) {
  const auto sys = sa_system();
  const auto model = analytic_model();
  const RewardCalculator rc;
  const bump::BumpAssigner ba;
  rl::EnvConfig ff;
  ff.grid = 64;
  const Floorplan initial = rl::first_fit_floorplan(sys, ff);
  thermal::IncrementalFastModelEvaluator eval_init(model);
  const double initial_reward =
      rc.reward(ba.assign(sys, initial).total_mm,
                eval_init.max_temperature(sys, initial));

  thermal::IncrementalFastModelEvaluator eval(model);
  Tap25dConfig config = quick_config(13);
  config.population = 4;
  Tap25dPlanner planner(config);
  const auto result = planner.plan(sys, eval);
  EXPECT_GE(result.reward, initial_reward);
}

TEST(Tap25dPopulation, RejectsZeroPopulation) {
  Tap25dConfig config;
  config.population = 0;
  EXPECT_THROW(Tap25dPlanner{config}, std::invalid_argument);
}

}  // namespace
}  // namespace rlplan::sa
