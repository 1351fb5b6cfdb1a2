#include "rl/env.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "thermal/evaluator.h"

namespace rlplan::rl {
namespace {

// A trivially fast evaluator so env tests don't pay for characterization.
class StubEvaluator final : public thermal::ThermalEvaluator {
 public:
  double max_temperature(const ChipletSystem& system,
                         const Floorplan& floorplan) override {
    ++count_;
    // Temperature proxy: bounding-box density (hotter when compact).
    const Rect bb = floorplan.bounding_box();
    const double area = std::max(bb.area(), 1.0);
    return 45.0 + 20.0 * system.total_power() / area;
  }
  long num_evaluations() const override { return count_; }
  std::string name() const override { return "stub"; }

 private:
  long count_ = 0;
};

ChipletSystem small_system() {
  return ChipletSystem("env", 32.0, 32.0,
                       {{"a", 10.0, 10.0, 20.0},
                        {"b", 8.0, 8.0, 10.0},
                        {"c", 6.0, 6.0, 5.0}},
                       {{0, 1, 64}, {1, 2, 32}});
}

TEST(FloorplanEnv, ResetGivesObservationAndMask) {
  const auto sys = small_system();
  StubEvaluator eval;
  FloorplanEnv env(sys, eval, RewardCalculator{}, bump::BumpAssigner{},
                   {.grid = 16});
  const auto& obs = env.reset();
  EXPECT_EQ(obs.shape(),
            (std::vector<std::size_t>{FloorplanEnv::kChannels, 16, 16}));
  EXPECT_EQ(env.action_mask().size(), 256u);
  EXPECT_TRUE(env.has_feasible_action());
  EXPECT_FALSE(env.done());
  EXPECT_EQ(env.current_step(), 0u);
}

TEST(FloorplanEnv, MaskMatchesCanPlace) {
  const auto sys = small_system();
  StubEvaluator eval;
  FloorplanEnv env(sys, eval, RewardCalculator{}, bump::BumpAssigner{},
                   {.grid = 16});
  env.reset();
  const auto& mask = env.action_mask();
  const std::size_t chip = env.current_chiplet();
  const Floorplan& fp = env.floorplan();
  for (std::size_t a = 0; a < mask.size(); ++a) {
    EXPECT_EQ(mask[a] != 0,
              fp.can_place(chip, env.action_position(a), false))
        << "action " << a;
  }
}

TEST(FloorplanEnv, PlacementOrderIsByAreaDescending) {
  const auto sys = small_system();
  StubEvaluator eval;
  FloorplanEnv env(sys, eval, RewardCalculator{}, bump::BumpAssigner{},
                   {.grid = 16});
  env.reset();
  EXPECT_EQ(env.current_chiplet(), 0u);  // largest die first
  env.step(0);
  EXPECT_EQ(env.current_chiplet(), 1u);
}

TEST(FloorplanEnv, CustomOrderRespected) {
  const auto sys = small_system();
  StubEvaluator eval;
  EnvConfig config{.grid = 16};
  config.order = {2, 0, 1};
  FloorplanEnv env(sys, eval, RewardCalculator{}, bump::BumpAssigner{},
                   config);
  env.reset();
  EXPECT_EQ(env.current_chiplet(), 2u);
}

TEST(FloorplanEnv, RejectsInvalidOrder) {
  const auto sys = small_system();
  StubEvaluator eval;
  EnvConfig config{.grid = 16};
  config.order = {0, 0, 1};  // duplicate
  EXPECT_THROW(FloorplanEnv(sys, eval, RewardCalculator{},
                            bump::BumpAssigner{}, config),
               std::invalid_argument);
}

TEST(FloorplanEnv, RejectsOutOfRangeGrid) {
  // SIZE_MAX - 3 is what a --grid=-4 flag becomes after the size_t cast;
  // G * G would wrap to 16 if anything were sized before the check.
  const auto sys = small_system();
  StubEvaluator eval;
  for (const std::size_t grid :
       {std::size_t{3}, std::numeric_limits<std::size_t>::max() - 3}) {
    EXPECT_THROW(FloorplanEnv(sys, eval, RewardCalculator{},
                              bump::BumpAssigner{}, {.grid = grid}),
                 std::invalid_argument)
        << "grid " << grid;
  }
}

TEST(FloorplanEnv, StepPlacesChipletAtActionCell) {
  const auto sys = small_system();
  StubEvaluator eval;
  FloorplanEnv env(sys, eval, RewardCalculator{}, bump::BumpAssigner{},
                   {.grid = 16});
  env.reset();
  const std::size_t chip = env.current_chiplet();
  // Find some feasible action.
  std::size_t action = 0;
  for (std::size_t a = 0; a < env.action_mask().size(); ++a) {
    if (env.action_mask()[a] != 0) {
      action = a;
      break;
    }
  }
  const Point expected = env.action_position(action);
  env.step(action);
  EXPECT_TRUE(env.floorplan().is_placed(chip));
  EXPECT_EQ(env.floorplan().placement(chip)->position, expected);
}

TEST(FloorplanEnv, InfeasibleActionThrows) {
  const auto sys = small_system();
  StubEvaluator eval;
  FloorplanEnv env(sys, eval, RewardCalculator{}, bump::BumpAssigner{},
                   {.grid = 16});
  env.reset();
  // The far right column cannot host the 10 mm die on a 32 mm interposer
  // (cell 15 -> x = 30, die right edge would be 40 > 32).
  const std::size_t bad_action = 15;
  ASSERT_EQ(env.action_mask()[bad_action], 0);
  EXPECT_THROW(env.step(bad_action), std::invalid_argument);
}

TEST(FloorplanEnv, EpisodeCompletesWithTerminalReward) {
  const auto sys = small_system();
  StubEvaluator eval;
  FloorplanEnv env(sys, eval, RewardCalculator{}, bump::BumpAssigner{},
                   {.grid = 16});
  env.reset();
  int steps = 0;
  StepOutcome out;
  while (!env.done()) {
    std::size_t action = 0;
    for (std::size_t a = 0; a < env.action_mask().size(); ++a) {
      if (env.action_mask()[a] != 0) {
        action = a;
        break;
      }
    }
    out = env.step(action);
    ++steps;
    if (!out.done) {
      EXPECT_EQ(out.reward, 0.0) << "intermediate rewards must be zero";
    }
  }
  EXPECT_EQ(steps, 3);
  EXPECT_TRUE(out.done);
  EXPECT_FALSE(out.dead_end);
  EXPECT_LT(out.reward, 0.0);
  EXPECT_TRUE(env.last_metrics().valid);
  EXPECT_GT(env.last_metrics().wirelength_mm, 0.0);
  EXPECT_GT(env.last_metrics().temperature_c, 45.0);
  EXPECT_EQ(eval.num_evaluations(), 1);  // one thermal eval per episode
}

TEST(FloorplanEnv, ObservationChannelsConsistent) {
  const auto sys = small_system();
  StubEvaluator eval;
  FloorplanEnv env(sys, eval, RewardCalculator{}, bump::BumpAssigner{},
                   {.grid = 16});
  env.reset();
  // Before any placement: occupancy and power channels all zero.
  const auto& obs0 = env.observation();
  for (std::size_t i = 0; i < 16 * 16; ++i) {
    EXPECT_EQ(obs0.data()[0 * 256 + i], 0.0f);
    EXPECT_EQ(obs0.data()[1 * 256 + i], 0.0f);
  }
  // Channel 2 equals the mask.
  for (std::size_t i = 0; i < 256; ++i) {
    EXPECT_EQ(obs0.data()[2 * 256 + i] != 0.0f,
              env.action_mask()[i] != 0);
  }
  // Channels 3/4: next die extent fractions (10/32).
  EXPECT_NEAR(obs0.data()[3 * 256], 10.0f / 32.0f, 1e-6);
  EXPECT_NEAR(obs0.data()[4 * 256], 10.0f / 32.0f, 1e-6);
  // Channel 5: progress 0.
  EXPECT_EQ(obs0.data()[5 * 256], 0.0f);

  env.step(0);  // place at the lower-left corner
  const auto& obs1 = env.observation();
  // Occupancy now nonzero where the die sits.
  EXPECT_GT(obs1.data()[0 * 256 + 0], 0.9f);
  // Progress advanced to 1/3.
  EXPECT_NEAR(obs1.data()[5 * 256], 1.0f / 3.0f, 1e-6);
}

TEST(FloorplanEnv, DeadEndDetected) {
  // Two 10x10 dies on a 16x16 interposer with grid 4: after placing the
  // first die center-ish, the second cannot fit anywhere.
  const ChipletSystem sys("dead", 16.0, 16.0,
                          {{"a", 10.0, 10.0, 5.0}, {"b", 10.0, 10.0, 5.0}},
                          {});
  StubEvaluator eval;
  EnvConfig config{.grid = 4};
  config.dead_end_reward = -77.0;
  FloorplanEnv env(sys, eval, RewardCalculator{}, bump::BumpAssigner{},
                   config);
  env.reset();
  // Cell (1,1) = position (4,4): die spans [4,14]^2, leaving no room.
  const std::size_t action = 1 * 4 + 1;
  ASSERT_NE(env.action_mask()[action], 0);
  const StepOutcome out = env.step(action);
  EXPECT_TRUE(out.done);
  EXPECT_TRUE(out.dead_end);
  EXPECT_DOUBLE_EQ(out.reward, -77.0);
  EXPECT_FALSE(env.last_metrics().valid);
}

TEST(FloorplanEnv, ResetAfterEpisodeStartsFresh) {
  const auto sys = small_system();
  StubEvaluator eval;
  FloorplanEnv env(sys, eval, RewardCalculator{}, bump::BumpAssigner{},
                   {.grid = 16});
  env.reset();
  while (!env.done()) {
    for (std::size_t a = 0; a < env.action_mask().size(); ++a) {
      if (env.action_mask()[a] != 0) {
        env.step(a);
        break;
      }
    }
  }
  env.reset();
  EXPECT_FALSE(env.done());
  EXPECT_EQ(env.current_step(), 0u);
  EXPECT_EQ(env.floorplan().num_placed(), 0u);
}

TEST(FloorplanEnv, StepAfterDoneThrows) {
  const auto sys = small_system();
  StubEvaluator eval;
  FloorplanEnv env(sys, eval, RewardCalculator{}, bump::BumpAssigner{},
                   {.grid = 16});
  env.reset();
  while (!env.done()) {
    for (std::size_t a = 0; a < env.action_mask().size(); ++a) {
      if (env.action_mask()[a] != 0) {
        env.step(a);
        break;
      }
    }
  }
  EXPECT_THROW(env.step(0), std::logic_error);
}

TEST(FloorplanEnv, EvaluateExternalFloorplan) {
  const auto sys = small_system();
  StubEvaluator eval;
  FloorplanEnv env(sys, eval, RewardCalculator{}, bump::BumpAssigner{},
                   {.grid = 16});
  Floorplan fp(sys);
  fp.place(0, {0.0, 0.0});
  fp.place(1, {12.0, 0.0});
  fp.place(2, {22.0, 0.0});
  const EpisodeMetrics m = env.evaluate_floorplan(fp);
  EXPECT_TRUE(m.valid);
  EXPECT_GT(m.wirelength_mm, 0.0);
  EXPECT_LT(m.reward, 0.0);

  Floorplan incomplete(sys);
  incomplete.place(0, {0.0, 0.0});
  EXPECT_THROW(env.evaluate_floorplan(incomplete), std::logic_error);
}

TEST(FloorplanEnv, SpacingConstraintShrinksMask) {
  const auto sys = small_system();
  StubEvaluator eval;
  FloorplanEnv tight(sys, eval, RewardCalculator{}, bump::BumpAssigner{},
                     {.grid = 16, .spacing_mm = 0.0});
  FloorplanEnv spaced(sys, eval, RewardCalculator{}, bump::BumpAssigner{},
                      {.grid = 16, .spacing_mm = 2.0});
  tight.reset();
  spaced.reset();
  tight.step(0);
  spaced.step(0);
  std::size_t tight_count = 0, spaced_count = 0;
  for (std::size_t a = 0; a < 256; ++a) {
    tight_count += tight.action_mask()[a];
    spaced_count += spaced.action_mask()[a];
  }
  EXPECT_LT(spaced_count, tight_count);
}

}  // namespace
}  // namespace rlplan::rl
