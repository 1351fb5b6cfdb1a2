// PPO through its one trainer: a single-task TrainingSession over a cheap
// proxy evaluator.
#include "rl/ppo.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "rl/session.h"
#include "thermal/evaluator.h"

namespace rlplan::rl {
namespace {

// Cheap geometric evaluator (compactness ~ heat) so PPO tests avoid
// characterization entirely.
class ProxyEvaluator final : public thermal::ThermalEvaluator {
 public:
  double max_temperature(const ChipletSystem& system,
                         const Floorplan& floorplan) override {
    ++count_;
    double worst = 45.0;
    const auto rects = floorplan.placed_rects();
    for (std::size_t i = 0; i < rects.size(); ++i) {
      if (!rects[i]) continue;
      double t = 45.0 + 1.2 * system.chiplet(i).power;
      for (std::size_t j = 0; j < rects.size(); ++j) {
        if (j == i || !rects[j]) continue;
        const double d = center_distance(*rects[i], *rects[j]);
        t += system.chiplet(j).power / (1.0 + 0.3 * d);
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

ChipletSystem tiny_system() {
  return ChipletSystem("ppo", 24.0, 24.0,
                       {{"a", 8.0, 8.0, 25.0},
                        {"b", 6.0, 6.0, 12.0},
                        {"c", 5.0, 5.0, 8.0}},
                       {{0, 1, 64}, {1, 2, 32}, {0, 2, 16}});
}

TrainingSessionConfig small_config(std::uint64_t seed) {
  TrainingSessionConfig config;
  config.env.grid = 12;
  config.net.conv1 = 4;
  config.net.conv2 = 4;
  config.net.conv3 = 4;
  config.net.fc = 32;
  config.ppo.episodes_per_update = 6;
  config.ppo.minibatch = 16;
  config.seed = seed;
  return config;
}

/// Single-task session over `sys` (which must outlive it).
TrainingSession make_session(const ChipletSystem& sys,
                             const TrainingSessionConfig& config) {
  std::vector<SessionTask> tasks;
  tasks.push_back({"ppo", &sys, std::make_unique<ProxyEvaluator>()});
  return TrainingSession(config, std::move(tasks));
}

TEST(PpoSession, TrainEpochProducesStats) {
  const auto sys = tiny_system();
  TrainingSession session = make_session(sys, small_config(3));
  const TrainStats stats = session.train_epoch();
  EXPECT_EQ(stats.episodes, 6u);
  EXPECT_EQ(stats.steps, 18u);  // 3 placements per episode
  EXPECT_LT(stats.mean_reward, 0.0);
  EXPECT_GT(stats.entropy, 0.0);
  EXPECT_GT(session.total_env_steps(), 0);
}

TEST(PpoSession, TracksBestFloorplan) {
  const auto sys = tiny_system();
  TrainingSession session = make_session(sys, small_config(4));
  EXPECT_FALSE(session.has_best(0));
  EXPECT_THROW(session.best_floorplan(0), std::logic_error);
  session.train_epoch();
  ASSERT_TRUE(session.has_best(0));
  EXPECT_TRUE(session.best_floorplan(0).is_complete());
  EXPECT_TRUE(session.best_metrics(0).valid);
  // Best must be at least as good as any epoch's mean.
  const TrainStats s2 = session.train_epoch();
  EXPECT_GE(session.best_metrics(0).reward, s2.mean_reward - 1e-9);
}

TEST(PpoSession, DeterministicGivenSeed) {
  const auto sys = tiny_system();
  auto run = [&](std::uint64_t seed) {
    TrainingSession session = make_session(sys, small_config(seed));
    return session.train_epoch().mean_reward;
  };
  EXPECT_DOUBLE_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(PpoSession, LearnsOnTinyProblem) {
  // Mean reward over late epochs should beat the first epoch meaningfully.
  const auto sys = tiny_system();
  TrainingSessionConfig config = small_config(5);
  config.ppo.episodes_per_update = 10;
  config.ppo.adam.lr = 1e-3f;
  TrainingSession session = make_session(sys, config);
  const double first = session.train_epoch().mean_reward;
  double late = 0.0;
  const int total = 12;
  double best_mean = first;
  for (int i = 1; i < total; ++i) {
    late = session.train_epoch().mean_reward;
    best_mean = std::max(best_mean, late);
  }
  EXPECT_GT(best_mean, first) << "PPO never improved over its first epoch";
}

TEST(PpoSession, GreedyEpisodeReturnsValidMetrics) {
  const auto sys = tiny_system();
  TrainingSession session = make_session(sys, small_config(6));
  session.train_epoch();
  const EpisodeMetrics m = session.greedy_episode(0);
  EXPECT_TRUE(m.valid);
  EXPECT_LT(m.reward, 0.0);
  EXPECT_GT(m.wirelength_mm, 0.0);
}

TEST(PpoSession, RndVariantRuns) {
  const auto sys = tiny_system();
  TrainingSessionConfig config = small_config(9);
  config.ppo.use_rnd = true;
  TrainingSession session = make_session(sys, config);
  const TrainStats stats = session.train_epoch();
  EXPECT_GT(stats.rnd_error, 0.0) << "RND predictor error should be nonzero";
  // Intrinsic rewards must have been recorded.
  const TrainStats stats2 = session.train_epoch();
  EXPECT_GE(stats2.episodes, 1u);
}

TEST(PpoSession, RewardNormalizationToggleBothRun) {
  const auto sys = tiny_system();
  for (bool normalize : {true, false}) {
    TrainingSessionConfig config = small_config(10);
    config.ppo.normalize_rewards = normalize;
    TrainingSession session = make_session(sys, config);
    EXPECT_NO_THROW(session.train_epoch());
  }
}

}  // namespace
}  // namespace rlplan::rl
