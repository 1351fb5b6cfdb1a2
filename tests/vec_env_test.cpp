#include "parallel/vec_env.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "fast_model_oracle.h"
#include "parallel/collector.h"
#include "parallel/thread_pool.h"
#include "rl/distribution.h"
#include "rl/planner.h"
#include "rl/policy_net.h"
#include "systems/synthetic.h"
#include "thermal/characterize.h"
#include "thermal/evaluator.h"
#include "thermal/incremental.h"

namespace rlplan::parallel {
namespace {

// Cheap deterministic evaluator (mirrors env_test's stub) with clone support.
class StubEvaluator final : public thermal::ThermalEvaluator {
 public:
  StubEvaluator() = default;
  /// Appends every clone() to `*clones`, so tests can read each replica's
  /// evaluation count.
  explicit StubEvaluator(std::vector<const StubEvaluator*>* clones)
      : clones_(clones) {}

  double max_temperature(const ChipletSystem& system,
                         const Floorplan& floorplan) override {
    ++count_;
    const Rect bb = floorplan.bounding_box();
    const double area = std::max(bb.area(), 1.0);
    return 45.0 + 20.0 * system.total_power() / area;
  }
  long num_evaluations() const override { return count_; }
  std::string name() const override { return "stub"; }
  std::unique_ptr<thermal::ThermalEvaluator> clone() const override {
    auto copy = std::make_unique<StubEvaluator>();
    if (clones_ != nullptr) clones_->push_back(copy.get());
    return copy;
  }

 private:
  long count_ = 0;
  std::vector<const StubEvaluator*>* clones_ = nullptr;
};

class NoCloneEvaluator final : public thermal::ThermalEvaluator {
 public:
  double max_temperature(const ChipletSystem&, const Floorplan&) override {
    return 45.0;
  }
  long num_evaluations() const override { return 0; }
  std::string name() const override { return "no-clone"; }
};

ChipletSystem small_system() {
  return ChipletSystem("vec-env", 32.0, 32.0,
                       {{"a", 10.0, 10.0, 20.0},
                        {"b", 8.0, 8.0, 10.0},
                        {"c", 6.0, 6.0, 5.0}},
                       {{0, 1, 64}, {1, 2, 32}});
}

rl::PolicyNetConfig tiny_net_config(std::size_t grid) {
  rl::PolicyNetConfig config;
  config.channels_in = rl::FloorplanEnv::kChannels;
  config.grid = grid;
  config.conv1 = 2;
  config.conv2 = 2;
  config.conv3 = 2;
  config.fc = 16;
  return config;
}

// ----------------------------------------------------------- ThreadPool ----

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h = 0;
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, InlineModeSpawnsNoWorkers) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 0u);
  int sum = 0;  // safe: inline mode runs on the caller thread
  pool.parallel_for(10, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(round + 1, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), round + 1);
  }
}

// --------------------------------------------------------------- VecEnv ----

TEST(VecEnv, DeriveSeedIsStableAndDistinct) {
  // The derivation is a public contract (recorded trajectories depend on
  // it): the (i+1)-th SplitMix64 output of the base seed.
  SplitMix64 sm(42);
  const std::uint64_t first = sm.next();
  EXPECT_EQ(VecEnv::derive_seed(42, 0), first);

  std::set<std::uint64_t> seeds;
  for (std::size_t i = 0; i < 16; ++i) seeds.insert(VecEnv::derive_seed(42, i));
  EXPECT_EQ(seeds.size(), 16u);
}

TEST(VecEnv, RejectsZeroEnvsAndNonCloneableEvaluators) {
  const auto sys = small_system();
  StubEvaluator ok;
  NoCloneEvaluator bad;
  EXPECT_THROW(VecEnv(sys, ok, RewardCalculator{}, bump::BumpAssigner{},
                      {.grid = 16}, 0, 1),
               std::invalid_argument);
  EXPECT_THROW(VecEnv(sys, bad, RewardCalculator{}, bump::BumpAssigner{},
                      {.grid = 16}, 2, 1),
               std::invalid_argument);
  // One replica drives the evaluator itself: no clone needed.
  EXPECT_NO_THROW(VecEnv(sys, bad, RewardCalculator{}, bump::BumpAssigner{},
                         {.grid = 16}, 1, 1));
}

TEST(VecEnv, ReplicasAreIndependent) {
  const auto sys = small_system();
  std::vector<const StubEvaluator*> clones;
  StubEvaluator evaluator(&clones);
  VecEnv venv(sys, evaluator, RewardCalculator{}, bump::BumpAssigner{},
              {.grid = 16}, 3, 7);
  ASSERT_EQ(clones.size(), 2u);  // replicas 1 and 2
  ASSERT_EQ(venv.size(), 3u);
  venv.env(0).reset();
  venv.env(1).reset();
  // Stepping replica 0 must not disturb replica 1's state.
  const auto& mask1_before = venv.env(1).action_mask();
  const std::vector<std::uint8_t> snapshot(mask1_before.begin(),
                                           mask1_before.end());
  std::size_t action = 0;
  while (venv.env(0).action_mask()[action] == 0) ++action;
  venv.env(0).step(action);
  EXPECT_EQ(venv.env(1).current_step(), 0u);
  const auto& mask1_after = venv.env(1).action_mask();
  EXPECT_TRUE(std::equal(snapshot.begin(), snapshot.end(),
                         mask1_after.begin()));
  EXPECT_EQ(evaluator.num_evaluations(), 0);  // no episode end yet

  // Replica 0 drives the caller's evaluator and replica 1 its own clone, so
  // a completed replica-0 episode counts on the caller's evaluator only.
  while (!venv.env(0).done()) {
    std::size_t a = 0;
    while (venv.env(0).action_mask()[a] == 0) ++a;
    venv.env(0).step(a);
  }
  ASSERT_TRUE(venv.env(0).last_metrics().valid);
  EXPECT_EQ(evaluator.num_evaluations(), 1);
  EXPECT_EQ(clones[0]->num_evaluations(), 0);
}

TEST(VecEnv, IncrementalEvaluatorClonesMatchBatchEvaluator) {
  // Replica clones of an incremental evaluator must score episodes like the
  // oracle evaluator's full re-evaluations, within the 1e-9 C envelope.
  const auto sys = small_system();
  std::vector<double> dims{2.0, 8.0, 14.0};
  std::vector<std::vector<double>> self_vals(3, std::vector<double>(3, 0.0));
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      self_vals[i][j] = 2.0 / (1.0 + 0.05 * dims[i] * dims[j]);
    }
  }
  std::vector<double> distances, mutual_vals;
  for (double d = 0.0; d <= 50.0; d += 2.0) {
    distances.push_back(d);
    mutual_vals.push_back(0.03 + 0.7 * std::exp(-d / 6.0));
  }
  thermal::FastThermalModel model(
      thermal::SelfResistanceTable(dims, dims, self_vals),
      thermal::MutualResistanceTable(distances, mutual_vals), 45.0, {});
  model.set_image_params(32.0, 32.0, 0.03);

  const auto episode_reward = [&](thermal::ThermalEvaluator& proto) {
    VecEnv venv(sys, proto, RewardCalculator{}, bump::BumpAssigner{},
                {.grid = 16}, 2, 13);
    rl::FloorplanEnv& env = venv.env(1);
    env.reset();
    double reward = 0.0;
    while (!env.done()) {
      std::size_t action = 0;
      while (env.action_mask()[action] == 0) ++action;
      reward = env.step(action).reward;
    }
    return reward;
  };

  thermal::oracle::OracleEvaluator batch_proto(model);
  thermal::IncrementalFastModelEvaluator incr_proto(model);
  const double batch_reward = episode_reward(batch_proto);
  const double incr_reward = episode_reward(incr_proto);
  EXPECT_NEAR(incr_reward, batch_reward, 1e-9);
}

// ------------------------------------------------------------ Collector ----

struct TrajectoryStep {
  std::vector<float> state;
  std::vector<std::uint8_t> mask;
  std::size_t action = 0;
  float log_prob = 0.0f;
  float value = 0.0f;
  float reward = 0.0f;
  bool episode_end = false;
};

/// One complete episode of env `i`, replayed sequentially with the same
/// derived seed and the same (frozen) policy — the reference batched
/// collection must reproduce bit-for-bit.
std::vector<TrajectoryStep> sequential_episode(const ChipletSystem& sys,
                                               rl::PolicyValueNet& net,
                                               std::uint64_t base_seed,
                                               std::size_t index,
                                               std::size_t grid) {
  StubEvaluator eval;
  rl::FloorplanEnv env(sys, eval, RewardCalculator{}, bump::BumpAssigner{},
                       {.grid = grid});
  Rng rng(VecEnv::derive_seed(base_seed, index));
  std::vector<TrajectoryStep> steps;
  nn::Tensor obs = env.reset();
  bool done = false;
  while (!done) {
    nn::Tensor batch = obs;
    batch.reshape({1, obs.dim(0), obs.dim(1), obs.dim(2)});
    rl::PolicyValueNet::Output out = net.forward(batch);
    const rl::MaskedCategorical dist(out.logits.data(), env.action_mask());
    TrajectoryStep st;
    st.state.assign(obs.data().begin(), obs.data().end());
    st.mask = env.action_mask();
    st.action = dist.sample(rng);
    st.log_prob = dist.log_prob(st.action);
    st.value = out.value[0];
    const rl::StepOutcome outcome = env.step(st.action);
    st.reward = static_cast<float>(outcome.reward);
    st.episode_end = outcome.done;
    done = outcome.done;
    if (!done) obs = env.observation();
    steps.push_back(std::move(st));
  }
  return steps;
}

TEST(CollectEpisodes, MatchesSequentialSingleEnvRuns) {
  const auto sys = small_system();
  const std::size_t grid = 16;
  const std::uint64_t seed = 11;
  const std::size_t num_envs = 4;

  Rng net_rng(99);
  rl::PolicyValueNet net(tiny_net_config(grid), net_rng);

  StubEvaluator evaluator;
  VecEnv venv(sys, evaluator, RewardCalculator{}, bump::BumpAssigner{},
              {.grid = grid}, num_envs, seed);
  ThreadPool pool(3);
  rl::RolloutBuffer buffer;
  const CollectorStats stats =
      collect_episodes(venv, net, num_envs, buffer, &pool);

  EXPECT_EQ(stats.episodes, num_envs);
  ASSERT_EQ(stats.dead_ends, 0u)
      << "fixed seed unexpectedly produced a dead end";
  // All episodes have equal length (one step per chiplet), so the buffer
  // holds env 0's episode, then env 1's, ... in replica order.
  const std::size_t ep_len = sys.num_chiplets();
  ASSERT_EQ(buffer.size(), num_envs * ep_len);

  for (std::size_t e = 0; e < num_envs; ++e) {
    const auto expected = sequential_episode(sys, net, seed, e, grid);
    ASSERT_EQ(expected.size(), ep_len);
    for (std::size_t t = 0; t < ep_len; ++t) {
      const rl::Transition& got = buffer.step(e * ep_len + t);
      const TrajectoryStep& want = expected[t];
      EXPECT_EQ(got.action, want.action) << "env " << e << " step " << t;
      EXPECT_EQ(got.log_prob, want.log_prob);
      EXPECT_EQ(got.value, want.value);
      EXPECT_EQ(got.reward_ext, want.reward);
      EXPECT_EQ(got.episode_end, want.episode_end);
      EXPECT_TRUE(std::equal(want.mask.begin(), want.mask.end(),
                             got.mask.begin()));
      ASSERT_EQ(got.state.numel(), want.state.size());
      for (std::size_t i = 0; i < want.state.size(); ++i) {
        ASSERT_EQ(got.state[i], want.state[i])
            << "env " << e << " step " << t << " state[" << i << "]";
      }
    }
  }
}

TEST(CollectEpisodes, ResultIsIndependentOfNumThreads) {
  const auto sys = small_system();
  const std::size_t grid = 16;
  Rng net_rng(5);
  rl::PolicyValueNet net(tiny_net_config(grid), net_rng);
  StubEvaluator evaluator;

  auto run = [&](std::size_t threads) {
    VecEnv venv(sys, evaluator, RewardCalculator{}, bump::BumpAssigner{},
                {.grid = grid}, 3, 21);
    ThreadPool pool(threads);
    rl::RolloutBuffer buffer;
    collect_episodes(venv, net, 7, buffer, &pool);
    return buffer;
  };

  const rl::RolloutBuffer serial = run(1);
  const rl::RolloutBuffer threaded = run(4);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const rl::Transition& a = serial.step(i);
    const rl::Transition& b = threaded.step(i);
    EXPECT_EQ(a.action, b.action) << "step " << i;
    EXPECT_EQ(a.log_prob, b.log_prob);
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.reward_ext, b.reward_ext);
    EXPECT_EQ(a.episode_end, b.episode_end);
    for (std::size_t j = 0; j < a.state.numel(); ++j) {
      ASSERT_EQ(a.state[j], b.state[j]) << "step " << i;
    }
  }
}

TEST(CollectEpisodes, CollectsExactEpisodeQuota) {
  const auto sys = small_system();
  Rng net_rng(5);
  rl::PolicyValueNet net(tiny_net_config(16), net_rng);
  StubEvaluator evaluator;
  VecEnv venv(sys, evaluator, RewardCalculator{}, bump::BumpAssigner{},
              {.grid = 16}, 4, 3);
  ThreadPool pool(2);

  // Quota below, equal to, and above the replica count.
  for (const std::size_t quota : {2u, 4u, 9u}) {
    rl::RolloutBuffer buffer;
    const CollectorStats stats =
        collect_episodes(venv, net, quota, buffer, &pool);
    EXPECT_EQ(stats.episodes, quota);
    EXPECT_EQ(stats.steps, buffer.size());
    EXPECT_EQ(buffer.num_episodes(), quota);
  }
}

// ------------------------------------------------- planner integration ----

class ParallelPlannerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    stack_ = new thermal::LayerStack(thermal::LayerStack::default_2p5d());
    systems::SyntheticConfig sc;
    sc.interposer_w_mm = 28.0;
    sc.interposer_h_mm = 28.0;
    sc.min_chiplets = 3;
    sc.max_chiplets = 3;
    sc.min_dim_mm = 5.0;
    sc.max_dim_mm = 8.0;
    sc.min_power_w = 5.0;
    sc.max_power_w = 15.0;
    system_ = new ChipletSystem(
        systems::SyntheticSystemGenerator(sc).generate(5, "parallel-test"));
    thermal::CharacterizationConfig cc;
    cc.solver.dims = {20, 20};
    cc.auto_axis_points = 3;
    thermal::ThermalCharacterizer charac(*stack_, cc);
    model_ = new thermal::FastThermalModel(charac.characterize(28.0, 28.0));
  }
  static void TearDownTestSuite() {
    delete model_;
    delete system_;
    delete stack_;
  }
  static rl::RlPlannerConfig tiny_config() {
    rl::RlPlannerConfig config;
    config.env.grid = 8;
    config.net.grid = 8;
    config.net.conv1 = 2;
    config.net.conv2 = 2;
    config.net.conv3 = 2;
    config.net.fc = 16;
    config.epochs = 2;
    config.ppo.episodes_per_update = 4;
    config.solver.dims = {20, 20};
    config.seed = 3;
    return config;
  }
  static void expect_same_floorplan(const Floorplan& a, const Floorplan& b) {
    ASSERT_EQ(a.system().num_chiplets(), b.system().num_chiplets());
    for (std::size_t i = 0; i < a.system().num_chiplets(); ++i) {
      ASSERT_EQ(a.is_placed(i), b.is_placed(i));
      if (!a.is_placed(i)) continue;
      EXPECT_EQ(a.rect_of(i).x, b.rect_of(i).x) << "chiplet " << i;
      EXPECT_EQ(a.rect_of(i).y, b.rect_of(i).y) << "chiplet " << i;
    }
  }

  static thermal::LayerStack* stack_;
  static ChipletSystem* system_;
  static thermal::FastThermalModel* model_;
};

thermal::LayerStack* ParallelPlannerTest::stack_ = nullptr;
ChipletSystem* ParallelPlannerTest::system_ = nullptr;
thermal::FastThermalModel* ParallelPlannerTest::model_ = nullptr;

TEST_F(ParallelPlannerTest, OneReplicaResultsIgnoreLaneCount) {
  // At one replica, num_threads = 4 builds a 4-lane pool for the batched
  // forwards and the PPO update; the lane count must not change the
  // result, so it runs bit-identical to the default.
  rl::RlPlannerConfig explicit_cfg = tiny_config();
  explicit_cfg.num_envs = 1;
  explicit_cfg.num_threads = 4;
  rl::RlPlanner by_default(tiny_config());
  rl::RlPlanner explicit_one(explicit_cfg);

  const auto a = by_default.plan_with_model(*system_, *stack_, *model_);
  const auto b = explicit_one.plan_with_model(*system_, *stack_, *model_);
  ASSERT_TRUE(a.best.has_value());
  ASSERT_TRUE(b.best.has_value());
  expect_same_floorplan(*a.best, *b.best);
  EXPECT_EQ(a.best_metrics.reward, b.best_metrics.reward);
  EXPECT_EQ(a.env_steps, b.env_steps);
  ASSERT_EQ(a.history.size(), b.history.size());
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].mean_reward, b.history[i].mean_reward);
    EXPECT_EQ(a.history[i].policy_loss, b.history[i].policy_loss);
  }
}

TEST_F(ParallelPlannerTest, ParallelPlanIsThreadCountInvariant) {
  auto run = [&](std::size_t threads) {
    rl::RlPlannerConfig config = tiny_config();
    config.num_envs = 4;
    config.num_threads = threads;
    rl::RlPlanner planner(config);
    return planner.plan_with_model(*system_, *stack_, *model_);
  };
  const auto serial = run(1);
  const auto threaded = run(4);
  ASSERT_TRUE(serial.best.has_value());
  ASSERT_TRUE(threaded.best.has_value());
  expect_same_floorplan(*serial.best, *threaded.best);
  EXPECT_EQ(serial.best_metrics.reward, threaded.best_metrics.reward);
  EXPECT_EQ(serial.env_steps, threaded.env_steps);
  ASSERT_EQ(serial.history.size(), threaded.history.size());
  for (std::size_t i = 0; i < serial.history.size(); ++i) {
    EXPECT_EQ(serial.history[i].mean_reward,
              threaded.history[i].mean_reward);
    EXPECT_EQ(serial.history[i].value_loss, threaded.history[i].value_loss);
  }
}

TEST_F(ParallelPlannerTest, ParallelPlanProducesLegalResult) {
  rl::RlPlannerConfig config = tiny_config();
  config.num_envs = 3;
  config.ppo.use_rnd = true;  // exercise the post-hoc RND bonus path
  rl::RlPlanner planner(config);
  const auto result = planner.plan_with_model(*system_, *stack_, *model_);
  ASSERT_TRUE(result.best.has_value());
  EXPECT_TRUE(result.best->is_legal());
  EXPECT_EQ(result.epochs_run, 2);
  EXPECT_GT(result.env_steps, 0);
}

}  // namespace
}  // namespace rlplan::parallel
