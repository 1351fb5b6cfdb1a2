// Fault-tolerance layer: deadlines, cooperative cancellation, deterministic
// fault injection, retry, and the degradation paths wired through SA, the
// thread pool, the grid solver, and PPO.
//
// The two contracts this file exists to pin down:
//   * Stopping is prefix-deterministic — a cancelled run's partial result
//     equals the same-length prefix of the uncancelled run.
//   * Fault injection is a pure function of (spec, seed, site, hit index) —
//     a given configuration reproduces the exact same injection sequence.
#include "robust/robust.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "anneal_oracle.h"
#include "parallel/thread_pool.h"
#include "rl/session.h"
#include "rl/planner.h"
#include "robust/fault.h"
#include "sa/annealer.h"
#include "sa/tap25d.h"
#include "thermal/evaluator.h"
#include "thermal/grid_solver.h"
#include "thermal/layer_stack.h"
#include "util/fs.h"

namespace rlplan {
namespace {

/// Every test that configures the process-wide injector must leave it off.
class FaultGuard {
 public:
  FaultGuard(const std::string& spec, std::uint64_t seed) {
    robust::FaultInjector::instance().configure(spec, seed);
  }
  ~FaultGuard() { robust::FaultInjector::instance().clear(); }
};

/// Geometric proxy thermal evaluator: compact packings run hotter.
class ProxyEvaluator final : public thermal::ThermalEvaluator {
 public:
  double max_temperature(const ChipletSystem& system,
                         const Floorplan& floorplan) override {
    double worst = 45.0;
    const auto rects = floorplan.placed_rects();
    for (std::size_t i = 0; i < rects.size(); ++i) {
      if (!rects[i]) continue;
      double t = 45.0 + 1.2 * system.chiplet(i).power;
      for (std::size_t j = 0; j < rects.size(); ++j) {
        if (j == i || !rects[j]) continue;
        t += system.chiplet(j).power /
             (1.0 + 0.3 * center_distance(*rects[i], *rects[j]));
      }
      worst = std::max(worst, t);
    }
    return worst;
  }
  long num_evaluations() const override { return 0; }
  std::string name() const override { return "proxy"; }
};

ChipletSystem tiny_system() {
  return ChipletSystem("robust", 24.0, 24.0,
                       {{"a", 8.0, 8.0, 25.0},
                        {"b", 6.0, 6.0, 12.0},
                        {"c", 5.0, 5.0, 8.0}},
                       {{0, 1, 64}, {1, 2, 32}, {0, 2, 16}});
}

// --------------------------------------------------------------- primitives

TEST(Deadline, DefaultIsUnlimited) {
  const robust::Deadline d;
  EXPECT_TRUE(d.unlimited());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_seconds(), 1e9);
}

TEST(Deadline, ZeroBudgetIsAlreadyExpired) {
  const auto d = robust::Deadline::after_seconds(0.0);
  EXPECT_FALSE(d.unlimited());
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining_seconds(), 0.0);
}

TEST(Deadline, GenerousBudgetIsNotExpired) {
  const auto d = robust::Deadline::after_seconds(3600.0);
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_seconds(), 3000.0);
}

TEST(Deadline, HugeBudgetsSaturateAndNeverExpire) {
  // Budgets past the clock's range (from serve's deadline_s, train's
  // --deadline-s or regress's --scenario-deadline-s) must not overflow the
  // tick conversion.
  for (const double seconds :
       {1e300, std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::max(), 3.0e9}) {
    const auto d = robust::Deadline::after_seconds(seconds);
    EXPECT_FALSE(d.unlimited()) << seconds;
    EXPECT_FALSE(d.expired()) << seconds;
    EXPECT_GT(d.remaining_seconds(), 1e9) << seconds;
  }
  for (const double seconds :
       {-1e300, -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_TRUE(robust::Deadline::after_seconds(seconds).expired())
        << seconds;
  }
}

TEST(CancelToken, DefaultIsInert) {
  const robust::CancelToken t;
  EXPECT_FALSE(t.active());
  EXPECT_FALSE(t.cancelled());
  t.cancel();  // no-op, must not crash
  EXPECT_FALSE(t.cancelled());
}

TEST(CancelToken, CopiesShareTheFlag) {
  const auto t = robust::CancelToken::create();
  const robust::CancelToken copy = t;
  EXPECT_TRUE(copy.active());
  EXPECT_FALSE(copy.cancelled());
  t.cancel();
  EXPECT_TRUE(copy.cancelled());
}

TEST(RunControl, DefaultIsInactiveAndFree) {
  const robust::RunControl c;
  EXPECT_FALSE(c.active());
  EXPECT_FALSE(c.stop_requested());
  EXPECT_EQ(c.stop_reason(), robust::StopReason::kNone);
}

TEST(RunControl, CancelWinsOverDeadline) {
  robust::RunControl c;
  c.deadline = robust::Deadline::after_seconds(0.0);
  c.cancel = robust::CancelToken::create();
  EXPECT_EQ(c.stop_reason(), robust::StopReason::kDeadline);
  c.cancel.cancel();
  EXPECT_EQ(c.stop_reason(), robust::StopReason::kCancelled);
  EXPECT_TRUE(c.stop_requested());
}

TEST(StopReason, ToStringNames) {
  EXPECT_STREQ(robust::to_string(robust::StopReason::kNone), "none");
  EXPECT_STREQ(robust::to_string(robust::StopReason::kCancelled),
               "cancelled");
  EXPECT_STREQ(robust::to_string(robust::StopReason::kDeadline), "deadline");
}

// ------------------------------------------------------------------- retry

TEST(Retry, SucceedsAfterTransientFailures) {
  int calls = 0;
  robust::RetryOptions opts;
  opts.max_attempts = 3;
  opts.initial_backoff_s = 0.0;  // no sleeping in unit tests
  const int result = robust::retry_with_backoff(
      [&] {
        if (++calls < 3) throw robust::TransientIoError("flaky");
        return 42;
      },
      opts);
  EXPECT_EQ(result, 42);
  EXPECT_EQ(calls, 3);
}

TEST(Retry, ExhaustsAttemptsAndRethrows) {
  int calls = 0;
  robust::RetryOptions opts;
  opts.max_attempts = 3;
  opts.initial_backoff_s = 0.0;
  EXPECT_THROW(robust::retry_with_backoff(
                   [&]() -> int {
                     ++calls;
                     throw robust::TransientIoError("always");
                   },
                   opts),
               robust::TransientIoError);
  EXPECT_EQ(calls, 3);
}

TEST(Retry, NonTransientErrorsAreNotRetried) {
  int calls = 0;
  robust::RetryOptions opts;
  opts.max_attempts = 5;
  opts.initial_backoff_s = 0.0;
  EXPECT_THROW(robust::retry_with_backoff(
                   [&]() -> int {
                     ++calls;
                     throw robust::CorruptArtifactError("permanent");
                   },
                   opts),
               robust::CorruptArtifactError);
  EXPECT_EQ(calls, 1);
}

// --------------------------------------------------------- fault injection

TEST(FaultInjector, SameSpecAndSeedReproduceTheSequence) {
  auto& inj = robust::FaultInjector::instance();
  const auto record = [&] {
    inj.configure("flip:0.4", 123);
    std::vector<bool> seq;
    for (int i = 0; i < 200; ++i) seq.push_back(inj.should_inject("flip"));
    return seq;
  };
  const auto a = record();
  const auto b = record();
  inj.clear();
  EXPECT_EQ(a, b);
  // A 0.4 coin must actually land on both sides over 200 hits.
  int fired = 0;
  for (const bool v : a) fired += v ? 1 : 0;
  EXPECT_GT(fired, 20);
  EXPECT_LT(fired, 180);
}

TEST(FaultInjector, DifferentSeedsProduceDifferentSequences) {
  auto& inj = robust::FaultInjector::instance();
  const auto record = [&](std::uint64_t seed) {
    inj.configure("flip:0.5", seed);
    std::vector<bool> seq;
    for (int i = 0; i < 100; ++i) seq.push_back(inj.should_inject("flip"));
    return seq;
  };
  const auto a = record(1);
  const auto b = record(2);
  inj.clear();
  EXPECT_NE(a, b);
}

TEST(FaultInjector, CountsHitsAndInjections) {
  const FaultGuard guard("always:1.0,never:0.0001", 9);
  auto& inj = robust::FaultInjector::instance();
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(robust::fault_point("always"));
  }
  EXPECT_EQ(inj.hit_count("always"), 10u);
  EXPECT_EQ(inj.injected_count("always"), 10u);
  EXPECT_EQ(inj.hit_count("unconfigured"), 0u);
  EXPECT_FALSE(robust::fault_point("unconfigured"));  // never fires
}

TEST(FaultInjector, DisabledFastPathInjectsNothing) {
  robust::FaultInjector::instance().clear();
  EXPECT_FALSE(robust::FaultInjector::instance().enabled());
  EXPECT_FALSE(robust::fault_point("anything"));
}

TEST(FaultInjector, RejectsMalformedSpecs) {
  auto& inj = robust::FaultInjector::instance();
  EXPECT_THROW(inj.configure("noprob", 1), std::invalid_argument);
  EXPECT_THROW(inj.configure("site:1.5", 1), std::invalid_argument);
  EXPECT_THROW(inj.configure("site:-0.1", 1), std::invalid_argument);
  EXPECT_THROW(inj.configure(":0.5", 1), std::invalid_argument);
  EXPECT_THROW(inj.configure("site:abc", 1), std::invalid_argument);
  inj.clear();
}

// ----------------------------------------------- SA: prefix-deterministic stop

TEST(AnnealControl, CancelAfterKEvalsEqualsEvalBudgetK) {
  // The cancel poll sits at the same loop position as the max_evaluations
  // check, so cancelling after the K-th cost call must reproduce the
  // max_evaluations=K run exactly: same best state, same statistics.
  const auto quadratic = [](const double& x) { return (x - 3.0) * (x - 3.0); };
  const auto step = [](const double& x, Rng& r) -> std::optional<double> {
    return x + r.normal(0.0, 0.5);
  };
  const long kBudget = 40;

  sa::AnnealOptions budgeted;
  budgeted.t_initial = 1.0;  // fixed T0: calibration consumes no evals
  budgeted.t_final = 1e-9;
  budgeted.cooling = 0.95;
  budgeted.moves_per_temperature = 10;
  budgeted.max_evaluations = kBudget;
  Rng rng_a(17);
  sa::AnnealStats stats_a;
  const double best_a =
      sa::anneal<double>(10.0, sa::oracle::per_state<double>(quadratic), step,
                         budgeted, rng_a, stats_a);
  EXPECT_EQ(stats_a.stop_reason, robust::StopReason::kNone);

  sa::AnnealOptions cancelled = budgeted;
  cancelled.max_evaluations = 1000000;  // cancel is the only stop
  const auto token = robust::CancelToken::create();
  cancelled.control.cancel = token;
  long evals = 0;
  const auto counting_cost = [&](const double& x) {
    if (++evals >= kBudget) token.cancel();
    return quadratic(x);
  };
  Rng rng_b(17);
  sa::AnnealStats stats_b;
  const double best_b =
      sa::anneal<double>(10.0, sa::oracle::per_state<double>(counting_cost),
                         step, cancelled, rng_b, stats_b);

  EXPECT_EQ(stats_b.stop_reason, robust::StopReason::kCancelled);
  EXPECT_TRUE(stats_b.degraded());
  EXPECT_EQ(best_a, best_b);
  EXPECT_EQ(stats_a.evaluations, stats_b.evaluations);
  EXPECT_EQ(stats_a.proposals, stats_b.proposals);
  EXPECT_EQ(stats_a.accepted, stats_b.accepted);
  EXPECT_EQ(stats_a.best_cost_history, stats_b.best_cost_history);
}

TEST(AnnealControl, PreCancelledRunReturnsInitialState) {
  sa::AnnealOptions options;
  options.t_initial = 1.0;
  const auto token = robust::CancelToken::create();
  token.cancel();
  options.control.cancel = token;
  Rng rng(5);
  sa::AnnealStats stats;
  const double best = sa::anneal<double>(
      7.0, sa::oracle::per_state<double>([](const double& x) { return x * x; }),
      [](const double& x, Rng& r) -> std::optional<double> {
        return x + r.normal();
      },
      options, rng, stats);
  EXPECT_EQ(best, 7.0);
  EXPECT_EQ(stats.evaluations, 1);  // only the initial evaluation
  EXPECT_EQ(stats.stop_reason, robust::StopReason::kCancelled);

  // Population-mode TAP-2.5D with an auto-calibrated T0: the stop is seen
  // before the first calibration probe, so only the initial state is scored.
  const ChipletSystem sys = tiny_system();
  ProxyEvaluator eval;
  sa::Tap25dConfig config;
  config.population = 4;
  config.anneal.t_initial = -1.0;
  config.anneal.control.cancel = token;
  const sa::Tap25dResult result = sa::Tap25dPlanner(config).plan(sys, eval);
  EXPECT_EQ(result.stats.evaluations, 1);
  EXPECT_EQ(result.stats.proposals, 0);
  EXPECT_EQ(result.stats.stop_reason, robust::StopReason::kCancelled);
  rl::EnvConfig ff;
  ff.grid = 64;
  const Floorplan initial = rl::first_fit_floorplan(sys, ff);
  for (std::size_t i = 0; i < sys.num_chiplets(); ++i) {
    EXPECT_EQ(result.best.placement(i), initial.placement(i));
  }
}

TEST(AnnealControl, StopDuringCalibrationEndsIt) {
  // The stop is polled before every calibration try, at every K: a cancel
  // raised while proposing the 6th probe ends calibration there. The probes
  // already proposed are scored (at K = 4, a group of 4 and a last group of
  // 2), T0 averages them, and no move runs.
  const auto quadratic = [](const double& x) { return (x - 3.0) * (x - 3.0); };
  Rng replay(9);
  double delta_sum = 0.0;
  for (int i = 0; i < 6; ++i) {
    delta_sum += std::abs(quadratic(10.0 + replay.normal()) - quadratic(10.0));
  }
  for (const std::size_t k : {std::size_t{1}, std::size_t{4}}) {
    sa::AnnealOptions options;
    options.t_initial = -1.0;
    options.calibration_samples = 20;
    const auto token = robust::CancelToken::create();
    options.control.cancel = token;
    int proposals = 0;
    const auto step = [&](const double& x, Rng& r) -> std::optional<double> {
      if (++proposals == 6) token.cancel();
      return x + r.normal();
    };
    std::string hooks;
    sa::AnnealHooks h;
    h.on_accept = [&] { hooks += 'a'; };
    h.on_reject = [&] { hooks += 'r'; };
    Rng rng(9);
    sa::AnnealStats stats;
    sa::anneal<double>(10.0, sa::oracle::per_state<double>(quadratic), step,
                       options, rng, stats, h, {}, k);
    EXPECT_EQ(proposals, 6) << "K=" << k;
    EXPECT_EQ(stats.evaluations, 7) << "K=" << k;
    EXPECT_EQ(stats.proposals, 0) << "K=" << k;
    EXPECT_EQ(stats.accepted, 0) << "K=" << k;
    EXPECT_EQ(hooks, k == 1 ? "arrrrrr" : "arr") << "K=" << k;
    EXPECT_EQ(stats.final_temperature, delta_sum / 6) << "K=" << k;
    EXPECT_EQ(stats.stop_reason, robust::StopReason::kCancelled) << "K=" << k;
  }
}

// ------------------------------------------- thread pool: dispatch degradation

TEST(ThreadPoolFaults, DispatchFaultDegradesToIdenticalInlineRun) {
  std::vector<int> expected(64, 0);
  {
    parallel::ThreadPool pool(3);
    pool.parallel_for(expected.size(),
                      [&](std::size_t i) { expected[i] = static_cast<int>(i) * 3; });
  }
  const FaultGuard guard("pool_dispatch:1.0", 4);
  std::vector<int> degraded(64, 0);
  parallel::ThreadPool pool(3);
  pool.parallel_for(degraded.size(),
                    [&](std::size_t i) { degraded[i] = static_cast<int>(i) * 3; });
  EXPECT_EQ(expected, degraded);
  EXPECT_GE(robust::FaultInjector::instance().injected_count("pool_dispatch"),
            1u);
}

// ------------------------------------------------ grid solver: CG degradation

TEST(GridSolverFaults, SolverDivergeTriggersConvergedFallback) {
  const auto stack = thermal::LayerStack::default_2p5d();
  const ChipletSystem sys("t", 40.0, 40.0, {{"die", 10.0, 10.0, 20.0}}, {});
  Floorplan fp(sys);
  fp.place(0, {15.0, 15.0});

  thermal::GridSolverConfig gc;
  gc.dims = {16, 16};
  thermal::GridThermalSolver clean_solver(stack, gc);
  const thermal::ThermalResult clean = clean_solver.solve(sys, fp);
  ASSERT_TRUE(clean.cg.converged);
  EXPECT_EQ(clean.fallback_resolves, 0u);
  EXPECT_FALSE(clean.degraded);

  const FaultGuard guard("solver_diverge:1.0", 3);
  thermal::GridThermalSolver faulty_solver(stack, gc);
  const thermal::ThermalResult faulty = faulty_solver.solve(sys, fp);
  // The injected "divergence" only flips the verdict; the cold 4x-budget
  // fallback must re-derive a genuinely converged solution.
  EXPECT_TRUE(faulty.cg.converged);
  EXPECT_EQ(faulty.fallback_resolves, 1u);
  EXPECT_FALSE(faulty.degraded);
  EXPECT_NEAR(faulty.max_temp_c, clean.max_temp_c,
              1e-6 * std::abs(clean.max_temp_c));
}

// --------------------------------------------------------- PPO: NaN rollback

/// Single-task session over `sys` (which must outlive it).
rl::TrainingSession ppo_session(const ChipletSystem& sys, std::uint64_t seed) {
  rl::TrainingSessionConfig config;
  config.env.grid = 12;
  config.net.conv1 = 4;
  config.net.conv2 = 4;
  config.net.conv3 = 4;
  config.net.fc = 32;
  config.ppo.episodes_per_update = 4;
  config.ppo.minibatch = 16;
  config.seed = seed;
  std::vector<rl::SessionTask> tasks;
  tasks.push_back({"robust", &sys, std::make_unique<ProxyEvaluator>()});
  return rl::TrainingSession(config, std::move(tasks));
}

TEST(PpoFaults, NanGuardRollsBackBitExactly) {
  const auto sys = tiny_system();
  rl::TrainingSession session = ppo_session(sys, 21);

  // Snapshot the weights the poisoned update starts from.
  std::vector<std::vector<float>> before;
  for (const nn::Parameter* p : session.core().net().parameters()) {
    before.emplace_back(p->value.data().begin(), p->value.data().end());
  }

  const FaultGuard guard("ppo_nan:1.0", 6);
  const rl::TrainStats stats = session.train_epoch();
  EXPECT_TRUE(stats.update_skipped);
  EXPECT_TRUE(stats.degraded());
  EXPECT_EQ(session.core().nan_skips(), 1);

  const auto params = session.core().net().parameters();
  ASSERT_EQ(params.size(), before.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    ASSERT_EQ(params[i]->value.numel(), before[i].size());
    for (std::size_t k = 0; k < before[i].size(); ++k) {
      ASSERT_EQ(params[i]->value[k], before[i][k])
          << "param " << params[i]->name << " not restored at element " << k;
    }
  }
}

TEST(PpoFaults, CleanEpochAfterRollbackStillTrains) {
  const auto sys = tiny_system();
  rl::TrainingSession session = ppo_session(sys, 22);
  {
    const FaultGuard guard("ppo_nan:1.0", 6);
    EXPECT_TRUE(session.train_epoch().update_skipped);
  }
  const rl::TrainStats clean = session.train_epoch();
  EXPECT_FALSE(clean.update_skipped);
  EXPECT_EQ(session.core().nan_skips(), 1);
  EXPECT_NE(clean.grad_norm, 0.0);
}

/// A session with the default net and minibatches of 64 and 8, so the
/// update's passes and per-sample rows split over the lanes it is lent.
rl::TrainingSession ppo_lane_session(const ChipletSystem& sys,
                                     std::uint64_t seed) {
  rl::TrainingSessionConfig config;
  config.env.grid = 12;
  config.ppo.episodes_per_update = 24;
  config.ppo.update_epochs = 2;
  config.seed = seed;
  std::vector<rl::SessionTask> tasks;
  tasks.push_back({"robust", &sys, std::make_unique<ProxyEvaluator>()});
  return rl::TrainingSession(config, std::move(tasks));
}

std::vector<std::vector<float>> weights(rl::TrainingSession& session) {
  std::vector<std::vector<float>> out;
  for (const nn::Parameter* p : session.core().net().parameters()) {
    out.emplace_back(p->value.data().begin(), p->value.data().end());
  }
  return out;
}

TEST(PpoFaults, NanGuardRollsBackBitExactlyOnLentLanes) {
  // The poisoned update runs on lent lanes: the NaN weight it makes turns
  // the next minibatch's logits to NaN, whose per-sample rows throw on
  // whichever lanes hold them. The exception must reach the guard, which
  // restores every weight bit for bit; a clean epoch after it must then leave
  // the same weights as a serial session through the same fault.
  const auto sys = tiny_system();
  parallel::ThreadPool lanes(3);
  rl::TrainingSession serial = ppo_lane_session(sys, 23);
  rl::TrainingSession lent = ppo_lane_session(sys, 23);
  const auto before = weights(lent);
  for (auto [session, pool] :
       {std::pair<rl::TrainingSession*, parallel::ThreadPool*>{&serial,
                                                               nullptr},
        {&lent, &lanes}}) {
    {
      const FaultGuard guard("ppo_nan:1.0", 6);
      const rl::TrainStats stats = session->train_epoch(pool);
      EXPECT_TRUE(stats.update_skipped);
      EXPECT_EQ(session->core().nan_skips(), 1);
    }
    if (session == &lent) {
      EXPECT_TRUE(weights(lent) == before) << "rollback on lanes not exact";
    }
    EXPECT_FALSE(session->train_epoch(pool).update_skipped);
  }
  EXPECT_TRUE(weights(lent) == weights(serial));
}

// -------------------------------------------------- atomic artifact writes

TEST(AtomicWrite, WritesContentAndLeavesNoTempFile) {
  const std::string path = ::testing::TempDir() + "robust_atomic.json";
  util::atomic_write_file(path, "{\"ok\":true}\n");
  std::ifstream is(path);
  std::string line;
  std::getline(is, line);
  EXPECT_EQ(line, "{\"ok\":true}");
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST(AtomicWrite, InjectedFaultExhaustsRetriesAsTransientIo) {
  const FaultGuard guard("artifact_write:1.0", 2);
  const std::string path = ::testing::TempDir() + "robust_atomic_fault.json";
  EXPECT_THROW(util::atomic_write_file(path, "x"), robust::TransientIoError);
  // The injection fires before any byte lands: no artifact, no temp file.
  EXPECT_FALSE(std::ifstream(path).good());
  // Three attempts (the default budget) were all consumed by the injector.
  EXPECT_EQ(robust::FaultInjector::instance().hit_count("artifact_write"),
            3u);
}

}  // namespace
}  // namespace rlplan
