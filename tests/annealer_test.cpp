#include "sa/annealer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "anneal_oracle.h"
#include "bump/assigner.h"
#include "core/reward.h"
#include "fuzz_util.h"
#include "rl/planner.h"
#include "systems/synthetic.h"
#include "thermal/incremental.h"

namespace rlplan::sa {
namespace {

using rlplan::testing::fuzz_scale;

TEST(Annealer, MinimizesQuadratic) {
  // State: a double; cost (x - 3)^2; proposals: gaussian steps.
  Rng rng(1);
  AnnealStats stats;
  AnnealOptions options;
  options.t_initial = 1.0;
  options.t_final = 1e-6;
  options.cooling = 0.9;
  options.moves_per_temperature = 30;
  const double best = anneal<double>(
      10.0,
      oracle::per_state<double>(
          [](const double& x) { return (x - 3.0) * (x - 3.0); }),
      [](const double& x, Rng& r) -> std::optional<double> {
        return x + r.normal(0.0, 0.5);
      },
      options, rng, stats);
  EXPECT_NEAR(best, 3.0, 0.2);
  EXPECT_GT(stats.accepted, 0);
  EXPECT_GT(stats.evaluations, 100);
}

TEST(Annealer, RespectsEvaluationBudget) {
  Rng rng(2);
  AnnealStats stats;
  AnnealOptions options;
  options.t_initial = 1.0;
  options.max_evaluations = 50;
  options.t_final = 1e-12;  // would run forever without the budget
  options.cooling = 0.9999;
  anneal<double>(
      0.0, oracle::per_state<double>([](const double& x) { return x * x; }),
      [](const double& x, Rng& r) -> std::optional<double> {
        return x + r.normal();
      },
      options, rng, stats);
  EXPECT_LE(stats.evaluations, 51);
}

TEST(Annealer, AutoCalibratesInitialTemperature) {
  Rng rng(3);
  AnnealStats stats;
  AnnealOptions options;
  options.t_initial = -1.0;  // request calibration
  options.t_final = 1e-3;
  options.cooling = 0.8;
  const double best = anneal<double>(
      5.0,
      oracle::per_state<double>([](const double& x) { return std::abs(x); }),
      [](const double& x, Rng& r) -> std::optional<double> {
        return x + r.uniform(-1.0, 1.0);
      },
      options, rng, stats);
  EXPECT_LT(std::abs(best), 5.0);
}

TEST(Annealer, DeclinedProposalsCostNoEvaluation) {
  Rng rng(4);
  AnnealStats stats;
  AnnealOptions options;
  options.t_initial = 1.0;
  options.t_final = 0.5;
  options.cooling = 0.5;
  options.moves_per_temperature = 20;
  anneal<double>(
      0.0, oracle::per_state<double>([](const double& x) { return x * x; }),
      [](const double&, Rng&) -> std::optional<double> {
        return std::nullopt;  // always decline
      },
      options, rng, stats);
  EXPECT_EQ(stats.evaluations, 1);  // only the initial state
  EXPECT_GT(stats.proposals, 0);
  EXPECT_EQ(stats.accepted, 0);
}

TEST(Annealer, BestNeverWorseThanInitial) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    AnnealStats stats;
    AnnealOptions options;
    options.t_initial = 10.0;  // very hot: accepts bad moves
    options.t_final = 1.0;
    options.cooling = 0.7;
    const double initial = rng.uniform(-10.0, 10.0);
    const auto cost = [](const double& x) { return x * x; };
    const double best = anneal<double>(
        initial, oracle::per_state<double>(cost),
        [](const double& x, Rng& r) -> std::optional<double> {
          return x + r.normal(0.0, 2.0);
        },
        options, rng, stats);
    EXPECT_LE(cost(best), cost(initial));
  }
}

TEST(Annealer, HistoryIsMonotoneNonIncreasing) {
  Rng rng(6);
  AnnealStats stats;
  AnnealOptions options;
  options.t_initial = 2.0;
  options.t_final = 1e-3;
  options.cooling = 0.85;
  anneal<double>(
      8.0,
      oracle::per_state<double>(
          [](const double& x) { return std::abs(x - 1.0); }),
      [](const double& x, Rng& r) -> std::optional<double> {
        return x + r.normal(0.0, 0.8);
      },
      options, rng, stats);
  for (std::size_t i = 1; i < stats.best_cost_history.size(); ++i) {
    EXPECT_LE(stats.best_cost_history[i], stats.best_cost_history[i - 1]);
  }
  EXPECT_FALSE(stats.best_cost_history.empty());
}

// ------------------------------------------ staged cost vs the oracle ----
//
// The staged loop, fed a cost bound, must reproduce tests/anneal_oracle.h
// (the single-stage loop, full cost on every candidate) exactly: best
// state, every AnnealStats field but wall time and early_rejects, the hook
// sequence and the RNG's next draw. Costs are pure functions of the state,
// since the two loops call them different numbers of times.

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }
bool same_double(double a, double b) { return bits(a) == bits(b); }

/// Everything one run leaves behind, wall time aside.
template <typename State>
struct AnnealRun {
  State best{};
  AnnealStats stats{};
  std::string hooks{};  ///< 'a' per on_accept, 'r' per on_reject, in order
  long cost_calls = 0;  ///< full-cost calls
  std::uint64_t next_draw = 0;
};

/// EXPECTs the staged run equal to the oracle's; on a mismatch also appends
/// `context` to the nightly failure artifact. Callers stop at the first
/// mismatch, so any failure of the running test is this call's. The
/// population oracle has no hooks, so its callers pass `hooks` = false.
template <typename State, typename SameState>
bool same_run(const AnnealRun<State>& want, const AnnealRun<State>& got,
              const SameState& same_state, const std::string& context,
              bool hooks = true) {
  std::vector<std::uint64_t> want_history, got_history;
  for (const double c : want.stats.best_cost_history) {
    want_history.push_back(bits(c));
  }
  for (const double c : got.stats.best_cost_history) {
    got_history.push_back(bits(c));
  }
  EXPECT_TRUE(same_state(want.best, got.best)) << context;
  EXPECT_EQ(want.stats.evaluations, got.stats.evaluations) << context;
  EXPECT_EQ(want.stats.proposals, got.stats.proposals) << context;
  EXPECT_EQ(want.stats.accepted, got.stats.accepted) << context;
  EXPECT_EQ(bits(want.stats.final_temperature),
            bits(got.stats.final_temperature))
      << context;
  EXPECT_EQ(want_history, got_history) << context;
  EXPECT_EQ(want.stats.stop_reason, got.stats.stop_reason) << context;
  if (hooks) {
    EXPECT_EQ(want.hooks, got.hooks) << context;
  }
  EXPECT_EQ(want.next_draw, got.next_draw) << context;
  // Every evaluation either ran the full cost or was rejected on the bound.
  EXPECT_EQ(want.stats.early_rejects, 0) << context;
  EXPECT_EQ(want.cost_calls, want.stats.evaluations) << context;
  EXPECT_EQ(got.cost_calls + got.stats.early_rejects, got.stats.evaluations)
      << context;
  if (::testing::Test::HasFailure()) {
    rlplan::testing::report_failure_seed("annealer_test", context);
    return false;
  }
  return true;
}

/// Uniform [0, 1) hash of a state, so NaN costs sit on fixed states.
double hash01(double x) {
  std::uint64_t z = bits(x) + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

/// A toy staged cost, bound + penalty with penalty >= 0, and its schedule.
struct ToyCase {
  bool with_bound = true;  ///< false: the staged loop gets no bound
  int penalty = 0;         ///< 0: never, 1: always active, 2: mixed
  double quantum = 0.0;    ///< > 0 quantizes the bound: ties at delta == 0
  double nan_rate = 0.0;   ///< share of states whose cost is NaN
  bool nan_bound = false;  ///< those states' bound is NaN too
  bool nan_cost = true;    ///< false: their cost stays a number
  double decline = 0.0;    ///< share of declined proposals
  double stay = 0.0;       ///< share of proposals repeating the state
  double step = 1.0;
  double center = 0.0;
  double initial = 0.0;
  AnnealOptions options;
  bool slow_start = false;  ///< first cost call outlasts the time budget
  int cancel_after = 0;     ///< > 0: cancel on this proposal
  bool expired = false;     ///< the run starts past its deadline

  double raw_bound(double x) const {
    double b = 0.5 * (x - center) * (x - center) + std::sin(x);
    if (quantum > 0.0) b = quantum * std::floor(b / quantum);
    return b;
  }
  double bound(double x) const {
    if (nan_bound && hash01(x) < nan_rate) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    return raw_bound(x);
  }
  double cost(double x) const { return raw_bound(x) + penalty_of(x); }
  double penalty_of(double x) const {
    if (nan_cost && hash01(x) < nan_rate) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    switch (penalty) {
      case 0: return 0.0;
      case 1: return 0.25 + 0.5 * std::sin(3.0 * x) * std::sin(3.0 * x);
      default: return 0.8 * std::max(0.0, std::sin(2.0 * x));
    }
  }
};

ToyCase random_toy_case(Rng& rng, int k) {
  ToyCase c;
  c.with_bound = k % 8 != 0;
  c.penalty = k % 3;
  c.quantum = rng.bernoulli(0.3) ? rng.uniform(0.05, 1.0) : 0.0;
  if (rng.bernoulli(0.2)) {
    c.nan_rate = rng.uniform(0.01, 0.3);
    c.nan_bound = rng.bernoulli(0.5);
  }
  c.decline = rng.bernoulli(0.3) ? rng.uniform(0.0, 0.6) : 0.0;
  c.stay = rng.bernoulli(0.3) ? rng.uniform(0.0, 0.3) : 0.0;
  c.step = rng.uniform(0.05, 3.0);
  c.center = rng.uniform(-5.0, 5.0);
  c.initial = rng.uniform(-10.0, 10.0);
  AnnealOptions& o = c.options;
  o.t_initial = rng.bernoulli(0.5) ? -1.0 : rng.uniform(0.01, 5.0);
  o.calibration_samples =
      static_cast<int>(rng.uniform_int(std::int64_t{0}, 30));
  o.t_final = rng.uniform(1e-4, 1e-2);
  o.cooling = rng.uniform(0.5, 0.95);
  o.moves_per_temperature =
      static_cast<int>(rng.uniform_int(std::int64_t{1}, 40));
  o.max_evaluations = rng.uniform_int(std::int64_t{1}, 2000);
  switch (rng.uniform_int(std::uint64_t{6})) {
    case 0:  // a time budget that trips at the first check
      o.time_budget_s = 1e-7;
      c.slow_start = true;
      break;
    case 1:  // one that never trips
      o.time_budget_s = 1e6;
      break;
    case 2:
      c.cancel_after = static_cast<int>(rng.uniform_int(std::int64_t{1}, 300));
      break;
    case 3:
      c.expired = rng.bernoulli(0.5);
      if (!c.expired) o.control.deadline = robust::Deadline::after_seconds(1e6);
      break;
    default:
      break;
  }
  return c;
}

/// One run of `c`: the library loop at K = `population` when `staged`,
/// else the oracle for that K (the classic loop at 1, the population loop
/// above it).
AnnealRun<double> run_toy(const ToyCase& c, std::uint64_t seed, bool staged,
                          std::size_t population = 1) {
  AnnealRun<double> run;
  AnnealOptions options = c.options;
  if (c.cancel_after > 0) {
    options.control.cancel = robust::CancelToken::create();
  }
  if (c.expired) options.control.deadline = robust::Deadline::after_seconds(0);
  int proposals = 0;
  const auto propose = [&](const double& x, Rng& r) -> std::optional<double> {
    if (++proposals == c.cancel_after) options.control.cancel.cancel();
    if (r.uniform() < c.decline) return std::nullopt;
    if (r.uniform() < c.stay) return x;
    return x + r.normal(0.0, c.step);
  };
  const auto cost = [&](const double& x) {
    if (run.cost_calls++ == 0 && c.slow_start) {
      const auto until =
          std::chrono::steady_clock::now() + std::chrono::microseconds(20);
      while (std::chrono::steady_clock::now() < until) {
      }
    }
    return c.cost(x);
  };
  BatchCost<double> bound;
  if (c.with_bound) {
    bound = oracle::per_state<double>([&](const double& x) {
      return c.bound(x);
    });
  }
  AnnealHooks hooks;
  hooks.on_accept = [&] { run.hooks += 'a'; };
  hooks.on_reject = [&] { run.hooks += 'r'; };
  Rng rng(seed);
  if (staged) {
    run.best =
        anneal<double>(c.initial, oracle::per_state<double>(cost), propose,
                       options, rng, run.stats, hooks, bound, population);
  } else if (population == 1) {
    run.best = oracle::anneal<double>(c.initial, cost, propose, options, rng,
                                      run.stats, hooks);
  } else {
    run.best = oracle::anneal_population<double>(
        c.initial, oracle::per_state<double>(cost), propose, options,
        population, rng, run.stats);
  }
  run.next_draw = rng.next();
  return run;
}

TEST(AnnealStagedFuzz, ToyCostsMatchOracle) {
  const int cases = 600 * fuzz_scale();
  long early_rejects = 0;
  long evaluations = 0;
  for (int k = 0; k < cases; ++k) {
    const std::uint64_t seed = 0x5A57A6EULL * 1000003ULL + k;
    const std::string context = "ToyCostsMatchOracle case=" +
                                std::to_string(k) +
                                " seed=" + std::to_string(seed);
    Rng rng(seed);
    const ToyCase c = random_toy_case(rng, k);
    const std::uint64_t anneal_seed = rng.next();
    const AnnealRun<double> want = run_toy(c, anneal_seed, false);
    const AnnealRun<double> got = run_toy(c, anneal_seed, true);
    if (!same_run(want, got, same_double, context)) return;
    early_rejects += got.stats.early_rejects;
    evaluations += got.stats.evaluations;
  }
  // The suite must exercise the skip, not just agree with the oracle.
  EXPECT_GT(early_rejects, evaluations / 10);
}

// Population mode: the library loop at K > 1 must reproduce
// oracle::anneal_population, the batch-scored loop TAP-2.5D ran before
// sa::anneal took K proposals per move: best state, every AnnealStats field
// but wall time and early_rejects, and the RNG's next draw. The oracle has
// no hooks; the library's fire once per scored group, so on_accept fires
// once per accepted round plus once for the initial state. Stops are kept
// out of T0 calibration, where only the library loop polls
// (AnnealControl.StopDuringCalibrationEndsIt in robust_test covers that).

ToyCase random_population_case(Rng& rng, int k) {
  ToyCase c = random_toy_case(rng, k);
  if (rng.bernoulli(0.2)) c.decline = rng.uniform(0.6, 0.97);  // empty rounds
  // A NaN bound on a state with a numeric, possibly winning, cost: the
  // round must not be decided on the other candidates' bounds.
  if (c.nan_bound) c.nan_cost = rng.bernoulli(0.5);
  if (c.options.t_initial <= 0.0) {
    // Calibration makes at most 4 * calibration_samples proposals.
    if (c.cancel_after > 0) c.cancel_after += 4 * c.options.calibration_samples;
    c.expired = false;
  }
  return c;
}

TEST(AnnealStagedFuzz, PopulationToyCostsMatchOracle) {
  const int cases = 600 * fuzz_scale();
  long early_rejects = 0;
  long evaluations = 0;
  for (int k = 0; k < cases; ++k) {
    const std::uint64_t seed = 0x909A7EULL * 1000003ULL + k;
    const std::string context = "PopulationToyCostsMatchOracle case=" +
                                std::to_string(k) +
                                " seed=" + std::to_string(seed);
    Rng rng(seed);
    const ToyCase c = random_population_case(rng, k);
    const auto population =
        static_cast<std::size_t>(rng.uniform_int(std::int64_t{2}, 16));
    const std::uint64_t anneal_seed = rng.next();
    const AnnealRun<double> want = run_toy(c, anneal_seed, false, population);
    const AnnealRun<double> got = run_toy(c, anneal_seed, true, population);
    if (!same_run(want, got, same_double, context, false)) return;
    EXPECT_EQ(std::count(got.hooks.begin(), got.hooks.end(), 'a'),
              got.stats.accepted + 1)
        << context;
    if (::testing::Test::HasFailure()) {
      rlplan::testing::report_failure_seed("annealer_test", context);
      return;
    }
    early_rejects += got.stats.early_rejects;
    evaluations += got.stats.evaluations;
  }
  // Rounds skip only when every candidate's bound is above the current
  // cost; measured ~7% of evaluations here.
  EXPECT_GT(early_rejects, evaluations / 40);
}

// Floorplans: a real BumpAssigner and IncrementalFastModelEvaluator wired
// like Tap25dPlanner's classic mode (lambda * W as the bound, the full cost
// reusing the bound's W), driven through commit/rollback hooks.

/// Characterization-free model with smooth analytic tables, imaged on the
/// system's interposer.
thermal::FastThermalModel floorplan_model(const ChipletSystem& sys) {
  std::vector<double> dims;
  for (double d = 2.0; d <= 22.0; d += 4.0) dims.push_back(d);
  std::vector<std::vector<double>> self_vals(dims.size(),
                                             std::vector<double>(dims.size()));
  for (std::size_t i = 0; i < dims.size(); ++i) {
    for (std::size_t j = 0; j < dims.size(); ++j) {
      self_vals[i][j] = 3.0 / (1.0 + 0.04 * dims[i] * dims[j]);
    }
  }
  const double floor = 0.02;
  std::vector<double> distances, mutual_vals;
  for (double d = 0.0; d <= 300.0; d += 1.5) {
    distances.push_back(d);
    mutual_vals.push_back(floor + 0.8 * std::exp(-d / 8.0));
  }
  thermal::FastThermalModel model(
      thermal::SelfResistanceTable(dims, dims, self_vals),
      thermal::MutualResistanceTable(distances, mutual_vals), 45.0, {});
  model.set_image_params(sys.interposer_width(), sys.interposer_height(),
                         floor);
  return model;
}

/// A 4-64-die family instance on an interposer roomy enough for first-fit.
ChipletSystem random_family(Rng& rng) {
  constexpr systems::NetTopology kTopologies[] = {
      systems::NetTopology::kRandom, systems::NetTopology::kMesh,
      systems::NetTopology::kStar, systems::NetTopology::kBipartite};
  systems::FamilyConfig fc;
  fc.chiplets = static_cast<std::size_t>(rng.uniform_int(std::int64_t{4}, 64));
  fc.topology = kTopologies[rng.uniform_int(std::uint64_t{4})];
  fc.min_dim_mm = rng.uniform(2.0, 4.0);
  fc.max_dim_mm = fc.min_dim_mm + rng.uniform(0.0, 6.0);
  fc.max_aspect = rng.bernoulli(0.3) ? 2.0 : 1.0;
  fc.extra_net_prob = rng.uniform(0.0, 0.3);
  const double side = std::max(
      3.0 * fc.max_dim_mm,
      std::sqrt(3.0 * static_cast<double>(fc.chiplets)) * fc.max_dim_mm);
  fc.interposer_w_mm = side;
  fc.interposer_h_mm = side;
  return systems::generate_family(fc, rng.next(), "fuzz");
}

/// Displace / swap / rotate, as in Tap25dPlanner, with a fixed range.
std::optional<Floorplan> propose_move(const Floorplan& state, Rng& r,
                                      double frac) {
  const ChipletSystem& sys = state.system();
  const std::size_t n = sys.num_chiplets();
  Floorplan next = state;
  const double u = r.uniform();
  const std::size_t i = r.uniform_int(std::uint64_t{n});
  const Placement pi = *state.placement(i);
  if (u < 0.6) {
    const Rect fp = state.rect_of(i);
    const double w = sys.interposer_width(), h = sys.interposer_height();
    const Point pos{
        std::clamp(pi.position.x + r.uniform(-frac * w, frac * w), 0.0,
                   w - fp.w),
        std::clamp(pi.position.y + r.uniform(-frac * h, frac * h), 0.0,
                   h - fp.h)};
    if (!next.can_place(i, pos, pi.rotated)) return std::nullopt;
    next.place(i, pos, pi.rotated);
  } else if (u < 0.85) {
    std::size_t j = r.uniform_int(std::uint64_t{n - 1});
    if (j >= i) ++j;
    const Placement pj = *state.placement(j);
    next.unplace(i);
    next.unplace(j);
    if (!next.can_place(i, pj.position, pi.rotated)) return std::nullopt;
    next.place(i, pj.position, pi.rotated);
    if (!next.can_place(j, pi.position, pj.rotated)) return std::nullopt;
    next.place(j, pi.position, pj.rotated);
  } else {
    next.unplace(i);
    if (!next.can_place(i, pi.position, !pi.rotated)) return std::nullopt;
    next.place(i, pi.position, !pi.rotated);
  }
  return next;
}

TEST(AnnealStagedFuzz, FloorplansMatchOracle) {
  const int cases = 8 * fuzz_scale();
  int checked = 0;
  long early_rejects = 0;
  for (int k = 0; k < cases; ++k) {
    const std::uint64_t seed = 0xF1009ULL * 1000003ULL + k;
    const std::string context = "FloorplansMatchOracle case=" +
                                std::to_string(k) +
                                " seed=" + std::to_string(seed);
    Rng rng(seed);
    const ChipletSystem sys = random_family(rng);
    rl::EnvConfig ff;
    ff.grid = 64;
    const Floorplan initial = rl::first_fit_floorplan(sys, ff);
    if (!initial.is_complete()) continue;
    const thermal::FastThermalModel model = floorplan_model(sys);

    // T0 below, near or far above the initial peak: the penalty is then
    // always, sometimes or never active.
    RewardParams params;
    const double t_init =
        thermal::IncrementalFastModelEvaluator(model).max_temperature(
            sys, initial);
    constexpr double kOffsets[] = {-10.0, 0.5, 1000.0};
    params.t0_celsius = t_init + kOffsets[k % 3];
    const RewardCalculator rc(params);
    const double frac = rng.uniform(0.02, 0.35);
    AnnealOptions options;
    options.t_initial = rng.bernoulli(0.7) ? -1.0 : rng.uniform(0.01, 1.0);
    options.t_final = 1e-5;
    options.cooling = rng.uniform(0.8, 0.95);
    options.moves_per_temperature =
        static_cast<int>(rng.uniform_int(std::int64_t{10}, 40));
    options.max_evaluations = rng.uniform_int(std::int64_t{50}, 400);
    const std::uint64_t anneal_seed = rng.next();

    struct FloorplanRun {
      AnnealRun<Floorplan> run;
      std::vector<std::uint64_t> temps;  ///< bits of the temperatures after
    };
    const auto run_one = [&](bool staged) {
      FloorplanRun out{AnnealRun<Floorplan>{initial}};
      AnnealRun<Floorplan>& run = out.run;
      const bump::BumpAssigner assigner;
      thermal::IncrementalFastModelEvaluator eval(model);
      double wl = 0.0;
      const auto bound = [&](const Floorplan& s) {
        wl = assigner.assign(sys, s).total_mm;
        return rc.wirelength_cost(wl);
      };
      const auto staged_cost = [&](const Floorplan& s) {
        ++run.cost_calls;
        return rc.cost(wl, eval.incremental_max_temperature(sys, s));
      };
      const auto oracle_cost = [&](const Floorplan& s) {
        ++run.cost_calls;
        return rc.cost(assigner.assign(sys, s).total_mm,
                       eval.incremental_max_temperature(sys, s));
      };
      const auto propose = [&](const Floorplan& s, Rng& r) {
        return propose_move(s, r, frac);
      };
      AnnealHooks hooks;
      hooks.on_accept = [&] {
        run.hooks += 'a';
        eval.commit();
      };
      hooks.on_reject = [&] {
        run.hooks += 'r';
        eval.rollback();
      };
      Rng r(anneal_seed);
      run.best = staged ? anneal<Floorplan>(
                              initial,
                              oracle::per_state<Floorplan>(staged_cost),
                              propose, options, r, run.stats, hooks,
                              oracle::per_state<Floorplan>(bound))
                        : oracle::anneal<Floorplan>(initial, oracle_cost,
                                                    propose, options, r,
                                                    run.stats, hooks);
      run.next_draw = r.next();
      // The incremental state after the run: a skipped query must leave
      // what a rolled-back one leaves.
      std::vector<double> temps;
      eval.state()->temperatures(temps);
      temps.push_back(eval.state()->max_temperature_c());
      temps.push_back(eval.incremental_max_temperature(sys, run.best));
      for (const double t : temps) out.temps.push_back(bits(t));
      return out;
    };
    const FloorplanRun want = run_one(false);
    const FloorplanRun got = run_one(true);
    const auto same_floorplan = [&](const Floorplan& a, const Floorplan& b) {
      for (std::size_t i = 0; i < sys.num_chiplets(); ++i) {
        if (a.placement(i) != b.placement(i)) return false;
      }
      return true;
    };
    if (!same_run(want.run, got.run, same_floorplan, context)) return;
    EXPECT_EQ(want.temps, got.temps) << context;
    if (want.temps != got.temps) {
      rlplan::testing::report_failure_seed("annealer_test", context);
      return;
    }
    early_rejects += got.run.stats.early_rejects;
    ++checked;
  }
  EXPECT_GE(checked, cases / 2);
  EXPECT_GT(early_rejects, 0);
}

// Population mode on floorplans, wired like Tap25dPlanner at K > 1: lambda
// * W as the bound, and one IncrementalFastModelEvaluator::
// max_temperature_batch() call per scored group, against the population
// oracle scoring every candidate in full.
TEST(AnnealStagedFuzz, PopulationFloorplansMatchOracle) {
  // Every candidate is a full O(n^2) evaluation here, so fewer, shorter
  // runs than the incremental K = 1 suite.
  const int cases = 6 * fuzz_scale();
  int checked = 0;
  long early_rejects = 0;
  for (int k = 0; k < cases; ++k) {
    const std::uint64_t seed = 0x909F1ULL * 1000003ULL + k;
    const std::string context = "PopulationFloorplansMatchOracle case=" +
                                std::to_string(k) +
                                " seed=" + std::to_string(seed);
    Rng rng(seed);
    const ChipletSystem sys = random_family(rng);
    rl::EnvConfig ff;
    ff.grid = 64;
    const Floorplan initial = rl::first_fit_floorplan(sys, ff);
    if (!initial.is_complete()) continue;
    const thermal::FastThermalModel model = floorplan_model(sys);

    // T0 below, near or far above the initial peak: the penalty is then
    // always, sometimes or never active.
    RewardParams params;
    const double t_init =
        thermal::IncrementalFastModelEvaluator(model).max_temperature(
            sys, initial);
    constexpr double kOffsets[] = {-10.0, 0.5, 1000.0};
    params.t0_celsius = t_init + kOffsets[k % 3];
    const RewardCalculator rc(params);
    const double frac = rng.uniform(0.02, 0.35);
    AnnealOptions options;
    options.t_initial = rng.bernoulli(0.7) ? -1.0 : rng.uniform(0.01, 1.0);
    options.t_final = 1e-5;
    options.cooling = rng.uniform(0.8, 0.95);
    options.moves_per_temperature =
        static_cast<int>(rng.uniform_int(std::int64_t{5}, 30));
    options.max_evaluations = rng.uniform_int(std::int64_t{40}, 240);
    const auto population =
        static_cast<std::size_t>(rng.uniform_int(std::int64_t{2}, 16));
    const std::uint64_t anneal_seed = rng.next();

    const auto run_one = [&](bool library) {
      AnnealRun<Floorplan> run{initial};
      const bump::BumpAssigner assigner;
      thermal::IncrementalFastModelEvaluator eval(model);
      std::vector<double> wl;
      const BatchCost<Floorplan> bound = [&](std::span<const Floorplan> cands,
                                             std::span<double> out) {
        wl.resize(cands.size());
        for (std::size_t c = 0; c < cands.size(); ++c) {
          wl[c] = assigner.assign(sys, cands[c]).total_mm;
          out[c] = rc.wirelength_cost(wl[c]);
        }
      };
      const BatchCost<Floorplan> cost = [&](std::span<const Floorplan> cands,
                                            std::span<double> out) {
        run.cost_calls += static_cast<long>(cands.size());
        const std::vector<double> temps =
            eval.max_temperature_batch(sys, cands);
        for (std::size_t c = 0; c < cands.size(); ++c) {
          const double w =
              library ? wl[c] : assigner.assign(sys, cands[c]).total_mm;
          out[c] = rc.cost(w, temps[c]);
        }
      };
      const auto propose = [&](const Floorplan& s, Rng& r) {
        return propose_move(s, r, frac);
      };
      Rng r(anneal_seed);
      run.best = library
                     ? anneal<Floorplan>(initial, cost, propose, options, r,
                                         run.stats, {}, bound, population)
                     : oracle::anneal_population<Floorplan>(
                           initial, cost, propose, options, population, r,
                           run.stats);
      run.next_draw = r.next();
      return run;
    };
    const AnnealRun<Floorplan> want = run_one(false);
    const AnnealRun<Floorplan> got = run_one(true);
    const auto same_floorplan = [&](const Floorplan& a, const Floorplan& b) {
      for (std::size_t i = 0; i < sys.num_chiplets(); ++i) {
        if (a.placement(i) != b.placement(i)) return false;
      }
      return true;
    };
    if (!same_run(want, got, same_floorplan, context, false)) return;
    early_rejects += got.stats.early_rejects;
    ++checked;
  }
  EXPECT_GE(checked, cases / 2);
  EXPECT_GT(early_rejects, 0);
}

}  // namespace
}  // namespace rlplan::sa
