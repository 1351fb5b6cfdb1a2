// Shared helpers of the tools, benches and rlplanner_cli: whole-value flag
// parsing, and the method-comparison runner used by Table I and Table III.
#pragma once

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <system_error>
#include <type_traits>

#include "bump/assigner.h"
#include "core/reward.h"
#include "rl/planner.h"
#include "sa/tap25d.h"
#include "thermal/characterize.h"
#include "thermal/evaluator.h"
#include "thermal/grid_solver.h"
#include "thermal/incremental.h"
#include "util/timer.h"

namespace rlplan::bench {

/// The text after --name=, or nullptr when the flag is absent.
inline const char* flag_value(int argc, char** argv, const char* name) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return nullptr;
}

/// Parses the whole of a numeric flag's value into T; anything else (empty,
/// a trailing character, a word, a value T cannot hold — for an unsigned T
/// that includes a leading '-') exits 2 naming the flag, so a typo never runs
/// as a silently read 0, a truncated prefix or a wrapped count.
template <typename T>
T parse_flag(const char* name, const char* value) {
  T out{};
  const char* end = value + std::strlen(value);
  const auto [ptr, ec] = std::from_chars(value, end, out);
  if (ec != std::errc() || ptr != end) {
    if constexpr (std::is_integral_v<T>) {
      std::fprintf(stderr, "--%s=%s: not an integer in [%s, %s]\n", name,
                   value, std::to_string(std::numeric_limits<T>::min()).c_str(),
                   std::to_string(std::numeric_limits<T>::max()).c_str());
    } else {
      std::fprintf(stderr, "--%s=%s: not a number\n", name, value);
    }
    std::exit(2);
  }
  return out;
}

/// --name=value integer flag parsed straight into the caller's type T
/// (returns fallback when absent): `flag_int<std::size_t>(..., "grid", 16)`.
template <typename T>
T flag_int(int argc, char** argv, const char* name,
           std::type_identity_t<T> fallback) {
  static_assert(std::is_integral_v<T>);
  const char* value = flag_value(argc, argv, name);
  return value ? parse_flag<T>(name, value) : fallback;
}

/// --name=value number flag (returns fallback when absent).
inline double flag_double(int argc, char** argv, const char* name,
                          double fallback) {
  const char* value = flag_value(argc, argv, name);
  return value ? parse_flag<double>(name, value) : fallback;
}

/// --name=value string flag (returns fallback when absent).
inline std::string flag_str(int argc, char** argv, const char* name,
                            const std::string& fallback) {
  const char* value = flag_value(argc, argv, name);
  return value ? std::string(value) : fallback;
}

inline bool flag_present(int argc, char** argv, const char* name) {
  const std::string flag = std::string("--") + name;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

/// One method's result row, scored on the ground-truth solver.
struct MethodRow {
  std::string method;
  double reward = 0.0;
  double wirelength_mm = 0.0;
  double temperature_c = 0.0;
  double runtime_s = 0.0;
};

struct CompareConfig {
  std::size_t rl_grid = 20;
  int rl_epochs = 30;
  int rl_episodes_per_update = 16;
  float rl_lr = 1e-3f;
  thermal::GridDims solver_dims{48, 48};
  std::uint64_t seed = 1;
};

/// Runs the paper's four method configurations on one system:
/// RLPlanner, RLPlanner(RND), TAP-2.5D(grid solver), TAP-2.5D(fast model).
/// SA budgets are wall-clock matched to the RLPlanner training time, as in
/// Table I's footnote. All rows are scored with the ground-truth solver.
inline std::vector<MethodRow> compare_methods(
    const ChipletSystem& system, const thermal::LayerStack& stack,
    const CompareConfig& config) {
  std::vector<MethodRow> rows;

  // Shared characterization (cost reported once; excluded from per-method
  // runtimes, matching the paper's offline-characterization accounting).
  thermal::CharacterizationConfig cc;
  cc.solver.dims = config.solver_dims;
  thermal::ThermalCharacterizer charac(stack, cc);
  const thermal::FastThermalModel model = charac.characterize(
      system.interposer_width(), system.interposer_height());
  std::fprintf(stderr, "[bench] %s: characterization %.1f s\n",
               system.name().c_str(), charac.report().total_seconds);

  thermal::GridThermalSolver truth(stack, {.dims = config.solver_dims});
  const bump::BumpAssigner assigner;
  const RewardCalculator rc;
  const auto score = [&](const std::string& name, const Floorplan& fp,
                         double seconds) {
    MethodRow row;
    row.method = name;
    row.wirelength_mm = assigner.assign(system, fp).total_mm;
    row.temperature_c = truth.solve(system, fp).max_temp_c;
    row.reward = rc.reward(row.wirelength_mm, row.temperature_c);
    row.runtime_s = seconds;
    return row;
  };

  double rl_seconds = 0.0;
  for (const bool use_rnd : {false, true}) {
    rl::RlPlannerConfig pc;
    pc.env.grid = config.rl_grid;
    pc.net.grid = config.rl_grid;
    pc.epochs = config.rl_epochs;
    pc.ppo.episodes_per_update = config.rl_episodes_per_update;
    pc.ppo.adam.lr = config.rl_lr;
    pc.ppo.use_rnd = use_rnd;
    pc.solver.dims = config.solver_dims;
    pc.seed = config.seed + (use_rnd ? 1 : 0);
    rl::RlPlanner planner(pc);
    Timer t;
    const auto result = planner.plan_with_model(system, stack, model);
    const double secs = t.seconds();
    if (!use_rnd) rl_seconds = secs;
    rows.push_back(score(use_rnd ? "RLPlanner(RND)" : "RLPlanner",
                         *result.best, secs));
  }

  // SA baselines, wall-clock matched to RLPlanner training time.
  for (const bool fast : {false, true}) {
    sa::Tap25dConfig tc;
    tc.anneal.time_budget_s = rl_seconds;
    tc.anneal.max_evaluations = 100000000;
    tc.anneal.cooling = 0.97;
    tc.anneal.t_final = 1e-5;
    tc.seed = config.seed + 10;
    sa::Tap25dPlanner planner(tc);
    Timer t;
    if (fast) {
      thermal::IncrementalFastModelEvaluator eval(model);
      const auto result = planner.plan(system, eval, rc, assigner);
      rows.push_back(
          score("TAP-2.5D*(Fast Thermal Model)", result.best, t.seconds()));
    } else {
      thermal::GridSolverEvaluator eval(stack, {.dims = config.solver_dims});
      const auto result = planner.plan(system, eval, rc, assigner);
      rows.push_back(
          score("TAP-2.5D(GridSolver)", result.best, t.seconds()));
    }
  }
  return rows;
}

inline void print_rows(const std::string& system_name,
                       const std::vector<MethodRow>& rows) {
  std::printf("\n%s\n", system_name.c_str());
  std::printf("%-30s %10s %15s %16s %11s\n", "Method", "Reward",
              "Wirelength(mm)", "Temperature(C)", "Runtime(s)");
  for (const auto& r : rows) {
    std::printf("%-30s %10.4f %15.0f %16.2f %11.1f\n", r.method.c_str(),
                r.reward, r.wirelength_mm, r.temperature_c, r.runtime_s);
  }
}

}  // namespace rlplan::bench
