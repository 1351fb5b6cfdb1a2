// Differential fuzz of the ground-truth grid solver against the test-only
// oracle (grid_solver_oracle.h: the CSR assembly and Jacobi-preconditioned
// CG the solver replaced). Over fuzzed systems of 1-64 dies with partial,
// edge and sub-cell placements, and grids from 2x2 to 64x64, square or not:
//  * the stencil apply equals the oracle CSR multiply within 1e-12 of each
//    row's magnitude;
//  * on the default stack, every chiplet's temperature is within 1e-6 C of
//    the oracle solved to a 1e-12 relative residual;
//  * on single-layer, no-bottom-leak, weak-sink and eight-layer stacks, it
//    is within 1e-8 of the peak rise;
//  * every cold solve converges within kMaxColdIterations, so a weakened
//    preconditioner fails here instead of only running slower.
// chiplet_peak_temps' footprint-range scan equals the oracle's full scan
// bit for bit.
//
// RLPLANNER_FUZZ_SCALE multiplies the case counts (CI's nightly job runs
// 20x under ASan); failing cases append their seed to
// $RLPLANNER_FUZZ_FAILURE_FILE (fuzz_util.h).
#include "thermal/grid_solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "fuzz_util.h"
#include "grid_solver_oracle.h"
#include "util/rng.h"

namespace rlplan::thermal {
namespace {

using rlplan::testing::fuzz_scale;

constexpr double kApplyRelTol = 1e-12;
constexpr double kDefaultStackTolC = 1e-6;
constexpr double kPeakRiseRelTol = 1e-8;
constexpr std::size_t kMaxColdIterations = 50;
const CgOptions kOracleOptions{1e-12, 200000};

void report_failure_seed(const std::string& context) {
  rlplan::testing::report_failure_seed("grid_solver_test", context);
}

/// 1-64 dies (mostly few) of 0.5-14 mm, some unpowered, on a 20-90 mm
/// interposer that is rarely square.
ChipletSystem random_system(Rng& rng) {
  const std::size_t dies =
      rng.uniform() < 0.2 ? 1
      : rng.uniform() < 0.8
          ? 2 + rng.uniform_int(std::uint64_t{11})
          : 13 + rng.uniform_int(std::uint64_t{52});
  std::vector<Chiplet> chiplets;
  for (std::size_t i = 0; i < dies; ++i) {
    const double power = rng.uniform() < 0.1 ? 0.0 : rng.uniform(1.0, 40.0);
    chiplets.push_back({"d" + std::to_string(i), rng.uniform(0.5, 14.0),
                        rng.uniform(0.5, 14.0), power});
  }
  return ChipletSystem("fuzz", rng.uniform(20.0, 90.0),
                       rng.uniform(20.0, 90.0), std::move(chiplets), {});
}

/// Any in-bounds position is a valid thermal input (overlaps included).
/// ~20% of dies stay unplaced and ~20% are pushed against an interposer
/// edge or corner.
Floorplan random_floorplan(const ChipletSystem& sys, Rng& rng) {
  Floorplan fp(sys);
  const double iw = sys.interposer_width();
  const double ih = sys.interposer_height();
  for (std::size_t i = 0; i < sys.num_chiplets(); ++i) {
    if (rng.uniform() < 0.2) continue;
    const bool rotated = rng.uniform() < 0.3;
    const Chiplet& c = sys.chiplet(i);
    const double w = std::min(rotated ? c.height : c.width, iw);
    const double h = std::min(rotated ? c.width : c.height, ih);
    double x = rng.uniform(0.0, iw - w);
    double y = rng.uniform(0.0, ih - h);
    if (rng.uniform() < 0.2) {
      x = rng.uniform() < 0.5 ? 0.0 : iw - w;
      if (rng.uniform() < 0.5) y = rng.uniform() < 0.5 ? 0.0 : ih - h;
    }
    fp.place(i, {x, y}, rotated);
  }
  return fp;
}

/// Grid side in [2, 64], biased toward small grids (which are cheap and
/// exercise the odd-size aggregates).
std::size_t random_side(Rng& rng) {
  return rng.uniform() < 0.5 ? 2 + rng.uniform_int(std::uint64_t{15})
                             : 2 + rng.uniform_int(std::uint64_t{63});
}

/// Stencil apply against the CSR multiply on a random vector; per row the
/// bar is kApplyRelTol of the row's absolute terms.
bool apply_matches_oracle(const ThermalGridModel& model,
                          const LayerStack& stack, const Floorplan& fp,
                          Rng& rng, const std::string& context) {
  const GridStencil s = model.build_stencil(fp);
  const grid_oracle::SparseMatrix g =
      grid_oracle::build_conductance(model, stack, fp);
  const std::size_t n = s.nodes();
  std::vector<double> x(n), y_oracle(n), x_padded(s.padded_size(), 0.0),
      y_padded(s.padded_size(), 0.0), scale(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.uniform(-1.0, 1.0);
    x_padded[s.pad() + i] = x[i];
  }
  g.multiply(x, y_oracle);
  g.for_each_entry([&](std::size_t r, std::size_t c, double v) {
    scale[r] += std::abs(v * x[c]);
  });
  s.apply(x_padded, y_padded);
  for (std::size_t i = 0; i < n; ++i) {
    const double err = std::abs(y_padded[s.pad() + i] - y_oracle[i]);
    if (err > kApplyRelTol * scale[i]) {
      ADD_FAILURE() << context << ": node " << i << " stencil "
                    << y_padded[s.pad() + i] << " oracle " << y_oracle[i];
      report_failure_seed(context);
      return false;
    }
  }
  return true;
}

/// Cold library solve against an oracle solve: every chiplet within
/// `tol_c`, or within `rise_rel` of the peak rise when tol_c is 0.
bool solve_matches_oracle(const LayerStack& stack, const ChipletSystem& sys,
                          const Floorplan& fp, GridDims dims, double tol_c,
                          double rise_rel, const std::string& context) {
  GridSolverConfig config{.dims = dims};
  config.warm_start = false;
  GridThermalSolver solver(stack, config);
  const ThermalResult got = solver.solve(sys, fp);
  const grid_oracle::Solution want =
      grid_oracle::solve(stack, sys, fp, dims, kOracleOptions);
  bool ok = true;
  if (!got.cg.converged || got.cg.iterations > kMaxColdIterations) {
    ADD_FAILURE() << context << ": cold solve took " << got.cg.iterations
                  << " iterations (converged " << got.cg.converged << ")";
    ok = false;
  }
  EXPECT_TRUE(want.cg.converged) << context;
  double peak_rise = 0.0;
  for (double t : want.chiplet_temp_c) {
    peak_rise = std::max(peak_rise, t - stack.ambient_c());
  }
  const double bar = tol_c > 0.0 ? tol_c : rise_rel * peak_rise;
  for (std::size_t i = 0; i < sys.num_chiplets(); ++i) {
    const double err = std::abs(got.chiplet_temp_c[i] - want.chiplet_temp_c[i]);
    if (err > bar) {
      ADD_FAILURE() << context << ": chiplet " << i << " "
                    << got.chiplet_temp_c[i] << " C, oracle "
                    << want.chiplet_temp_c[i] << " C (bar " << bar << ")";
      ok = false;
      break;
    }
  }
  if (!ok) report_failure_seed(context);
  return ok;
}

std::string case_context(const char* stack_name, std::uint64_t seed,
                         GridDims dims) {
  return std::string("stack=") + stack_name + " seed=" + std::to_string(seed) +
         " grid=" + std::to_string(dims.rows) + "x" + std::to_string(dims.cols);
}

TEST(GridSolverFuzz, DefaultStackMatchesOracle) {
  const LayerStack stack = LayerStack::default_2p5d();
  // Fixed corners of the size range first, then random grids.
  std::vector<GridDims> grids = {{2, 2}, {64, 64}, {24, 40}, {3, 64}, {64, 2}};
  Rng rng(0x9e1d5017ULL);
  const int cases = 60 * fuzz_scale();
  while (grids.size() < static_cast<std::size_t>(cases)) {
    grids.push_back({random_side(rng), random_side(rng)});
  }
  for (const GridDims dims : grids) {
    const std::uint64_t seed = rng.next();
    Rng case_rng(seed);
    const ChipletSystem sys = random_system(case_rng);
    const Floorplan fp = random_floorplan(sys, case_rng);
    const std::string context = case_context("default", seed, dims);
    const ThermalGridModel model(stack, sys, dims);
    if (!apply_matches_oracle(model, stack, fp, case_rng, context) ||
        !solve_matches_oracle(stack, sys, fp, dims, kDefaultStackTolC, 0.0,
                              context)) {
      return;  // the seed is reported; stop before flooding the log
    }
  }
}

struct NamedStack {
  const char* name;
  LayerStack stack;
};

std::vector<NamedStack> other_stacks() {
  std::vector<NamedStack> stacks;
  stacks.push_back({"single-layer",
                    LayerStack({{"chiplets", 150e-6, silicon(), true}},
                               underfill(), 2800.0, 40.0, 45.0)});
  LayerStack no_leak = LayerStack::default_2p5d();
  no_leak.set_h_bottom(0.0);
  stacks.push_back({"no-bottom-leak", no_leak});
  LayerStack weak_sink = LayerStack::default_2p5d();
  weak_sink.set_h_top(150.0);
  stacks.push_back({"weak-sink", weak_sink});
  stacks.push_back(
      {"eight-layer",
       LayerStack({{"substrate", 400e-6, {"organic", 0.8}, false},
                   {"interposer", 100e-6, interposer_silicon(), false},
                   {"chiplets", 150e-6, silicon(), true},
                   {"tim", 50e-6, tim(), false},
                   {"lid", 1e-3, copper(), false},
                   {"tim2", 80e-6, tim(), false},
                   {"spreader", 2e-3, copper(), false},
                   {"sink", 5e-3, aluminum(), false}},
                  underfill(), 2800.0, 40.0, 45.0)});
  return stacks;
}

TEST(GridSolverFuzz, OtherStacksMatchOracleWithinPeakRise) {
  Rng rng(0x57ac4e5ULL);
  const int cases_per_stack = 10 * fuzz_scale();
  for (const NamedStack& named : other_stacks()) {
    for (int c = 0; c < cases_per_stack; ++c) {
      const GridDims dims{random_side(rng), random_side(rng)};
      const std::uint64_t seed = rng.next();
      Rng case_rng(seed);
      const ChipletSystem sys = random_system(case_rng);
      const Floorplan fp = random_floorplan(sys, case_rng);
      const std::string context = case_context(named.name, seed, dims);
      const ThermalGridModel model(named.stack, sys, dims);
      if (!apply_matches_oracle(model, named.stack, fp, case_rng, context) ||
          !solve_matches_oracle(named.stack, sys, fp, dims, 0.0,
                                kPeakRiseRelTol, context)) {
        return;
      }
    }
  }
}

TEST(GridSolverFuzz, ChipletPeakScanMatchesFullScan) {
  const LayerStack stack = LayerStack::default_2p5d();
  Rng rng(0x9ea4ULL);
  const int cases = 300 * fuzz_scale();
  for (int c = 0; c < cases; ++c) {
    const std::uint64_t seed = rng.next();
    Rng case_rng(seed);
    const ChipletSystem sys = random_system(case_rng);
    const Floorplan fp = random_floorplan(sys, case_rng);
    const GridDims dims{random_side(case_rng), random_side(case_rng)};
    const ThermalGridModel model(stack, sys, dims);
    // Random temperatures, so the peak's cell decides the value.
    std::vector<double> temps(model.num_nodes());
    for (double& t : temps) t = case_rng.uniform(45.0, 120.0);
    const ThermalField field(stack.num_layers(), dims, std::move(temps));
    const std::size_t layer = stack.chiplet_layer_index();
    const std::vector<double> got =
        chiplet_peak_temps(field, model, sys, fp, layer);
    const std::vector<double> want =
        grid_oracle::chiplet_peak_temps_full_scan(field, model, sys, fp, layer);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "chiplet " << i;
    }
    if (::testing::Test::HasFailure()) {
      report_failure_seed(case_context("peak-scan", seed, dims));
      return;
    }
  }
}

TEST(GridThermalSolver, ConcurrentSolversMatchSerial) {
  // Solvers on different threads share nothing: each solve owns its
  // hierarchy and work vectors.
  const LayerStack stack = LayerStack::default_2p5d();
  Rng rng(0xc0c0ULL);
  std::vector<ChipletSystem> systems;
  for (int i = 0; i < 6; ++i) systems.push_back(random_system(rng));
  std::vector<Floorplan> floorplans;  // refer to `systems`, now fixed
  for (const ChipletSystem& sys : systems) {
    floorplans.push_back(random_floorplan(sys, rng));
  }
  const GridSolverConfig config{.dims = {20, 28}};
  const auto run = [&](std::size_t first, std::vector<double>& out) {
    GridThermalSolver solver(stack, config);
    for (std::size_t k = 0; k < systems.size(); ++k) {
      const std::size_t i = (first + k) % systems.size();
      out[i] = solver.solve(systems[i], floorplans[i]).max_temp_c;
      solver.reset_warm_start();
    }
  };
  std::vector<double> serial(systems.size()), a(systems.size()),
      b(systems.size());
  run(0, serial);
  std::thread ta([&] { run(0, a); });
  std::thread tb([&] { run(3, b); });
  ta.join();
  tb.join();
  EXPECT_EQ(a, serial);
  EXPECT_EQ(b, serial);
}

TEST(GridThermalSolver, ZeroPowerSolvesToAmbientImmediately) {
  const LayerStack stack = LayerStack::default_2p5d();
  const ChipletSystem sys("cold", 30.0, 30.0, {{"a", 6.0, 6.0, 0.0}}, {});
  Floorplan fp(sys);
  fp.place(0, {10.0, 10.0});
  GridThermalSolver solver(stack, {.dims = {9, 7}});
  const ThermalResult result = solver.solve(sys, fp);
  EXPECT_TRUE(result.cg.converged);
  EXPECT_EQ(result.cg.iterations, 0u);
  EXPECT_EQ(result.max_temp_c, stack.ambient_c());
}

}  // namespace
}  // namespace rlplan::thermal
