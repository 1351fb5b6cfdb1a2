#include "thermal/grid_solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "grid_solver_oracle.h"
#include "thermal/grid_model.h"
#include "thermal/layer_stack.h"
#include "util/rng.h"

namespace rlplan::thermal {
namespace {

ChipletSystem one_die_system(double die = 10.0, double power = 20.0) {
  return ChipletSystem("t", 40.0, 40.0, {{"die", die, die, power}}, {});
}

Floorplan centered(const ChipletSystem& sys) {
  Floorplan fp(sys);
  const Chiplet& c = sys.chiplet(0);
  fp.place(0, {(sys.interposer_width() - c.width) / 2.0,
               (sys.interposer_height() - c.height) / 2.0});
  return fp;
}

TEST(LayerStack, DefaultValidates) {
  EXPECT_NO_THROW(LayerStack::default_2p5d().validate());
}

TEST(LayerStack, RejectsMalformedStacks) {
  LayerStack empty;
  EXPECT_THROW(empty.validate(), std::invalid_argument);

  std::vector<Layer> no_chiplet = {{"a", 1e-4, silicon(), false}};
  EXPECT_THROW(
      LayerStack(no_chiplet, underfill(), 1000, 0, 45).validate(),
      std::invalid_argument);

  std::vector<Layer> two_chiplet = {{"a", 1e-4, silicon(), true},
                                    {"b", 1e-4, silicon(), true}};
  EXPECT_THROW(
      LayerStack(two_chiplet, underfill(), 1000, 0, 45).validate(),
      std::invalid_argument);

  std::vector<Layer> ok = {{"a", 1e-4, silicon(), true}};
  EXPECT_THROW(LayerStack(ok, underfill(), 0.0, 0, 45).validate(),
               std::invalid_argument);  // no top convection
  EXPECT_NO_THROW(LayerStack(ok, underfill(), 1000, 0, 45).validate());
}

TEST(ThermalGridModel, ConductanceMatrixIsSymmetricLaplacianPlusGround) {
  // The stencil holds exactly the oracle CSR's entries: the diagonal and
  // minus the conductance to each of the six neighbours.
  const auto stack = LayerStack::default_2p5d();
  const auto sys = one_die_system();
  const auto fp = centered(sys);
  ThermalGridModel model(stack, sys, {12, 12});
  const GridStencil s = model.build_stencil(fp);
  const grid_oracle::SparseMatrix g =
      grid_oracle::build_conductance(model, stack, fp);
  ASSERT_EQ(s.nodes(), g.rows());
  EXPECT_LT(g.symmetry_error(), 1e-12);

  const std::size_t p = s.pad();
  const std::size_t cols = s.dims.cols;
  const std::size_t cells = s.dims.cells();
  g.for_each_entry([&](std::size_t r, std::size_t c, double v) {
    double expected = 0.0;
    if (c == r) {
      expected = s.diag[p + r];
    } else if (c == r + 1 || r == c + 1) {
      expected = -s.east[p + std::min(r, c)];
    } else if (c == r + cols || r == c + cols) {
      expected = -s.north[p + std::min(r, c)];
    } else if (c == r + cells || r == c + cells) {
      expected = -s.up[p + std::min(r, c)];
    } else {
      ADD_FAILURE() << "entry (" << r << ", " << c << ") is not a neighbour";
    }
    EXPECT_NEAR(v, expected, 1e-12 * std::abs(expected))
        << "(" << r << ", " << c << ")";
  });
  std::size_t stencil_entries = s.nodes();
  for (std::size_t i = 0; i < s.nodes(); ++i) {
    stencil_entries += 2 * ((s.east[p + i] != 0.0) + (s.north[p + i] != 0.0) +
                            (s.up[p + i] != 0.0));
  }
  EXPECT_EQ(stencil_entries, g.nnz());

  // Laplacian plus ground: the diagonal exceeds the incident conductances
  // by the ground term, which only the top and bottom layers have.
  for (std::size_t i = 0; i < s.nodes(); ++i) {
    const std::size_t at = p + i;
    const double incident = s.east[at] + s.east[at - 1] + s.north[at] +
                            s.north[at - cols] + s.up[at] + s.up[at - cells];
    const double ground = s.diag[at] - incident;
    EXPECT_GT(s.diag[at], 0.0);
    const bool boundary = i < cells || i >= s.nodes() - cells;
    if (boundary) {
      EXPECT_GT(ground, 0.0) << i;
    } else {
      EXPECT_NEAR(ground, 0.0, 1e-12 * s.diag[at]) << i;
    }
  }
}

TEST(ThermalGridModel, PowerConservation) {
  const auto stack = LayerStack::default_2p5d();
  const auto sys = one_die_system(7.3, 33.0);  // not grid-aligned
  const auto fp = centered(sys);
  ThermalGridModel model(stack, sys, {24, 24});
  const auto p = model.build_power(fp);
  double total = 0.0;
  for (double v : p) total += v;
  EXPECT_NEAR(total, 33.0, 1e-9);
}

TEST(ThermalGridModel, PowerConservationWithMultipleDies) {
  const auto stack = LayerStack::default_2p5d();
  const ChipletSystem sys("m", 40.0, 40.0,
                          {{"a", 9.7, 6.1, 17.0}, {"b", 5.3, 8.9, 11.5}},
                          {});
  Floorplan fp(sys);
  fp.place(0, {2.1, 3.3});
  fp.place(1, {20.9, 24.7});
  ThermalGridModel model(stack, sys, {20, 20});
  const auto p = model.build_power(fp);
  double total = 0.0;
  for (double v : p) total += v;
  EXPECT_NEAR(total, 28.5, 1e-9);
}

TEST(ThermalGridModel, UnplacedChipletsContributeNothing) {
  const auto stack = LayerStack::default_2p5d();
  const auto sys = one_die_system();
  const Floorplan fp(sys);  // nothing placed
  ThermalGridModel model(stack, sys, {12, 12});
  const auto p = model.build_power(fp);
  for (double v : p) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(ThermalGridModel, ChipletLayerConductivityBlends) {
  const auto stack = LayerStack::default_2p5d();
  const auto sys = one_die_system(20.0, 10.0);
  const auto fp = centered(sys);
  ThermalGridModel model(stack, sys, {16, 16});
  const auto k = model.chiplet_layer_conductivity(fp);
  const double k_die = stack.layer(stack.chiplet_layer_index())
                           .material.conductivity;
  const double k_fill = stack.fill_material().conductivity;
  // Center cells fully covered -> die conductivity; corners -> fill.
  EXPECT_NEAR(k[8 * 16 + 8], k_die, 1e-9);
  EXPECT_NEAR(k[0], k_fill, 1e-9);
}

TEST(GridThermalSolver, HotterWithMorePower) {
  const auto stack = LayerStack::default_2p5d();
  GridThermalSolver solver(stack, {.dims = {24, 24}});
  const auto sys_lo = one_die_system(10.0, 10.0);
  const auto sys_hi = one_die_system(10.0, 30.0);
  const double t_lo = solver.solve(sys_lo, centered(sys_lo)).max_temp_c;
  solver.reset_warm_start();
  const double t_hi = solver.solve(sys_hi, centered(sys_hi)).max_temp_c;
  EXPECT_GT(t_hi, t_lo);
  EXPECT_GT(t_lo, stack.ambient_c());
}

TEST(GridThermalSolver, LinearityInPower) {
  // Same geometry, power scaled by k -> rise scales by k (LTI check of the
  // ground truth itself).
  const auto stack = LayerStack::default_2p5d();
  GridSolverConfig config{.dims = {24, 24}};
  config.warm_start = false;
  GridThermalSolver solver(stack, config);
  const auto sys1 = one_die_system(10.0, 10.0);
  const auto sys3 = one_die_system(10.0, 30.0);
  const double rise1 =
      solver.solve(sys1, centered(sys1)).max_temp_c - stack.ambient_c();
  const double rise3 =
      solver.solve(sys3, centered(sys3)).max_temp_c - stack.ambient_c();
  EXPECT_NEAR(rise3 / rise1, 3.0, 0.01);
}

TEST(GridThermalSolver, SuperpositionExactForFixedConductivity) {
  // With chiplet-layer conductivity fixed by the SAME placement, the
  // temperature field of two sources equals the sum of single-source fields.
  const auto stack = LayerStack::default_2p5d();
  const ChipletSystem both("b", 40.0, 40.0,
                           {{"a", 8.0, 8.0, 20.0}, {"b", 8.0, 8.0, 10.0}},
                           {});
  const ChipletSystem only_a("a", 40.0, 40.0,
                             {{"a", 8.0, 8.0, 20.0}, {"b", 8.0, 8.0, 0.0}},
                             {});
  const ChipletSystem only_b("c", 40.0, 40.0,
                             {{"a", 8.0, 8.0, 0.0}, {"b", 8.0, 8.0, 10.0}},
                             {});
  const auto place = [](const ChipletSystem& s) {
    Floorplan fp(s);
    fp.place(0, {4.0, 16.0});
    fp.place(1, {28.0, 16.0});
    return fp;
  };
  GridSolverConfig config{.dims = {24, 24}};
  config.cg.tolerance = 1e-11;
  config.warm_start = false;

  ThermalField f_both, f_a, f_b;
  GridThermalSolver solver(stack, config);
  solver.solve_with_field(both, place(both), f_both);
  solver.solve_with_field(only_a, place(only_a), f_a);
  solver.solve_with_field(only_b, place(only_b), f_b);

  const double amb = stack.ambient_c();
  for (std::size_t i = 0; i < f_both.raw().size(); i += 37) {
    const double sum =
        (f_a.raw()[i] - amb) + (f_b.raw()[i] - amb);
    EXPECT_NEAR(f_both.raw()[i] - amb, sum, 1e-4);
  }
}

TEST(GridThermalSolver, SymmetricPlacementGivesSymmetricTemps) {
  const auto stack = LayerStack::default_2p5d();
  const ChipletSystem sys("s", 40.0, 40.0,
                          {{"a", 8.0, 8.0, 15.0}, {"b", 8.0, 8.0, 15.0}},
                          {});
  Floorplan fp(sys);
  fp.place(0, {6.0, 16.0});   // mirror of (26, 16) about x = 20
  fp.place(1, {26.0, 16.0});
  GridSolverConfig config{.dims = {32, 32}};
  config.cg.tolerance = 1e-11;
  GridThermalSolver solver(stack, config);
  const auto result = solver.solve(sys, fp);
  EXPECT_NEAR(result.chiplet_temp_c[0], result.chiplet_temp_c[1], 0.05);
}

TEST(GridThermalSolver, RefinementConvergence) {
  // Peak temperature should converge as the grid refines.
  const auto stack = LayerStack::default_2p5d();
  const auto sys = one_die_system(12.0, 25.0);
  double prev_diff = 1e9;
  double t32 = 0.0, t48 = 0.0, t64 = 0.0;
  {
    GridThermalSolver s(stack, {.dims = {32, 32}});
    t32 = s.solve(sys, centered(sys)).max_temp_c;
  }
  {
    GridThermalSolver s(stack, {.dims = {48, 48}});
    t48 = s.solve(sys, centered(sys)).max_temp_c;
  }
  {
    GridThermalSolver s(stack, {.dims = {64, 64}});
    t64 = s.solve(sys, centered(sys)).max_temp_c;
  }
  prev_diff = std::abs(t48 - t32);
  EXPECT_LT(std::abs(t64 - t48), prev_diff + 0.05);
  // All within a sane band of each other.
  EXPECT_NEAR(t32, t64, 2.0);
}

TEST(GridThermalSolver, EdgePlacementHotterThanCenter) {
  // Physical sanity: restricted spreading near the rim runs hotter.
  const auto stack = LayerStack::default_2p5d();
  const auto sys = one_die_system(8.0, 25.0);
  Floorplan corner(sys);
  corner.place(0, {0.0, 0.0});
  GridSolverConfig config{.dims = {32, 32}};
  config.warm_start = false;
  GridThermalSolver solver(stack, config);
  const double t_corner = solver.solve(sys, corner).max_temp_c;
  const double t_center = solver.solve(sys, centered(sys)).max_temp_c;
  EXPECT_GT(t_corner, t_center + 1.0);
}

TEST(GridThermalSolver, WarmStartMatchesColdSolve) {
  const auto stack = LayerStack::default_2p5d();
  const auto sys = one_die_system(9.0, 22.0);
  GridSolverConfig warm{.dims = {24, 24}};
  warm.cg.tolerance = 1e-10;
  GridSolverConfig cold = warm;
  cold.warm_start = false;
  GridThermalSolver s_warm(stack, warm);
  GridThermalSolver s_cold(stack, cold);
  // Two successive solves with slightly different placements.
  Floorplan fp1 = centered(sys);
  Floorplan fp2(sys);
  fp2.place(0, {14.0, 15.0});
  const double a1 = s_warm.solve(sys, fp1).max_temp_c;
  const double a2 = s_warm.solve(sys, fp2).max_temp_c;
  const double b1 = s_cold.solve(sys, fp1).max_temp_c;
  const double b2 = s_cold.solve(sys, fp2).max_temp_c;
  EXPECT_NEAR(a1, b1, 1e-4);
  EXPECT_NEAR(a2, b2, 1e-4);
}

TEST(GridThermalSolver, PerChipletTempsAmbientWhenUnplaced) {
  const auto stack = LayerStack::default_2p5d();
  const ChipletSystem sys("u", 40.0, 40.0,
                          {{"a", 8.0, 8.0, 15.0}, {"b", 8.0, 8.0, 15.0}},
                          {});
  Floorplan fp(sys);
  fp.place(0, {16.0, 16.0});
  GridThermalSolver solver(stack, {.dims = {24, 24}});
  const auto result = solver.solve(sys, fp);
  // Unplaced chiplet reads a baseline far below the placed one.
  EXPECT_GT(result.chiplet_temp_c[0], result.chiplet_temp_c[1] + 3.0);
}

}  // namespace
}  // namespace rlplan::thermal
