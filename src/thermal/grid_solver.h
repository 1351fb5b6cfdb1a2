// Steady-state thermal solver facade — the repository's "HotSpot".
//
// GridThermalSolver plays the role HotSpot 6.0 plays in the paper: the
// accurate-but-expensive ground truth that (a) the SA baseline queries in its
// inner loop and (b) the fast thermal model is characterized against.
//
// A solve fills the placement's 7-point conductance stencil and runs CG
// preconditioned by one aggregation-multigrid V(1,1) cycle: levels coarsen
// 2x2 laterally (a direction whose conductances are under half the other's
// stays uncoarsened), keep every layer and stop at 1x1, and a coarse
// conductance sums the fine ones crossing the aggregate boundary (Galerkin),
// so every level is the same stencil. The smoother solves each vertical
// column exactly (Thomas), damped by 0.8, before and after the coarse
// correction: thin layers couple vertically hundreds of times more strongly
// than laterally. At 1x1 that column solve is exact. Both smoothing steps
// are the same symmetric operator, so the V-cycle is a valid CG
// preconditioner. tests/grid_solver_oracle.h keeps the CSR assembly and
// Jacobi CG this replaced as the test-only reference.
#pragma once

#include <cstddef>
#include <vector>

#include "core/chiplet.h"
#include "core/floorplan.h"
#include "thermal/grid_model.h"
#include "thermal/layer_stack.h"

namespace rlplan::thermal {

struct CgOptions {
  double tolerance = 1e-8;   ///< relative residual ||r|| / ||b||
  std::size_t max_iterations = 5000;
};

struct CgResult {
  std::size_t iterations = 0;
  double relative_residual = 0.0;
  bool converged = false;
};

/// Full temperature field over all layers (degrees Celsius, absolute).
class ThermalField {
 public:
  ThermalField() = default;
  ThermalField(std::size_t layers, GridDims dims, std::vector<double> temps_c);

  std::size_t layers() const { return layers_; }
  GridDims dims() const { return dims_; }

  double at(std::size_t layer, std::size_t row, std::size_t col) const {
    return temps_c_.at(layer * dims_.cells() + row * dims_.cols + col);
  }

  const std::vector<double>& raw() const { return temps_c_; }

  /// Maximum temperature within one layer.
  double layer_max(std::size_t layer) const;

 private:
  std::size_t layers_ = 0;
  GridDims dims_;
  std::vector<double> temps_c_;
};

/// Per-chiplet and system-level result of one steady-state solve.
struct ThermalResult {
  double max_temp_c = 0.0;  ///< peak chiplet temperature (the paper's T)
  std::vector<double> chiplet_temp_c;  ///< per-chiplet peak temperature
  CgResult cg;  ///< final solve (the fallback's, when one ran)
  double solve_seconds = 0.0;
  /// Count of fallback re-solves taken because the primary CG solve did not
  /// converge (real divergence or the "solver_diverge" chaos site): the
  /// solver retries once from a cold start with a 4x iteration budget.
  std::size_t fallback_resolves = 0;
  /// True only when the fallback *also* failed to converge — temperatures
  /// come from the last iterate and result.cg.relative_residual reports how
  /// far off it is.
  bool degraded = false;
};

struct GridSolverConfig {
  GridDims dims{48, 48};
  CgOptions cg{};
  /// Reuse the previous temperature field as the CG starting point when the
  /// grid shape matches (big win inside SA loops with incremental moves).
  bool warm_start = true;
};

/// Thermal "ground truth". Not thread-safe (warm-start cache); use one
/// instance per thread. Every solve allocates its own work buffers, so
/// separate instances solve concurrently.
class GridThermalSolver {
 public:
  /// `stack` must outlive the solver.
  explicit GridThermalSolver(const LayerStack& stack,
                             GridSolverConfig config = {});

  const LayerStack& stack() const { return *stack_; }
  const GridSolverConfig& config() const { return config_; }

  /// Solves the placement and reports per-chiplet peak temperatures.
  /// Unplaced chiplets get ambient temperature.
  ThermalResult solve(const ChipletSystem& system, const Floorplan& floorplan);

  /// As solve(), additionally returning the full field (characterization).
  ThermalResult solve_with_field(const ChipletSystem& system,
                                 const Floorplan& floorplan,
                                 ThermalField& field_out);

  /// Number of linear solves performed so far (budget accounting).
  long num_solves() const { return num_solves_; }

  void reset_warm_start() { last_solution_.clear(); }

 private:
  ThermalResult solve_impl(const ChipletSystem& system,
                           const Floorplan& floorplan,
                           ThermalField* field_out);

  const LayerStack* stack_;
  GridSolverConfig config_;
  std::vector<double> last_solution_;  // delta-T, warm start cache
  long num_solves_ = 0;
};

/// Extracts per-chiplet peak temperature (deg C) from a solved field: max
/// over the chiplet-layer cells at least half covered by the footprint (the
/// cell holding its center when none is). Unplaced chiplets read cell
/// (0, 0) of the chiplet layer, a near-ambient baseline.
std::vector<double> chiplet_peak_temps(const ThermalField& field,
                                       const ThermalGridModel& model,
                                       const ChipletSystem& system,
                                       const Floorplan& floorplan,
                                       std::size_t chiplet_layer);

}  // namespace rlplan::thermal
