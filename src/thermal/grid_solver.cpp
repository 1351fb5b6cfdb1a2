#include "thermal/grid_solver.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <utility>

#include "obs/metrics.h"
#include "robust/fault.h"
#include "util/log.h"
#include "util/timer.h"

namespace rlplan::thermal {

namespace {

/// Damping of the column smoother; damped block Jacobi on a diagonally
/// dominant G converges for any damping up to 1.
constexpr double kColumnDamping = 0.8;

/// One level of the multigrid hierarchy: its stencil, the Thomas
/// factorization of every vertical column, and the level's work vectors
/// (padded like the stencil, so apply() can read them).
struct Level {
  explicit Level(GridStencil stencil);

  GridStencil g;
  std::vector<double> inv_pivot;  ///< 1 / Thomas pivot
  std::vector<double> b;          ///< right side
  std::vector<double> x;          ///< solution
  std::vector<double> r;          ///< residual
};

double* nodes_of(std::vector<double>& v, const GridStencil& g) {
  return v.data() + g.pad();
}

/// Calls fn(i, k, row, col) for every fine node i, at (row, col) in its
/// layer, with k the coarse node of its aggregate. An aggregate spans two
/// rows (columns) wherever the coarse level has fewer rows (columns).
template <typename Fn>
void for_each_aggregated_node(const GridStencil& fine,
                              const GridStencil& coarse, Fn&& fn) {
  const unsigned row_shift = coarse.dims.rows < fine.dims.rows ? 1 : 0;
  const unsigned col_shift = coarse.dims.cols < fine.dims.cols ? 1 : 0;
  std::size_t i = 0;
  for (std::size_t l = 0; l < fine.layers; ++l) {
    for (std::size_t row = 0; row < fine.dims.rows; ++row) {
      const std::size_t base =
          l * coarse.dims.cells() + (row >> row_shift) * coarse.dims.cols;
      for (std::size_t col = 0; col < fine.dims.cols; ++col, ++i) {
        fn(i, base + (col >> col_shift), row, col);
      }
    }
  }
}

/// Shape of the next coarser level: 2x2 aggregates, except that a direction
/// whose mean conductance per edge is under half the other's stays
/// uncoarsened. Long thin cells couple strongly only across their short
/// side, and 2x2 aggregates of them leave modes neither the smoother nor
/// the coarse level reduces; coarsening only the strong direction brings
/// the levels back toward square.
GridDims coarse_dims(const GridStencil& fine) {
  const GridDims d = fine.dims;
  const auto mean = [&](const std::vector<double>& g, std::size_t edges) {
    return std::accumulate(g.begin(), g.end(), 0.0) /
           static_cast<double>(std::max<std::size_t>(1, fine.layers * edges));
  };
  const double east = mean(fine.east, d.rows * (d.cols - 1));
  const double north = mean(fine.north, (d.rows - 1) * d.cols);
  const bool cols = d.cols > 1 && !(d.rows > 1 && east < 0.5 * north);
  const bool rows = d.rows > 1 && !(d.cols > 1 && north < 0.5 * east);
  return {rows ? (d.rows + 1) / 2 : d.rows, cols ? (d.cols + 1) / 2 : d.cols};
}

/// Galerkin coarse stencil P^T G P for piecewise-constant aggregation: a
/// coarse conductance sums the fine conductances crossing between two
/// aggregates, and each conductance inside an aggregate leaves its diagonal.
GridStencil coarsen(const GridStencil& fine) {
  GridStencil coarse(coarse_dims(fine), fine.layers);
  const bool pair_rows = coarse.dims.rows < fine.dims.rows;
  const bool pair_cols = coarse.dims.cols < fine.dims.cols;
  const std::size_t fp = fine.pad();
  const std::size_t cp = coarse.pad();
  for_each_aggregated_node(
      fine, coarse,
      [&](std::size_t i, std::size_t k, std::size_t row, std::size_t col) {
        // An even column (row) of a paired level shares its aggregate with
        // its east (north) neighbour.
        const double east = fine.east[fp + i];
        const double north = fine.north[fp + i];
        const bool east_inside = pair_cols && col % 2 == 0;
        const bool north_inside = pair_rows && row % 2 == 0;
        coarse.diag[cp + k] += fine.diag[fp + i] -
                               2.0 * ((east_inside ? east : 0.0) +
                                      (north_inside ? north : 0.0));
        coarse.east[cp + k] += east_inside ? 0.0 : east;
        coarse.north[cp + k] += north_inside ? 0.0 : north;
        coarse.up[cp + k] += fine.up[fp + i];
      });
  return coarse;
}

/// Factors every vertical column's tridiagonal block (Thomas elimination
/// upward) and allocates the work vectors.
Level::Level(GridStencil stencil)
    : g(std::move(stencil)),
      inv_pivot(g.padded_size()),
      b(g.padded_size()),
      x(g.padded_size()),
      r(g.padded_size()) {
  const double* diag = g.diag.data() + g.pad();
  const double* up = g.up.data() + g.pad();
  double* inv = nodes_of(inv_pivot, g);
  const auto cells = static_cast<std::ptrdiff_t>(g.dims.cells());
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(g.nodes()); ++i) {
    // Layer 0 reads the zero padding below it: its pivot is the diagonal.
    const double below = up[i - cells];
    inv[i] = 1.0 / (diag[i] - below * (below * inv[i - cells]));
  }
}

/// dst = T^-1 src, with T the vertical-column blocks of the level's
/// stencil: elimination up each column, then back substitution down it.
/// Node pointers; dst may alias src.
void column_solve(const Level& level, const double* src, double* dst) {
  const GridStencil& g = level.g;
  const auto cells = static_cast<std::ptrdiff_t>(g.dims.cells());
  const auto n = static_cast<std::ptrdiff_t>(g.nodes());
  const double* up = g.up.data() + g.pad();
  const double* inv = level.inv_pivot.data() + g.pad();
  for (std::ptrdiff_t o = 0; o < n; o += cells) {  // layer by layer, upward
    for (std::ptrdiff_t j = o; j < o + cells; ++j) {
      dst[j] = (src[j] + up[j - cells] * dst[j - cells]) * inv[j];
    }
  }
  for (std::ptrdiff_t o = n - 2 * cells; o >= 0; o -= cells) {  // downward
    for (std::ptrdiff_t j = o; j < o + cells; ++j) {
      dst[j] += up[j] * inv[j] * dst[j + cells];
    }
  }
}

/// level.r = level.b - G level.x.
void residual(Level& level) {
  level.g.apply(level.x, level.r);
  double* r = nodes_of(level.r, level.g);
  const double* b = nodes_of(level.b, level.g);
  for (std::size_t i = 0; i < level.g.nodes(); ++i) r[i] = b[i] - r[i];
}

/// One V(1,1) cycle: levels[k].x = B levels[k].b, with B the symmetric
/// multigrid preconditioner of level k.
void v_cycle(std::vector<Level>& levels, std::size_t k) {
  Level& level = levels[k];
  const std::size_t n = level.g.nodes();
  const double* b = nodes_of(level.b, level.g);
  double* x = nodes_of(level.x, level.g);
  column_solve(level, b, x);
  // At 1x1 the single column is the whole level, so that solve is exact.
  if (k + 1 == levels.size()) return;
  Level& coarse = levels[k + 1];
  for (std::size_t i = 0; i < n; ++i) x[i] *= kColumnDamping;

  residual(level);
  double* coarse_b = nodes_of(coarse.b, coarse.g);
  std::fill(coarse_b, coarse_b + coarse.g.nodes(), 0.0);
  const double* r = nodes_of(level.r, level.g);
  for_each_aggregated_node(
      level.g, coarse.g, [&](std::size_t i, std::size_t c, auto, auto) {
        coarse_b[c] += r[i];
      });
  v_cycle(levels, k + 1);
  const double* coarse_x = nodes_of(coarse.x, coarse.g);
  for_each_aggregated_node(
      level.g, coarse.g,
      [&](std::size_t i, std::size_t c, auto, auto) { x[i] += coarse_x[c]; });

  residual(level);
  double* t = nodes_of(level.r, level.g);
  column_solve(level, t, t);
  for (std::size_t i = 0; i < n; ++i) x[i] += kColumnDamping * t[i];
}

/// Solves G x = b by conjugate gradient preconditioned with one V-cycle per
/// iteration. `b` holds the nodes; `x_padded` is both the initial guess
/// (warm start) and the output. CG's residual lives in the top level's
/// right side and its preconditioned residual in the top level's solution.
CgResult multigrid_cg(std::vector<Level>& levels, std::span<const double> b,
                      std::vector<double>& x_padded,
                      const CgOptions& options) {
  Level& top = levels.front();
  const GridStencil& g = top.g;
  const std::size_t n = g.nodes();
  std::vector<double> p_padded(g.padded_size(), 0.0);
  std::vector<double> ap_padded(g.padded_size(), 0.0);
  double* x = nodes_of(x_padded, g);
  double* r = nodes_of(top.b, g);
  const double* z = nodes_of(top.x, g);
  double* p = nodes_of(p_padded, g);
  const double* ap = nodes_of(ap_padded, g);

  g.apply(x_padded, ap_padded);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - ap[i];
  const auto dot = [n](const double* u, const double* v) {
    return std::inner_product(u, u + n, v, 0.0);
  };
  const double b_norm = std::sqrt(dot(b.data(), b.data()));
  const double stop = options.tolerance * (b_norm > 0.0 ? b_norm : 1.0);

  CgResult result;
  double r_norm = 0.0;
  double rz = 0.0;
  for (std::size_t iter = 0;; ++iter) {
    r_norm = std::sqrt(dot(r, r));
    if (r_norm <= stop) {
      result.converged = true;
      break;
    }
    if (iter == options.max_iterations) break;
    v_cycle(levels, 0);
    const double rz_next = dot(r, z);
    const double beta = iter == 0 ? 0.0 : rz_next / rz;  // p starts at z
    rz = rz_next;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
    g.apply(p_padded, ap_padded);
    const double p_ap = dot(p, ap);
    if (p_ap <= 0.0) break;  // loss of positive-definiteness (numerical)
    const double alpha = rz / p_ap;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
    }
    result.iterations = iter + 1;
  }
  result.relative_residual = b_norm > 0.0 ? r_norm / b_norm : r_norm;
  return result;
}

}  // namespace

ThermalField::ThermalField(std::size_t layers, GridDims dims,
                           std::vector<double> temps_c)
    : layers_(layers), dims_(dims), temps_c_(std::move(temps_c)) {}

double ThermalField::layer_max(std::size_t layer) const {
  double m = temps_c_.at(layer * dims_.cells());
  for (std::size_t i = 0; i < dims_.cells(); ++i) {
    m = std::max(m, temps_c_[layer * dims_.cells() + i]);
  }
  return m;
}

GridThermalSolver::GridThermalSolver(const LayerStack& stack,
                                     GridSolverConfig config)
    : stack_(&stack), config_(config) {
  stack.validate();
}

ThermalResult GridThermalSolver::solve(const ChipletSystem& system,
                                       const Floorplan& floorplan) {
  return solve_impl(system, floorplan, nullptr);
}

ThermalResult GridThermalSolver::solve_with_field(const ChipletSystem& system,
                                                  const Floorplan& floorplan,
                                                  ThermalField& field_out) {
  return solve_impl(system, floorplan, &field_out);
}

ThermalResult GridThermalSolver::solve_impl(const ChipletSystem& system,
                                            const Floorplan& floorplan,
                                            ThermalField* field_out) {
  const Timer timer;
  ThermalGridModel model(*stack_, system, config_.dims);
  std::vector<Level> levels;
  levels.emplace_back(model.build_stencil(floorplan));
  while (levels.back().g.dims.cells() > 1) {
    levels.emplace_back(coarsen(levels.back().g));
  }
  const std::vector<double> p = model.build_power(floorplan);
  const GridStencil& g = levels.front().g;

  // Delta-T over padded nodes, as the stencil reads it.
  std::vector<double> dt(g.padded_size(), 0.0);
  if (config_.warm_start && last_solution_.size() == dt.size()) {
    dt = last_solution_;
  }

  ThermalResult result;
  result.cg = multigrid_cg(levels, p, dt, config_.cg);
  ++num_solves_;
  if (robust::fault_point("solver_diverge")) result.cg.converged = false;
  if (!result.cg.converged) {
    // Graceful degradation: retry once from a cold start (the warm-start
    // iterate may be the problem) with a 4x iteration budget, and report the
    // residual instead of silently returning a garbage field. The fault site
    // above only flips the flag, so under injection this path re-derives the
    // same converged solution from zero.
    RLPLAN_COUNTER_INC("thermal.cg_fallbacks");
    std::fill(dt.begin(), dt.end(), 0.0);
    CgOptions fallback = config_.cg;
    fallback.max_iterations *= 4;
    result.cg = multigrid_cg(levels, p, dt, fallback);
    ++num_solves_;
    ++result.fallback_resolves;
    if (!result.cg.converged) {
      result.degraded = true;
      RLPLAN_COUNTER_INC("robust.degraded");
      RLPLAN_WARN << "grid solver: CG failed to converge after fallback "
                  << "(relative residual " << result.cg.relative_residual
                  << " after " << result.cg.iterations << " iterations)";
    }
  }
  if (config_.warm_start) last_solution_ = dt;

  const double ambient = stack_->ambient_c();
  const double* rise = nodes_of(dt, g);
  std::vector<double> temps_c(rise, rise + g.nodes());
  for (double& t : temps_c) t += ambient;

  const ThermalField field(stack_->num_layers(), config_.dims,
                           std::move(temps_c));
  const std::size_t chiplet_layer = stack_->chiplet_layer_index();
  result.chiplet_temp_c =
      chiplet_peak_temps(field, model, system, floorplan, chiplet_layer);

  result.max_temp_c = ambient;
  for (double t : result.chiplet_temp_c) {
    result.max_temp_c = std::max(result.max_temp_c, t);
  }
  result.solve_seconds = timer.seconds();
  if (field_out != nullptr) *field_out = field;
  return result;
}

std::vector<double> chiplet_peak_temps(const ThermalField& field,
                                       const ThermalGridModel& model,
                                       const ChipletSystem& system,
                                       const Floorplan& floorplan,
                                       std::size_t chiplet_layer) {
  std::vector<double> temps(system.num_chiplets());
  for (std::size_t i = 0; i < system.num_chiplets(); ++i) {
    if (!floorplan.is_placed(i)) {
      temps[i] = field.at(chiplet_layer, 0, 0);  // ~ambient baseline
      continue;
    }
    const Rect r = floorplan.rect_of(i);
    // Cells outside the footprint's range are covered by at most a
    // rounding error, far below the 0.5 cut.
    const CellRange cells = model.footprint_cells(r);
    double peak = -1e300;
    bool found = false;
    for (std::size_t row = cells.row0; row < cells.row1; ++row) {
      for (std::size_t col = cells.col0; col < cells.col1; ++col) {
        if (model.coverage_fraction(row, col, r) < 0.5) continue;
        peak = std::max(peak, field.at(chiplet_layer, row, col));
        found = true;
      }
    }
    if (!found) {
      // Footprint smaller than one cell: take the cell containing the
      // center, the first cell of its zero-size footprint.
      const Point c = r.center();
      const CellRange center = model.footprint_cells({c.x, c.y, 0.0, 0.0});
      peak = field.at(chiplet_layer, center.row0, center.col0);
    }
    temps[i] = peak;
  }
  return temps;
}

}  // namespace rlplan::thermal
