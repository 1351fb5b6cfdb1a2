// Test-only reference for the ground-truth grid solver: the CSR assembly and
// Jacobi-preconditioned conjugate gradient that GridThermalSolver ran before
// its stencil operator and multigrid preconditioner. build_conductance()
// stamps the same conductance formulas as ThermalGridModel::build_stencil()
// as triplets, sorts and merges them; solve() runs Jacobi-PCG on the result
// and extracts chiplet peaks by scanning every cell. grid_solver_test
// compares the library against it: the stencil apply within 1e-12 relative
// of the CSR multiply, and solved temperatures against an oracle solve at a
// tight tolerance.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <numeric>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/chiplet.h"
#include "core/floorplan.h"
#include "thermal/grid_model.h"
#include "thermal/grid_solver.h"
#include "thermal/layer_stack.h"

namespace rlplan::thermal::grid_oracle {

/// Compressed sparse row matrix. Built once from accumulated triplets;
/// duplicate (row, col) entries are summed during finalization.
class SparseMatrix {
 public:
  explicit SparseMatrix(std::size_t n = 0) : n_(n) {}

  std::size_t rows() const { return n_; }
  std::size_t nnz() const { return values_.size(); }

  /// Accumulate A[r][c] += v. Only valid before finalize().
  void add(std::size_t r, std::size_t c, double v) {
    if (finalized_) throw std::logic_error("SparseMatrix::add after finalize");
    assert(r < n_ && c < n_);
    trip_row_.push_back(r);
    trip_col_.push_back(c);
    trip_val_.push_back(v);
  }

  /// Adds the 2x2 block [ g -g; -g  g ] at (a, b): one conductance between
  /// nodes a and b.
  void stamp_conductance(std::size_t a, std::size_t b, double g) {
    add(a, a, g);
    add(b, b, g);
    add(a, b, -g);
    add(b, a, -g);
  }

  /// Adds g to the diagonal (boundary conductance to ambient).
  void stamp_ground(std::size_t a, double g) { add(a, a, g); }

  /// Sorts, merges duplicates, builds CSR. Idempotent.
  void finalize() {
    if (finalized_) return;
    std::vector<std::size_t> order(trip_row_.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [this](std::size_t i, std::size_t j) {
      if (trip_row_[i] != trip_row_[j]) return trip_row_[i] < trip_row_[j];
      return trip_col_[i] < trip_col_[j];
    });
    std::vector<std::size_t> entry_row;
    for (const std::size_t i : order) {
      const std::size_t r = trip_row_[i];
      const std::size_t c = trip_col_[i];
      if (!entry_row.empty() && entry_row.back() == r && col_idx_.back() == c) {
        values_.back() += trip_val_[i];
      } else {
        entry_row.push_back(r);
        col_idx_.push_back(c);
        values_.push_back(trip_val_[i]);
      }
    }
    row_ptr_.assign(n_ + 1, 0);
    for (const std::size_t r : entry_row) ++row_ptr_[r + 1];
    for (std::size_t r = 0; r < n_; ++r) row_ptr_[r + 1] += row_ptr_[r];
    trip_row_.clear();
    trip_col_.clear();
    trip_val_.clear();
    finalized_ = true;
  }

  /// y = A x. Requires finalize().
  void multiply(std::span<const double> x, std::span<double> y) const {
    assert(finalized_ && x.size() == n_ && y.size() == n_);
    for (std::size_t r = 0; r < n_; ++r) {
      double acc = 0.0;
      for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
        acc += values_[k] * x[col_idx_[k]];
      }
      y[r] = acc;
    }
  }

  /// Entry lookup; 0 when absent. Requires finalize().
  double at(std::size_t r, std::size_t c) const {
    assert(finalized_);
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      if (col_idx_[k] == c) return values_[k];
    }
    return 0.0;
  }

  std::vector<double> diagonal() const {
    std::vector<double> d(n_);
    for (std::size_t r = 0; r < n_; ++r) d[r] = at(r, r);
    return d;
  }

  /// Max |A[r][c] - A[c][r]| over stored entries.
  double symmetry_error() const {
    double worst = 0.0;
    for (std::size_t r = 0; r < n_; ++r) {
      for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
        worst = std::max(worst, std::abs(values_[k] - at(col_idx_[k], r)));
      }
    }
    return worst;
  }

  /// Calls fn(row, col, value) for every stored entry.
  template <typename Fn>
  void for_each_entry(Fn&& fn) const {
    for (std::size_t r = 0; r < n_; ++r) {
      for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
        fn(r, col_idx_[k], values_[k]);
      }
    }
  }

 private:
  std::size_t n_ = 0;
  bool finalized_ = false;
  std::vector<std::size_t> trip_row_, trip_col_;
  std::vector<double> trip_val_;
  std::vector<std::size_t> row_ptr_, col_idx_;
  std::vector<double> values_;
};

/// Solves A x = b for SPD A with Jacobi (diagonal) preconditioning. `x` is
/// both the initial guess and the output.
inline CgResult conjugate_gradient(const SparseMatrix& a,
                                   std::span<const double> b,
                                   std::span<double> x,
                                   const CgOptions& options = {}) {
  const std::size_t n = a.rows();
  assert(b.size() == n && x.size() == n);
  const auto dot = [n](std::span<const double> u, std::span<const double> v) {
    double s = 0.0;
    for (std::size_t i = 0; i < n; ++i) s += u[i] * v[i];
    return s;
  };
  const std::vector<double> diag = a.diagonal();
  std::vector<double> inv_diag(n);
  for (std::size_t i = 0; i < n; ++i) {
    inv_diag[i] = diag[i] != 0.0 ? 1.0 / diag[i] : 1.0;
  }

  std::vector<double> r(n), z(n), p(n), ap(n);
  a.multiply(x, ap);
  for (std::size_t i = 0; i < n; ++i) r[i] = b[i] - ap[i];

  const double b_norm = std::sqrt(dot(b, b));
  const double stop = options.tolerance * (b_norm > 0.0 ? b_norm : 1.0);

  CgResult result;
  double r_norm = std::sqrt(dot(r, r));
  if (r_norm <= stop) {
    result.converged = true;
    result.relative_residual = b_norm > 0.0 ? r_norm / b_norm : 0.0;
    return result;
  }

  for (std::size_t i = 0; i < n; ++i) z[i] = inv_diag[i] * r[i];
  p = z;
  double rz = dot(r, z);
  for (std::size_t iter = 1; iter <= options.max_iterations; ++iter) {
    a.multiply(p, ap);
    const double p_ap = dot(p, ap);
    if (p_ap <= 0.0) break;
    const double alpha = rz / p_ap;
    for (std::size_t i = 0; i < n; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
    }
    r_norm = std::sqrt(dot(r, r));
    result.iterations = iter;
    if (r_norm <= stop) {
      result.converged = true;
      break;
    }
    for (std::size_t i = 0; i < n; ++i) z[i] = inv_diag[i] * r[i];
    const double rz_next = dot(r, z);
    const double beta = rz_next / rz;
    rz = rz_next;
    for (std::size_t i = 0; i < n; ++i) p[i] = z[i] + beta * p[i];
  }
  result.relative_residual = b_norm > 0.0 ? r_norm / b_norm : r_norm;
  return result;
}

/// The conductance matrix of `model` (built over `stack`) for one placement,
/// stamped conductance by conductance.
inline SparseMatrix build_conductance(const ThermalGridModel& model,
                                      const LayerStack& stack,
                                      const Floorplan& floorplan) {
  const GridDims dims = model.dims();
  const std::size_t n_layers = stack.num_layers();
  const double dx = model.dx();
  const double dy = model.dy();
  const double cell_area = dx * dy;
  SparseMatrix g(model.num_nodes());

  const std::size_t chiplet_layer = stack.chiplet_layer_index();
  const std::vector<double> k_chiplet =
      model.chiplet_layer_conductivity(floorplan);
  const auto cell_k = [&](std::size_t layer, std::size_t cell_idx) {
    if (layer == chiplet_layer) return k_chiplet[cell_idx];
    return stack.layer(layer).material.conductivity;
  };

  for (std::size_t l = 0; l < n_layers; ++l) {
    const double t = stack.layer(l).thickness;
    for (std::size_t r = 0; r < dims.rows; ++r) {
      for (std::size_t c = 0; c < dims.cols; ++c) {
        const std::size_t idx = r * dims.cols + c;
        const double k_here = cell_k(l, idx);
        if (c + 1 < dims.cols) {
          const double r_half_here = (dx / 2.0) / (k_here * t * dy);
          const double r_half_east = (dx / 2.0) / (cell_k(l, idx + 1) * t * dy);
          g.stamp_conductance(model.node(l, r, c), model.node(l, r, c + 1),
                              1.0 / (r_half_here + r_half_east));
        }
        if (r + 1 < dims.rows) {
          const double r_half_here = (dy / 2.0) / (k_here * t * dx);
          const double r_half_north =
              (dy / 2.0) / (cell_k(l, idx + dims.cols) * t * dx);
          g.stamp_conductance(model.node(l, r, c), model.node(l, r + 1, c),
                              1.0 / (r_half_here + r_half_north));
        }
        if (l + 1 < n_layers) {
          const double t_up = stack.layer(l + 1).thickness;
          const double r_half_here = (t / 2.0) / (k_here * cell_area);
          const double r_half_up =
              (t_up / 2.0) / (cell_k(l + 1, idx) * cell_area);
          g.stamp_conductance(model.node(l, r, c), model.node(l + 1, r, c),
                              1.0 / (r_half_here + r_half_up));
        }
        if (l + 1 == n_layers) {
          const double r_half = (t / 2.0) / (k_here * cell_area);
          const double r_film = 1.0 / (stack.h_top() * cell_area);
          g.stamp_ground(model.node(l, r, c), 1.0 / (r_half + r_film));
        }
        if (l == 0 && stack.h_bottom() > 0.0) {
          const double r_half = (t / 2.0) / (k_here * cell_area);
          const double r_film = 1.0 / (stack.h_bottom() * cell_area);
          g.stamp_ground(model.node(l, r, c), 1.0 / (r_half + r_film));
        }
      }
    }
  }
  g.finalize();
  return g;
}

/// Per-chiplet peak temperature by scanning every chiplet-layer cell for
/// every chiplet (the library restricts each chiplet to its footprint's
/// cell range). Same rules as thermal::chiplet_peak_temps.
inline std::vector<double> chiplet_peak_temps_full_scan(
    const ThermalField& field, const ThermalGridModel& model,
    const ChipletSystem& system, const Floorplan& floorplan,
    std::size_t chiplet_layer) {
  const GridDims dims = model.dims();
  std::vector<double> temps(system.num_chiplets());
  for (std::size_t i = 0; i < system.num_chiplets(); ++i) {
    if (!floorplan.is_placed(i)) {
      temps[i] = field.at(chiplet_layer, 0, 0);
      continue;
    }
    const Rect r = floorplan.rect_of(i);
    double peak = -1e300;
    bool found = false;
    for (std::size_t row = 0; row < dims.rows; ++row) {
      for (std::size_t col = 0; col < dims.cols; ++col) {
        if (model.coverage_fraction(row, col, r) < 0.5) continue;
        peak = std::max(peak, field.at(chiplet_layer, row, col));
        found = true;
      }
    }
    if (!found) {
      const Point c = r.center();
      const double cw =
          system.interposer_width() / static_cast<double>(dims.cols);
      const double ch =
          system.interposer_height() / static_cast<double>(dims.rows);
      const auto col = static_cast<std::size_t>(std::clamp(
          std::floor(c.x / cw), 0.0, static_cast<double>(dims.cols - 1)));
      const auto row = static_cast<std::size_t>(std::clamp(
          std::floor(c.y / ch), 0.0, static_cast<double>(dims.rows - 1)));
      peak = field.at(chiplet_layer, row, col);
    }
    temps[i] = peak;
  }
  return temps;
}

struct Solution {
  ThermalField field;
  std::vector<double> chiplet_temp_c;
  CgResult cg;
};

/// Cold steady-state solve on the CSR operator with Jacobi-PCG.
inline Solution solve(const LayerStack& stack, const ChipletSystem& system,
                      const Floorplan& floorplan, GridDims dims,
                      const CgOptions& options) {
  const ThermalGridModel model(stack, system, dims);
  const SparseMatrix g = build_conductance(model, stack, floorplan);
  const std::vector<double> p = model.build_power(floorplan);
  std::vector<double> dt(model.num_nodes(), 0.0);
  Solution s;
  s.cg = conjugate_gradient(g, p, dt, options);
  for (double& v : dt) v += stack.ambient_c();
  s.field = ThermalField(stack.num_layers(), dims, std::move(dt));
  s.chiplet_temp_c = chiplet_peak_temps_full_scan(
      s.field, model, system, floorplan, stack.chiplet_layer_index());
  return s;
}

}  // namespace rlplan::thermal::grid_oracle
