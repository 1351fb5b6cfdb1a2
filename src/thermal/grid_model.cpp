#include "thermal/grid_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace rlplan::thermal {

namespace {
constexpr double kMmToM = 1e-3;
}

ThermalGridModel::ThermalGridModel(const LayerStack& stack,
                                   const ChipletSystem& system, GridDims dims)
    : stack_(&stack), system_(&system), dims_(dims) {
  stack.validate();
  if (dims_.rows < 2 || dims_.cols < 2) {
    throw std::invalid_argument("ThermalGridModel: grid must be >= 2x2");
  }
  cell_w_mm_ = system.interposer_width() / static_cast<double>(dims_.cols);
  cell_h_mm_ = system.interposer_height() / static_cast<double>(dims_.rows);
  dx_ = system.interposer_width() * kMmToM / static_cast<double>(dims_.cols);
  dy_ = system.interposer_height() * kMmToM / static_cast<double>(dims_.rows);
  cell_area_ = dx_ * dy_;
}

Point ThermalGridModel::cell_center_mm(std::size_t row,
                                       std::size_t col) const {
  return {(static_cast<double>(col) + 0.5) * cell_w_mm_,
          (static_cast<double>(row) + 0.5) * cell_h_mm_};
}

double ThermalGridModel::coverage_fraction(std::size_t row, std::size_t col,
                                           const Rect& footprint_mm) const {
  const Rect cell{static_cast<double>(col) * cell_w_mm_,
                  static_cast<double>(row) * cell_h_mm_, cell_w_mm_,
                  cell_h_mm_};
  return cell.intersection_area(footprint_mm) / cell.area();
}

CellRange ThermalGridModel::footprint_cells(const Rect& footprint_mm) const {
  const auto index = [](double v, double limit) {
    return static_cast<std::size_t>(std::clamp(v, 0.0, limit));
  };
  const Rect& r = footprint_mm;
  const auto rows = static_cast<double>(dims_.rows);
  const auto cols = static_cast<double>(dims_.cols);
  return {index(std::floor(r.y / cell_h_mm_), rows - 1),
          index(std::ceil(r.top() / cell_h_mm_), rows),
          index(std::floor(r.x / cell_w_mm_), cols - 1),
          index(std::ceil(r.right() / cell_w_mm_), cols)};
}

std::vector<double> ThermalGridModel::chiplet_layer_conductivity(
    const Floorplan& floorplan) const {
  const double k_die = stack_->layer(stack_->chiplet_layer_index())
                           .material.conductivity;
  const double k_fill = stack_->fill_material().conductivity;
  std::vector<double> k(dims_.cells(), k_fill);

  for (std::size_t i = 0; i < system_->num_chiplets(); ++i) {
    if (!floorplan.is_placed(i)) continue;
    const Rect r = floorplan.rect_of(i);
    const CellRange cells = footprint_cells(r);
    for (std::size_t row = cells.row0; row < cells.row1; ++row) {
      for (std::size_t col = cells.col0; col < cells.col1; ++col) {
        const double f = coverage_fraction(row, col, r);
        if (f <= 0.0) continue;
        const std::size_t idx = row * dims_.cols + col;
        // Blend toward die conductivity; overlapping chiplets (illegal but
        // representable) saturate at the die value.
        k[idx] = std::min(k_die, k[idx] + f * (k_die - k_fill));
      }
    }
  }
  return k;
}

void GridStencil::apply(std::span<const double> x_padded,
                        std::span<double> y_padded) const {
  assert(x_padded.size() == padded_size() && y_padded.size() == padded_size());
  const auto n = static_cast<std::ptrdiff_t>(nodes());
  const auto c = static_cast<std::ptrdiff_t>(dims.cols);
  const auto l = static_cast<std::ptrdiff_t>(dims.cells());
  const std::size_t p = pad();
  const double* x = x_padded.data() + p;
  double* y = y_padded.data() + p;
  const double* d = diag.data() + p;
  const double* e = east.data() + p;
  const double* nn = north.data() + p;
  const double* u = up.data() + p;
  for (std::ptrdiff_t i = 0; i < n; ++i) {
    y[i] = d[i] * x[i] - (e[i] * x[i + 1] + e[i - 1] * x[i - 1]) -
           (nn[i] * x[i + c] + nn[i - c] * x[i - c]) -
           (u[i] * x[i + l] + u[i - l] * x[i - l]);
  }
}

GridStencil ThermalGridModel::build_stencil(const Floorplan& floorplan) const {
  const std::size_t n_layers = stack_->num_layers();
  const std::size_t cells = dims_.cells();
  GridStencil g(dims_, n_layers);

  const std::size_t chiplet_layer = stack_->chiplet_layer_index();
  const std::vector<double> k_chiplet = chiplet_layer_conductivity(floorplan);

  // Per-layer, per-cell conductivity, and the resistance of half a cell
  // across x, across y and through the layer.
  const auto cell_k = [&](std::size_t layer, std::size_t cell_idx) {
    if (layer == chiplet_layer) return k_chiplet[cell_idx];
    return stack_->layer(layer).material.conductivity;
  };
  const auto t = [&](std::size_t l) { return stack_->layer(l).thickness; };
  const auto half_x = [&](std::size_t l, std::size_t idx) {
    return (dx_ / 2.0) / (cell_k(l, idx) * t(l) * dy_);
  };
  const auto half_y = [&](std::size_t l, std::size_t idx) {
    return (dy_ / 2.0) / (cell_k(l, idx) * t(l) * dx_);
  };
  const auto half_z = [&](std::size_t l, std::size_t idx) {
    return (t(l) / 2.0) / (cell_k(l, idx) * cell_area_);
  };
  const auto film = [&](double h) { return 1.0 / (h * cell_area_); };

  // Node-0 views. west, south and down are the same arrays seen from the
  // other end of each conductance; the padding makes them 0 at the edges.
  double* diag = g.diag.data() + g.pad();
  double* east = g.east.data() + g.pad();
  double* north = g.north.data() + g.pad();
  double* up = g.up.data() + g.pad();
  const double* west = east - 1;
  const double* south = north - dims_.cols;
  const double* down = up - cells;

  std::size_t i = 0;
  for (std::size_t l = 0; l < n_layers; ++l) {
    for (std::size_t r = 0; r < dims_.rows; ++r) {
      for (std::size_t c = 0; c < dims_.cols; ++c, ++i) {
        const std::size_t idx = r * dims_.cols + c;
        // Neighbours couple through two half-cell resistances in series.
        if (c + 1 < dims_.cols) {
          east[i] = 1.0 / (half_x(l, idx) + half_x(l, idx + 1));
        }
        if (r + 1 < dims_.rows) {
          north[i] = 1.0 / (half_y(l, idx) + half_y(l, idx + dims_.cols));
        }
        if (l + 1 < n_layers) {
          up[i] = 1.0 / (half_z(l, idx) + half_z(l + 1, idx));
        }
        // Top convection and bottom board leakage: the half cell in series
        // with the surface film.
        double ground = 0.0;
        if (l + 1 == n_layers) {
          ground += 1.0 / (half_z(l, idx) + film(stack_->h_top()));
        }
        if (l == 0 && stack_->h_bottom() > 0.0) {
          ground += 1.0 / (half_z(l, idx) + film(stack_->h_bottom()));
        }
        // The west, south and lower neighbours were filled before node i.
        diag[i] = ground + (east[i] + west[i]) + (north[i] + south[i]) +
                  (up[i] + down[i]);
      }
    }
  }
  return g;
}

std::vector<double> ThermalGridModel::build_power(
    const Floorplan& floorplan) const {
  std::vector<double> p(num_nodes(), 0.0);
  const std::size_t chiplet_layer = stack_->chiplet_layer_index();

  for (std::size_t i = 0; i < system_->num_chiplets(); ++i) {
    if (!floorplan.is_placed(i)) continue;
    const Chiplet& chip = system_->chiplet(i);
    if (chip.power <= 0.0) continue;
    const Rect r = floorplan.rect_of(i);
    const double cell_area_mm2 = cell_w_mm_ * cell_h_mm_;
    const CellRange cells = footprint_cells(r);

    std::vector<std::pair<std::size_t, double>> contributions;
    double injected = 0.0;
    for (std::size_t row = cells.row0; row < cells.row1; ++row) {
      for (std::size_t col = cells.col0; col < cells.col1; ++col) {
        const double f = coverage_fraction(row, col, r);
        if (f <= 0.0) continue;
        const double covered_mm2 = f * cell_area_mm2;
        const double watts = chip.power * covered_mm2 / r.area();
        contributions.emplace_back(node(chiplet_layer, row, col), watts);
        injected += watts;
      }
    }
    // Clipping at interposer edges can drop a sliver of footprint; rescale so
    // total injected power is exact (conservation matters for accuracy).
    const double scale =
        injected > 0.0 ? chip.power / injected : 0.0;
    for (const auto& [idx, watts] : contributions) {
      p[idx] += watts * scale;
    }
  }
  return p;
}

}  // namespace rlplan::thermal
