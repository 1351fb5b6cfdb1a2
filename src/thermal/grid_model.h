// Grid discretization of the 2.5D package into a thermal RC network.
//
// Mirrors the HotSpot grid model [Huang et al., TVLSI'06]: every layer of the
// stack is discretized into rows x cols cells over the interposer footprint;
// adjacent cells exchange heat through lateral conductances, stacked cells
// through vertical conductances, and boundary cells leak to ambient through
// convection terms. Steady state: solve G * dT = P, temperatures relative to
// ambient.
//
// G is a 7-point stencil (GridStencil) filled in one pass over the nodes;
// tests/grid_solver_oracle.h keeps a CSR assembly of the same formulas.
//
// The chiplet layer is laterally heterogeneous: a cell's conductivity blends
// die material and fill material by footprint coverage fraction, which is
// what makes the problem placement-dependent (and the fast model an
// approximation).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/chiplet.h"
#include "core/floorplan.h"
#include "thermal/layer_stack.h"

namespace rlplan::thermal {

struct GridDims {
  std::size_t rows = 48;
  std::size_t cols = 48;

  std::size_t cells() const { return rows * cols; }
};

/// Symmetric conductance matrix G over layers x rows x cols nodes as a
/// 7-point stencil. Every array holds pad() zeros, one value per node (node
/// index layer * cells + row * cols + col), then pad() zeros again. A
/// neighbour that does not exist has conductance 0, so apply() reads every
/// neighbour of every node without a branch.
struct GridStencil {
  /// All-zero stencil of the given shape.
  GridStencil(GridDims shape, std::size_t n_layers)
      : dims(shape), layers(n_layers), diag(padded_size()),
        east(padded_size()), north(padded_size()), up(padded_size()) {}

  GridDims dims;
  std::size_t layers = 0;
  std::vector<double> diag;   ///< ground plus the incident conductances
  std::vector<double> east;   ///< to (layer, row, col + 1)
  std::vector<double> north;  ///< to (layer, row + 1, col)
  std::vector<double> up;     ///< to (layer + 1, row, col)

  std::size_t nodes() const { return layers * dims.cells(); }
  std::size_t pad() const { return dims.cells(); }
  /// Length of every padded per-node vector: stencil arrays and apply()'s
  /// operands alike.
  std::size_t padded_size() const { return nodes() + 2 * pad(); }

  /// y = G x on padded vectors. Writes y's nodes only; x's padding must be
  /// zero.
  void apply(std::span<const double> x, std::span<double> y) const;
};

/// Half-open cell range [row0, row1) x [col0, col1) that a footprint
/// touches. Cells outside it are covered by at most a rounding error.
struct CellRange {
  std::size_t row0, row1, col0, col1;
};

/// Builds the conductance stencil and power vector for one placement.
class ThermalGridModel {
 public:
  /// `stack` and `system` must outlive the model.
  ThermalGridModel(const LayerStack& stack, const ChipletSystem& system,
                   GridDims dims);

  GridDims dims() const { return dims_; }
  std::size_t num_layers() const { return stack_->num_layers(); }
  std::size_t num_nodes() const { return num_layers() * dims_.cells(); }

  /// Node index of cell (row, col) in layer `layer`.
  std::size_t node(std::size_t layer, std::size_t row, std::size_t col) const {
    return layer * dims_.cells() + row * dims_.cols + col;
  }

  /// Cell pitch in metres.
  double dx() const { return dx_; }
  double dy() const { return dy_; }

  /// Geometric center of cell (row, col) in millimetres (floorplan units).
  Point cell_center_mm(std::size_t row, std::size_t col) const;

  /// Fraction of cell (row, col) covered by `footprint` (mm rect), in [0,1].
  double coverage_fraction(std::size_t row, std::size_t col,
                           const Rect& footprint_mm) const;

  /// Cells a footprint (mm rect) can cover, clamped to the grid.
  CellRange footprint_cells(const Rect& footprint_mm) const;

  /// Conductance stencil for the given placement. Unplaced chiplets
  /// contribute neither conductivity nor power.
  GridStencil build_stencil(const Floorplan& floorplan) const;

  /// Power injection vector (W per node) in the chiplet layer.
  std::vector<double> build_power(const Floorplan& floorplan) const;

  /// Effective conductivity of each chiplet-layer cell for the placement
  /// (coverage-weighted blend of die and fill conductivity). Exposed for
  /// tests and diagnostics.
  std::vector<double> chiplet_layer_conductivity(
      const Floorplan& floorplan) const;

 private:
  const LayerStack* stack_;
  const ChipletSystem* system_;
  GridDims dims_;
  double cell_w_mm_ = 0.0;
  double cell_h_mm_ = 0.0;
  double dx_ = 0.0;  // m
  double dy_ = 0.0;  // m
  double cell_area_ = 0.0;  // m^2
};

}  // namespace rlplan::thermal
