// Offline characterization of the fast thermal model (Section II-C).
//
// Exactly as the paper characterizes against HotSpot, we characterize against
// GridThermalSolver:
//
//  * Self table — "setting a chiplet's power to a non-zero value and run
//    HotSpot to create a 2D self-thermal resistance table": for every (w, h)
//    on the axis grid, solve a single centered die dissipating 10 W and
//    record peak-rise-per-watt (the network is linear in power, so the
//    reference power only scales the solve).
//
//  * Mutual table — "characterize the mutual-thermal resistance by a 1D table
//    with respect to the distance between power source and grid location":
//    solve one 2 mm square source at the interposer center, then bin the
//    chiplet-layer temperature field by distance from the source, one grid
//    cell pitch per bin, and average rise-per-watt in each bin. The centered
//    source gives the clean free-field kernel the method-of-images
//    evaluation mirrors.
//
//  * Position table — only when images are off and position_points >= 2:
//    the measured C(cx, cy) factors that replace the images as the boundary
//    treatment.
//
// Tables are specific to a (layer stack, interposer size) pair; cache them
// with FastThermalModel::save/load.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "robust/robust.h"
#include "thermal/fast_model.h"
#include "thermal/grid_solver.h"
#include "thermal/layer_stack.h"

namespace rlplan::thermal {

struct CharacterizationConfig {
  GridSolverConfig solver{};
  /// Self-table axis points per dimension, spanning 2 mm to the smaller of
  /// 30 mm and 80% of the interposer side.
  std::size_t auto_axis_points = 10;
  /// Geometric (log-spaced) auto axes concentrate samples on small dies,
  /// where R_self(w, h) ~ 1/area is steeply convex and linear interpolation
  /// on a coarse grid badly overestimates.
  bool geometric_axes = true;
  /// Position-correction sweep (only without images): an 8 mm reference die
  /// is solved at position_points x position_points centers and the rise
  /// ratio to the centered solve becomes the C(cx, cy) factor table. Below 2
  /// disables the correction (paper-minimal tables; several-K errors for
  /// edge dies).
  std::size_t position_points = 7;
  FastModelConfig model_config{};
  /// Cooperative stop, polled before every probe solve. A half-built table
  /// set is useless, so characterization has no best-so-far: stopping throws
  /// robust::CancelledError instead.
  robust::RunControl control{};
};

struct CharacterizationReport {
  std::size_t self_solves = 0;
  std::size_t mutual_solves = 0;
  std::size_t position_solves = 0;
  double total_seconds = 0.0;
};

class ThermalCharacterizer {
 public:
  using Progress = std::function<void(std::size_t done, std::size_t total)>;

  /// `stack` must outlive the characterizer.
  ThermalCharacterizer(const LayerStack& stack,
                       CharacterizationConfig config = {});

  /// Builds a FastThermalModel for the given interposer footprint.
  /// `progress` (optional) is called after each probe solve with done =
  /// 1, 2, ..., total, where total is fixed up front and equals the
  /// report's self + mutual + position solves.
  FastThermalModel characterize(double interposer_w_mm,
                                double interposer_h_mm,
                                const Progress& progress = {});

  const CharacterizationReport& report() const { return report_; }

 private:
  SelfResistanceTable build_self_table(double iw, double ih,
                                       const std::vector<double>& widths,
                                       const std::vector<double>& heights);
  MutualResistanceTable build_mutual_table(double iw, double ih);
  BilinearTable2D build_position_correction(double iw, double ih);
  /// Counts one finished probe solve in `counter` (a report_ field) and
  /// reports progress.
  void count_solve(std::size_t& counter);

  const LayerStack* stack_;
  CharacterizationConfig config_;
  CharacterizationReport report_;
  BilinearTable2D droop_table_;  // built alongside the self table
  // The running characterize() call's callback and solve total.
  const Progress* progress_ = nullptr;
  std::size_t total_solves_ = 0;
};

/// Helper: evenly spaced axis of `n` points over [lo, hi].
std::vector<double> linspace(double lo, double hi, std::size_t n);

/// Helper: geometrically spaced axis of `n` points over [lo, hi], lo > 0.
std::vector<double> geomspace(double lo, double hi, std::size_t n);

}  // namespace rlplan::thermal
