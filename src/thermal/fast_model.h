// Fast thermal evaluation (the paper's core thermal contribution).
//
// Treats the package thermal network as linear and time-invariant: the
// temperature of chiplet i superposes its own heating (self-thermal
// resistance, a 2D table over die footprint) and the heating caused by every
// other die (mutual-thermal resistance, a 1D table over center-to-center
// distance):
//
//   T_i = T_ambient + R_self(w_i, h_i) * P_i + sum_{j != i} R_mutual(d_ij) * P_j
//
// Evaluation is a handful of table lookups per chiplet — this is where the
// paper's 127x speed-up over full HotSpot solves comes from. The model is
// approximate because the real network is *not* exactly LTI in placement:
// chiplet-layer conductivity depends on where every die sits, and dies near
// interposer edges spread heat worse than the center-characterized tables
// assume. Table II quantifies exactly this error.
//
// This class owns the tables and the per-die building blocks (probe grid,
// sub-source grid, self term). The mutual sum has one implementation, the
// SoA kernel's pair-row entry (thermal/soa_kernels.h), one (receiver,
// source) coupling row per call: evaluate() and evaluate_batch() sum its
// rows over whole floorplans (thermal/soa_snapshot.h), and the incremental
// engine (thermal/incremental.h) caches them per die pair.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/chiplet.h"
#include "core/floorplan.h"
#include "thermal/resistance_table.h"

namespace rlplan::parallel {
class ThreadPool;
}

namespace rlplan::thermal {

/// Source-to-probe distance of the fast model's kernel and self term. The
/// sqrt-form is ~3x cheaper than std::hypot and auto-vectorizes; it may
/// differ from hypot by 1 ulp, far below the thermal model's accuracy.
inline double kernel_distance(double dx, double dy) {
  return std::sqrt(dx * dx + dy * dy);
}

struct FastModelConfig {
  /// Upper bound of source_subsamples and receiver_probes (both must lie in
  /// [1, kMaxSubsamples]): at most 256 probes per die and 2,304
  /// image-expanded points per source block.
  static constexpr int kMaxSubsamples = 16;
  /// Sub-sample each source die as n x n point sources for the mutual term
  /// (1 = paper-faithful single center source; >1 trades speed for accuracy
  /// on physically large dies). Swept by bench/ablation_tables.
  int source_subsamples = 2;
  /// Evaluate the receiver's temperature at an n x n grid of probe points
  /// inside its footprint and take the maximum ("distance between power
  /// source and grid location" per the paper). With 1, only the die center
  /// is probed, which underestimates dies whose hottest cell is the edge
  /// facing a hot neighbour.
  int receiver_probes = 3;
  /// Method-of-images boundary handling: decompose the characterized kernel
  /// into a uniform package-level floor plus a decaying free-field part, and
  /// superpose first-order mirror sources across the four package edges (and
  /// corner double-mirrors). Captures the boundary reflections a plain 1D
  /// distance table smears away. Applies to the mutual term and, through
  /// self-images, to off-center self heating. Mirrors have full strength:
  /// the grid model's package rim is adiabatic.
  bool use_images = true;
};

struct FastThermalResult {
  double max_temp_c = 0.0;
  std::vector<double> chiplet_temp_c;
  double eval_seconds = 0.0;
};

class FastThermalModel {
 public:
  FastThermalModel() = default;
  FastThermalModel(SelfResistanceTable self_table,
                   MutualResistanceTable mutual_table, double ambient_c,
                   FastModelConfig config = {});

  bool empty() const { return self_table_.empty() || mutual_table_.empty(); }
  double ambient_c() const { return ambient_c_; }
  const SelfResistanceTable& self_table() const { return self_table_; }
  const MutualResistanceTable& mutual_table() const { return mutual_table_; }
  const FastModelConfig& config() const { return config_; }

  /// Installs the optional position-correction factor table C(cx, cy):
  /// the self term becomes R_self(w, h) * C(center). An empty table (the
  /// default) means no correction — the paper-minimal configuration.
  void set_position_correction(BilinearTable2D table) {
    position_correction_ = std::move(table);
  }
  const BilinearTable2D& position_correction() const {
    return position_correction_;
  }
  bool has_position_correction() const {
    return !position_correction_.empty();
  }

  /// Installs the optional within-die droop table d(w, h) = corner rise /
  /// peak rise of an isolated die, used to attenuate the self term at
  /// off-center receiver probes. Empty (default) = no attenuation.
  void set_self_droop(BilinearTable2D table) {
    self_droop_ = std::move(table);
  }
  const BilinearTable2D& self_droop() const { return self_droop_; }

  /// Method-of-images geometry/floor (required when config.use_images):
  /// package extent in mm and the uniform rise floor in K/W that the
  /// decaying kernel sits on.
  void set_image_params(double package_w_mm, double package_h_mm,
                        double uniform_floor_k_per_w) {
    package_w_mm_ = package_w_mm;
    package_h_mm_ = package_h_mm;
    uniform_floor_ = uniform_floor_k_per_w;
  }
  double uniform_floor() const { return uniform_floor_; }
  double package_w_mm() const { return package_w_mm_; }
  double package_h_mm() const { return package_h_mm_; }

  /// Evaluates all placed chiplets' temperatures; unplaced chiplets read
  /// ambient and contribute no mutual heating. Builds one SoaSnapshot per
  /// call at the dispatched SIMD level (thermal/soa_snapshot.h documents
  /// the numerical contract). Safe for concurrent calls on a shared
  /// instance: the model holds no mutable state.
  FastThermalResult evaluate(const ChipletSystem& system,
                             const Floorplan& floorplan) const;

  /// Batched whole-floorplan evaluation: all candidates of `floorplans` (each
  /// over `system`) through the same SoA kernel as evaluate(), with the
  /// snapshot's bind-time constants and scratch amortized across candidates.
  /// When `pool` is given, candidate chunks fan out over its workers —
  /// results are index-aligned and independent of the thread count, and
  /// equal to evaluate() of each candidate. Safe for concurrent calls.
  std::vector<FastThermalResult> evaluate_batch(
      const ChipletSystem& system, std::span<const Floorplan> floorplans,
      parallel::ThreadPool* pool = nullptr) const;

  // --- Evaluation building blocks -----------------------------------------
  // Shared by SoaSnapshot and the incremental engine (thermal/incremental.h)
  // so both feed the kernel identical per-die doubles.

  /// Receiver probe points inside `footprint` (probe_count() entries,
  /// row-major over the probe grid) and the per-probe self-heating shape
  /// factor (center = 1, drooping toward corners per the droop table).
  void receiver_probes(const Rect& footprint, std::vector<Point>& probes,
                       std::vector<double>& shapes) const;
  /// Number of receiver probe points per die (receiver_probes squared).
  int probe_count() const;
  /// Sub-source point grid of a source footprint (source_subsamples squared
  /// entries).
  void source_points(const Rect& footprint, std::vector<Point>& out) const;
  /// Self term in K: R_self * power with the configured boundary treatment
  /// (mirror images or the measured position correction).
  double self_rise(const Chiplet& chip, const Rect& footprint) const;

  /// Text format "fast_thermal_model v4". load() throws
  /// robust::CorruptArtifactError on any fault of the file (another
  /// version, truncation, an oversized table, axes the tables reject) and a
  /// plain std::runtime_error when the path cannot be opened.
  void save(const std::string& path) const;
  static FastThermalModel load(const std::string& path);

 private:
  /// Decaying kernel: table value minus the uniform floor, clamped >= 0.
  double decay_kernel(double distance_mm) const;
  /// Kernel evaluated source -> probe including the first-order
  /// full-strength mirror images (the self term's off-center images).
  double image_kernel(const Point& src, const Point& probe) const;

  SelfResistanceTable self_table_;
  MutualResistanceTable mutual_table_;
  BilinearTable2D position_correction_;  // empty = disabled
  BilinearTable2D self_droop_;           // empty = disabled
  double ambient_c_ = 45.0;
  double package_w_mm_ = 0.0;
  double package_h_mm_ = 0.0;
  double uniform_floor_ = 0.0;  // K/W
  FastModelConfig config_{};
};

}  // namespace rlplan::thermal
