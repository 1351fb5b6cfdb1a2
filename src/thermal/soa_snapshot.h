// Structure-of-arrays snapshot: the fast model's one evaluation path.
//
// FastThermalModel::evaluate() builds one of these per call and
// evaluate_batch() keeps one per worker lane. A snapshot flattens one
// system's evaluation state into contiguous arrays:
//
//   * per die: probe points, self-heating shape factors, self rise
//     (refreshed in place per floorplan);
//   * per active source (placed, power > 0): the sub-source grid expanded
//     through the method-of-images mirrors (9 points per sub-source, every
//     one at full strength), packed as flat x/y arrays.
//
// Per placed receiver, one pair-row call of the dispatched kernel table
// (soa_kernels.h) per active source turns every source point into an
// interpolated decay value read from a precomputed (base, diff) segment LUT
// and reduces each source block to a subtotal per probe; the rows then add
// in ascending source order, so no error grows with the die count. Memory
// stays O(n): one row at a time, never the n^2 pair table an
// IncrementalThermalState caches. The level comes from util/simd
// (RLPLANNER_SIMD=scalar forces the portable table), and set_simd_level()
// overrides it per snapshot for differential testing.
//
// Numerical contract (asserted by tests/soa_kernel_test.cpp and
// tests/incremental_thermal_test.cpp):
//  * an IncrementalThermalState right after a full re-reduction of its
//    partial sums equals a SoaSnapshot at the same SIMD level bit for bit,
//    by construction: both sum the same pair-row entry's rows in ascending
//    source order;
//  * everything else — other levels, patched incremental sums, the
//    test-only oracle (tests/fast_model_oracle.h, one table lookup at a
//    time) — agrees within 1e-9 C. The kernel interpolates the
//    uniform mutual table in fraction form base + frac * diff instead of
//    the oracle's division form, a couple of ulp per term; observed
//    differences are ~1e-13 C.
//
// Lifecycle: bind once per (model, system) — sizes and powers are fixed —
// then refresh() per candidate floorplan and evaluate(). One snapshot per
// thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/chiplet.h"
#include "core/floorplan.h"
#include "thermal/fast_model.h"
#include "thermal/soa_kernels.h"
#include "util/simd.h"

namespace rlplan::thermal {

/// Half-open candidate range [first, second) owned by lane `c` when `b`
/// candidates split across `lanes` lanes: sizes differ by at most one, lane
/// ranges tile [0, b) exactly, and no intermediate product can overflow
/// (unlike the naive b * c / lanes split, which overflows std::size_t for
/// b > SIZE_MAX / lanes). Requires lanes >= 1 and c <= lanes.
inline std::pair<std::size_t, std::size_t> batch_lane_range(std::size_t b,
                                                            std::size_t lanes,
                                                            std::size_t c) {
  const std::size_t quotient = b / lanes;
  const std::size_t remainder = b % lanes;
  const std::size_t lo = c * quotient + (c < remainder ? c : remainder);
  return {lo, c < lanes ? lo + quotient + (c < remainder ? 1 : 0) : lo};
}

/// Bind-time model constants shared by both kernel consumers, SoaSnapshot
/// and IncrementalThermalState: the interleaved (base, diff) interpolation
/// LUTs and the capped coordinate transform.
/// Built once per model; everything here is placement-independent.
struct SoaModelConsts {
  std::size_t pc = 0;          ///< receiver probes per die
  std::size_t ss = 1;          ///< sub-sources per die
  std::size_t img = 1;         ///< image points per sub-source (9 or 1)
  bool use_images = false;
  double floor_per_src = 0.0;  ///< ss * uniform rise floor (K/W): one
                               ///< block's summed floors
  double ambient_c = 0.0;
  double pkg_w = 0.0;          ///< package extents, for the image mirrors
  double pkg_h = 0.0;
  // Mutual table axis: clamp range and reciprocal (uniform) knot spacing.
  double front = 0.0;
  double back = 0.0;
  double inv_step = 0.0;
  // Interpolation LUTs, interleaved as (base, diff) pairs per segment so one
  // lookup touches one cache line: base is the value at the left knot (with
  // the decay floor pre-subtracted in the images variant), diff the value
  // change across the segment.
  std::vector<double> lut_img;  // {values[i] - floor, values[i+1]-values[i]}
  std::vector<double> lut_raw;  // {values[i], values[i+1]-values[i]}
  double coord_cap = 0.0;  ///< largest table coordinate (just under nk-1)

  /// Binds to `model`. Throws std::invalid_argument when the model is empty
  /// or its mutual table is not uniform (FastThermalModel resamples its own
  /// at construction, so that means a broken invariant).
  void bind(const FastThermalModel& model);

  /// Expands one sub-source into its `img` coordinate pairs (xs/ys): the
  /// point itself, its mirrors across the four package edges, then the four
  /// corner double-mirrors. Without images this writes the point itself.
  void expand_source_point(const Point& s, double* xs, double* ys) const;

  /// One (receiver, source) coupling row: out[p] is the source block's rise
  /// at probe (px[p], py[p]) — its block subtotal through the kernel form
  /// this model selects (unit with images, raw without), the block's floors
  /// added back (images), times power / ss. Both kernel consumers take their
  /// rows from here and only add them up, so an FMA-contracting compiler
  /// cannot round the two differently.
  void pair_row(const SoaKernelOps& ops, const double* px, const double* py,
                const double* sx, const double* sy, double power_per_sub,
                double* out) const;
};

class SoaSnapshot {
 public:
  /// Binds to `model` and `system` (both must outlive the snapshot, at
  /// stable addresses). Throws std::invalid_argument as
  /// SoaModelConsts::bind does.
  SoaSnapshot(const FastThermalModel& model, const ChipletSystem& system);

  /// Rebuilds the per-floorplan arrays (placements, probe grids, self terms,
  /// image-expanded sub-sources) in place — no allocation after the first
  /// refresh of the largest placement. `floorplan` must be over the bound
  /// system.
  void refresh(const Floorplan& floorplan);

  /// Temperatures of the refreshed placement; eval_seconds is left 0 for
  /// the caller to stamp.
  void evaluate(FastThermalResult& out) const;

  /// Number of active sources (placed dies with power > 0) in the last
  /// refresh.
  std::size_t num_sources() const { return src_die_.size(); }

  /// The SIMD level this snapshot's kernels run at. New snapshots start at
  /// soa_dispatch_level().
  util::SimdLevel simd_level() const { return ops_->level; }

  /// Overrides the kernel selection for this snapshot (differential tests,
  /// forced-scalar benches). Levels whose kernels are not compiled in or not
  /// supported by the host fall back to kScalar — never to a different SIMD
  /// level. Returns the level actually installed.
  util::SimdLevel set_simd_level(util::SimdLevel level);

 private:
  /// Peak rise of placed receiver i over its probes.
  double receiver_rise(std::size_t i) const;

  const FastThermalModel* model_;
  const ChipletSystem* system_;
  std::size_t n_ = 0;   ///< chiplets in the system
  SoaModelConsts k_{};  ///< shared model constants (LUTs, cap)
  const SoaKernelOps* ops_;  ///< dispatched kernels; never null

  // Per-die state, refreshed per floorplan.
  std::vector<std::uint8_t> placed_;  // n
  std::vector<double> self_rise_;     // n
  std::vector<double> probe_x_;       // n * pc
  std::vector<double> probe_y_;       // n * pc
  std::vector<double> shape_;         // n * pc
  // Active sources, packed ascending by die index.
  std::vector<std::size_t> src_die_;  // die index per active source
  std::vector<double> src_scale_;     // power / ss per active source
  std::vector<double> src_x_;         // num_sources * ss * img
  std::vector<double> src_y_;         // num_sources * ss * img

  // Scratch, one receiver at a time.
  mutable std::vector<double> row_;     // pc: one source's coupling row
  mutable std::vector<double> mutual_;  // pc: mutual rise summed so far
  std::vector<Point> probes_scratch_;
  std::vector<double> shapes_scratch_;
  std::vector<Point> subs_scratch_;
};

}  // namespace rlplan::thermal
