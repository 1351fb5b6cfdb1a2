// Thermal resistance lookup tables (the paper's Section II-C data
// structures).
//
// SelfResistanceTable: 2D table R_self(width, height) in K/W — the peak
// temperature rise of a die per watt of its own power, characterized with the
// die centered on the interposer.
//
// MutualResistanceTable: 1D table R_mutual(distance) in K/W — temperature
// rise at an observation point per watt dissipated by a reference source at
// the given center-to-center distance.
//
// Both interpolate (bilinear / linear) and clamp outside the characterized
// range. Tables serialize to a small text format so characterization can be
// cached across runs.
//
// Lookup cost: axes whose knots are uniformly spaced (within rounding) are
// detected at construction and indexed in O(1) by arithmetic; non-uniform
// axes fall back to binary search. MutualResistanceTable::resampled_uniform()
// converts an arbitrary table into a uniform-step one so hot paths (the fast
// thermal model's kernel, evaluated millions of times per optimization run)
// never touch the binary-search path.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace rlplan::thermal {

/// 2D bilinear-interpolated table over (width, height) in mm.
class SelfResistanceTable {
 public:
  SelfResistanceTable() = default;
  /// `values[i][j]` is R_self at (widths[i], heights[j]). Axes must be
  /// strictly increasing with >= 2 entries each. Throws on malformed input.
  SelfResistanceTable(std::vector<double> widths, std::vector<double> heights,
                      std::vector<std::vector<double>> values);

  bool empty() const { return widths_.empty(); }
  const std::vector<double>& widths() const { return widths_; }
  const std::vector<double>& heights() const { return heights_; }

  /// R_self(w, h) in K/W, bilinear, clamped to table boundary.
  double lookup(double width_mm, double height_mm) const;

  void save(std::ostream& os) const;
  /// Throws robust::CorruptArtifactError on any fault of the stream: a bad
  /// header, truncation, an oversized size (checked before allocating), or
  /// axes the constructor rejects.
  static SelfResistanceTable load(std::istream& is);

 private:
  std::vector<double> widths_;
  std::vector<double> heights_;
  std::vector<std::vector<double>> values_;  // [width index][height index]
  // Reciprocal knot spacing per axis when uniform; 0 = binary-search fallback.
  double width_inv_step_ = 0.0;
  double height_inv_step_ = 0.0;
};

/// 1D linear-interpolated table over center-to-center distance in mm.
class MutualResistanceTable {
 public:
  MutualResistanceTable() = default;
  /// Distances strictly increasing, >= 2 entries. Throws on malformed input.
  MutualResistanceTable(std::vector<double> distances_mm,
                        std::vector<double> values);

  bool empty() const { return distances_.empty(); }
  const std::vector<double>& distances() const { return distances_; }
  const std::vector<double>& values() const { return values_; }

  /// R_mutual(d) in K/W, linear, clamped at both ends.
  double lookup(double distance_mm) const;

  /// True when the distance knots are uniformly spaced (within rounding), so
  /// lookup() resolves its segment in O(1) instead of a binary search.
  bool is_uniform() const { return inv_step_ > 0.0; }
  /// Reciprocal knot spacing when uniform, else 0.
  double inv_step() const { return inv_step_; }

  /// Piecewise-linear resample onto a uniform-step grid spanning the same
  /// range. The step is the smallest original knot gap (capped at
  /// `max_points` samples); when every gap is an integer multiple of the
  /// smallest one — as the characterizer's distance-binned tables are — the
  /// resampled table represents the identical piecewise-linear function.
  MutualResistanceTable resampled_uniform(std::size_t max_points = 4096) const;

  void save(std::ostream& os) const;
  /// Throws robust::CorruptArtifactError on any fault of the stream, like
  /// SelfResistanceTable::load.
  static MutualResistanceTable load(std::istream& is);

 private:
  std::vector<double> distances_;
  std::vector<double> values_;
  double inv_step_ = 0.0;  // reciprocal knot spacing when uniform, else 0
};

/// Generic 2D bilinear table alias: also used for the position-correction
/// factor C(cx, cy) that scales R_self for dies placed off-center (boundary
/// effects: the sink's lateral spreading length is ~20 mm, so edge dies
/// spread heat over a truncated region and run hotter).
using BilinearTable2D = SelfResistanceTable;

namespace table_detail {
/// Index i such that axis[i] <= x <= axis[i+1], clamped to valid segments.
std::size_t segment_index(const std::vector<double>& axis, double x);
/// Throws std::invalid_argument unless strictly increasing with >= 2 entries.
void check_axis(const std::vector<double>& axis, const std::string& name);
/// Reciprocal of the (uniform) knot spacing, or 0 when the axis is not
/// uniformly spaced within a small relative tolerance.
double uniform_inv_step(const std::vector<double>& axis);
/// segment_index specialised: O(1) arithmetic when inv_step > 0 (uniform
/// axis), binary search otherwise. `x` must already be clamped to the axis.
std::size_t segment_index_fast(const std::vector<double>& axis,
                               double inv_step, double x);
}  // namespace table_detail

}  // namespace rlplan::thermal
