#include "thermal/resistance_table.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>

#include "obs/trace.h"
#include "robust/robust.h"

namespace rlplan::thermal {

namespace table_detail {

void check_axis(const std::vector<double>& axis, const std::string& name) {
  if (axis.size() < 2) {
    throw std::invalid_argument("resistance table axis '" + name +
                                "' needs >= 2 entries");
  }
  for (std::size_t i = 1; i < axis.size(); ++i) {
    if (axis[i] <= axis[i - 1]) {
      throw std::invalid_argument("resistance table axis '" + name +
                                  "' must be strictly increasing");
    }
  }
}

std::size_t segment_index(const std::vector<double>& axis, double x) {
  if (x <= axis.front()) return 0;
  if (x >= axis.back()) return axis.size() - 2;
  const auto it = std::upper_bound(axis.begin(), axis.end(), x);
  return static_cast<std::size_t>(it - axis.begin()) - 1;
}

double uniform_inv_step(const std::vector<double>& axis) {
  const double step = (axis.back() - axis.front()) /
                      static_cast<double>(axis.size() - 1);
  if (!(step > 0.0)) return 0.0;
  // Tolerate only rounding-level deviation: a wrong segment pick near a knot
  // then costs O(tolerance * slope), far below every consumer's precision.
  // Knots built as front + i * step (resampled_uniform) carry rounding in
  // proportion to their magnitude, not to the step, so the bound also
  // allows a few ulps of the largest knot.
  const double magnitude = std::max(std::abs(axis.front()),
                                    std::abs(axis.back()));
  const double tol = 1e-12 * step +
                     4.0 * std::numeric_limits<double>::epsilon() * magnitude;
  for (std::size_t i = 1; i < axis.size(); ++i) {
    if (std::abs((axis[i] - axis[i - 1]) - step) > tol) return 0.0;
  }
  return 1.0 / step;
}

std::size_t segment_index_fast(const std::vector<double>& axis,
                               double inv_step, double x) {
  if (inv_step > 0.0) {
    const double t = (x - axis.front()) * inv_step;
    const auto i = static_cast<std::size_t>(std::max(t, 0.0));
    return std::min(i, axis.size() - 2);
  }
  return segment_index(axis, x);
}

}  // namespace table_detail

namespace {

// Sizes a loaded table may claim, checked before anything is allocated: the
// most knots resampled_uniform() produces per axis, and 2^20 cells in 2D.
constexpr std::size_t kMaxLoadedKnots = 4096;
constexpr std::size_t kMaxLoadedCells = std::size_t{1} << 20;

std::size_t load_count(std::istream& is, const std::string& table) {
  std::size_t n = 0;
  is >> n;
  if (!is) throw robust::CorruptArtifactError(table + ": truncated data");
  if (n > kMaxLoadedKnots) {
    throw robust::CorruptArtifactError(table + ": corrupt axis length " +
                                       std::to_string(n));
  }
  return n;
}

}  // namespace

SelfResistanceTable::SelfResistanceTable(
    std::vector<double> widths, std::vector<double> heights,
    std::vector<std::vector<double>> values)
    : widths_(std::move(widths)),
      heights_(std::move(heights)),
      values_(std::move(values)) {
  table_detail::check_axis(widths_, "widths");
  table_detail::check_axis(heights_, "heights");
  if (values_.size() != widths_.size()) {
    throw std::invalid_argument("self table: values rows != widths");
  }
  for (const auto& row : values_) {
    if (row.size() != heights_.size()) {
      throw std::invalid_argument("self table: values cols != heights");
    }
  }
  width_inv_step_ = table_detail::uniform_inv_step(widths_);
  height_inv_step_ = table_detail::uniform_inv_step(heights_);
}

double SelfResistanceTable::lookup(double width_mm, double height_mm) const {
  if (empty()) {
    throw std::logic_error("SelfResistanceTable: lookup on empty table");
  }
  const double w = std::clamp(width_mm, widths_.front(), widths_.back());
  const double h = std::clamp(height_mm, heights_.front(), heights_.back());
  const std::size_t i =
      table_detail::segment_index_fast(widths_, width_inv_step_, w);
  const std::size_t j =
      table_detail::segment_index_fast(heights_, height_inv_step_, h);
  const double tw = (w - widths_[i]) / (widths_[i + 1] - widths_[i]);
  const double th = (h - heights_[j]) / (heights_[j + 1] - heights_[j]);
  const double v00 = values_[i][j];
  const double v10 = values_[i + 1][j];
  const double v01 = values_[i][j + 1];
  const double v11 = values_[i + 1][j + 1];
  return (1.0 - tw) * (1.0 - th) * v00 + tw * (1.0 - th) * v10 +
         (1.0 - tw) * th * v01 + tw * th * v11;
}

void SelfResistanceTable::save(std::ostream& os) const {
  os << "self_resistance_table v1\n";
  os << widths_.size() << ' ' << heights_.size() << '\n';
  os.precision(17);
  for (double w : widths_) os << w << ' ';
  os << '\n';
  for (double h : heights_) os << h << ' ';
  os << '\n';
  for (const auto& row : values_) {
    for (double v : row) os << v << ' ';
    os << '\n';
  }
}

SelfResistanceTable SelfResistanceTable::load(std::istream& is) {
  std::string tag, version;
  is >> tag >> version;
  if (tag != "self_resistance_table" || version != "v1") {
    throw robust::CorruptArtifactError("SelfResistanceTable: bad header");
  }
  const std::size_t nw = load_count(is, "SelfResistanceTable");
  const std::size_t nh = load_count(is, "SelfResistanceTable");
  if (nw * nh > kMaxLoadedCells) {
    throw robust::CorruptArtifactError(
        "SelfResistanceTable: corrupt size " + std::to_string(nw) + " x " +
        std::to_string(nh));
  }
  std::vector<double> widths(nw), heights(nh);
  for (auto& w : widths) is >> w;
  for (auto& h : heights) is >> h;
  std::vector<std::vector<double>> values(nw, std::vector<double>(nh));
  for (auto& row : values) {
    for (auto& v : row) is >> v;
  }
  if (!is) {
    throw robust::CorruptArtifactError("SelfResistanceTable: truncated data");
  }
  try {
    return SelfResistanceTable(std::move(widths), std::move(heights),
                               std::move(values));
  } catch (const std::invalid_argument& e) {
    throw robust::CorruptArtifactError(e.what());
  }
}

MutualResistanceTable::MutualResistanceTable(std::vector<double> distances_mm,
                                             std::vector<double> values)
    : distances_(std::move(distances_mm)), values_(std::move(values)) {
  table_detail::check_axis(distances_, "distances");
  if (values_.size() != distances_.size()) {
    throw std::invalid_argument("mutual table: values size != distances");
  }
  for (const double v : values_) {
    if (!(v >= 0.0)) {
      throw std::invalid_argument(
          "mutual table: values must be non-negative rises per watt");
    }
  }
  inv_step_ = table_detail::uniform_inv_step(distances_);
}

double MutualResistanceTable::lookup(double distance_mm) const {
  if (empty()) {
    throw std::logic_error("MutualResistanceTable: lookup on empty table");
  }
  const double d =
      std::clamp(distance_mm, distances_.front(), distances_.back());
  const std::size_t i =
      table_detail::segment_index_fast(distances_, inv_step_, d);
  const double t = (d - distances_[i]) / (distances_[i + 1] - distances_[i]);
  return (1.0 - t) * values_[i] + t * values_[i + 1];
}

MutualResistanceTable MutualResistanceTable::resampled_uniform(
    std::size_t max_points) const {
  if (empty()) {
    throw std::logic_error("MutualResistanceTable: resample of empty table");
  }
  if (is_uniform()) return *this;
  RLPLAN_TRACE_SPAN("thermal.resample_uniform");
  double min_gap = distances_.back() - distances_.front();
  for (std::size_t i = 1; i < distances_.size(); ++i) {
    min_gap = std::min(min_gap, distances_[i] - distances_[i - 1]);
  }
  const double span = distances_.back() - distances_.front();
  auto n = static_cast<std::size_t>(std::llround(span / min_gap)) + 1;
  n = std::clamp<std::size_t>(n, distances_.size(), max_points);
  const double step = span / static_cast<double>(n - 1);
  std::vector<double> distances(n);
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double d = i + 1 == n
                         ? distances_.back()
                         : distances_.front() + static_cast<double>(i) * step;
    distances[i] = d;
    values[i] = lookup(d);
  }
  return MutualResistanceTable(std::move(distances), std::move(values));
}

void MutualResistanceTable::save(std::ostream& os) const {
  os << "mutual_resistance_table v1\n";
  os << distances_.size() << '\n';
  os.precision(17);
  for (double d : distances_) os << d << ' ';
  os << '\n';
  for (double v : values_) os << v << ' ';
  os << '\n';
}

MutualResistanceTable MutualResistanceTable::load(std::istream& is) {
  std::string tag, version;
  is >> tag >> version;
  if (tag != "mutual_resistance_table" || version != "v1") {
    throw robust::CorruptArtifactError("MutualResistanceTable: bad header");
  }
  const std::size_t n = load_count(is, "MutualResistanceTable");
  std::vector<double> distances(n), values(n);
  for (auto& d : distances) is >> d;
  for (auto& v : values) is >> v;
  if (!is) {
    throw robust::CorruptArtifactError(
        "MutualResistanceTable: truncated data");
  }
  try {
    return MutualResistanceTable(std::move(distances), std::move(values));
  } catch (const std::invalid_argument& e) {
    throw robust::CorruptArtifactError(e.what());
  }
}

}  // namespace rlplan::thermal
