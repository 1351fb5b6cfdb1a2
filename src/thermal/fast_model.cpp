#include "thermal/fast_model.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "robust/robust.h"

namespace rlplan::thermal {

namespace {

bool subsamples_in_range(int n) {
  return n >= 1 && n <= FastModelConfig::kMaxSubsamples;
}

}  // namespace

FastThermalModel::FastThermalModel(SelfResistanceTable self_table,
                                   MutualResistanceTable mutual_table,
                                   double ambient_c, FastModelConfig config)
    : self_table_(std::move(self_table)),
      mutual_table_(std::move(mutual_table)),
      ambient_c_(ambient_c),
      config_(config) {
  if (!subsamples_in_range(config_.source_subsamples)) {
    throw std::invalid_argument(
        "FastModelConfig: source_subsamples must be in [1, 16]");
  }
  if (!subsamples_in_range(config_.receiver_probes)) {
    throw std::invalid_argument(
        "FastModelConfig: receiver_probes must be in [1, 16]");
  }
  // The mutual kernel is THE hot lookup (probes x subsources x 9 images per
  // die pair), and the SoA kernel resolves its segment with O(1) arithmetic
  // on a uniform-step axis: resample non-uniform distance axes once here.
  // Exact for characterized tables (equal-width distance bins, gaps integer
  // multiples of the bin); for arbitrary hand-built tables whose knots don't
  // align with the uniform grid — or with more than the resample's point
  // cap — this is a piecewise-linear approximation.
  if (!mutual_table_.empty() && !mutual_table_.is_uniform()) {
    mutual_table_ = mutual_table_.resampled_uniform();
  }
}

double FastThermalModel::decay_kernel(double distance_mm) const {
  return std::max(mutual_table_.lookup(distance_mm) - uniform_floor_, 0.0);
}

double FastThermalModel::image_kernel(const Point& src,
                                      const Point& probe) const {
  // Direct term plus first-order reflections: 4 side mirrors and 4 corner
  // double-mirrors of the source about the adiabatic package edges.
  const double w = package_w_mm_;
  const double h = package_h_mm_;
  double k = decay_kernel(kernel_distance(src.x - probe.x, src.y - probe.y));
  const double mx[2] = {-src.x, 2.0 * w - src.x};        // mirror in x
  const double my[2] = {-src.y, 2.0 * h - src.y};        // mirror in y
  for (double ix : mx) {
    k += decay_kernel(kernel_distance(ix - probe.x, src.y - probe.y));
  }
  for (double iy : my) {
    k += decay_kernel(kernel_distance(src.x - probe.x, iy - probe.y));
  }
  for (double ix : mx) {
    for (double iy : my) {
      k += decay_kernel(kernel_distance(ix - probe.x, iy - probe.y));
    }
  }
  return uniform_floor_ + k;
}

int FastThermalModel::probe_count() const {
  return config_.receiver_probes * config_.receiver_probes;
}

void FastThermalModel::source_points(const Rect& footprint,
                                     std::vector<Point>& out) const {
  const int n = config_.source_subsamples;
  out.clear();
  if (n == 1) {
    out.push_back(footprint.center());
    return;
  }
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      out.push_back({footprint.x + (i + 0.5) * footprint.w / n,
                     footprint.y + (j + 0.5) * footprint.h / n});
    }
  }
}

void FastThermalModel::receiver_probes(const Rect& footprint,
                                       std::vector<Point>& probes,
                                       std::vector<double>& shapes) const {
  const int np = config_.receiver_probes;
  const Point ci = footprint.center();
  const double droop =
      self_droop_.empty() ? 1.0 : self_droop_.lookup(footprint.w, footprint.h);
  probes.clear();
  shapes.clear();
  for (int pi = 0; pi < np; ++pi) {
    for (int pj = 0; pj < np; ++pj) {
      const Point probe =
          np == 1 ? ci
                  : Point{footprint.x + (pi + 0.5) * footprint.w / np,
                          footprint.y + (pj + 0.5) * footprint.h / np};
      // Normalized square radius in [0, 1]: 0 at center, 1 at corners.
      const double rx = (probe.x - ci.x) / (footprint.w / 2.0);
      const double ry = (probe.y - ci.y) / (footprint.h / 2.0);
      const double rho2 = std::min(1.0, (rx * rx + ry * ry) / 2.0);
      probes.push_back(probe);
      shapes.push_back(1.0 - (1.0 - droop) * rho2);
    }
  }
}

double FastThermalModel::self_rise(const Chiplet& chip,
                                   const Rect& footprint) const {
  // Orientation-aware lookup: the characterizer fills the full (w, h) grid,
  // so rotated placements read the correct entry on rectangular interposers.
  double r_self = self_table_.lookup(footprint.w, footprint.h);
  const Point ci = footprint.center();
  if (config_.use_images) {
    // Off-center self heating: the die couples to its own mirror images.
    // The centered characterization already contains the (negligible)
    // center-position images, so only the *excess* relative to the
    // centered position is added.
    const Point cc{package_w_mm_ / 2.0, package_h_mm_ / 2.0};
    const double self_images =
        image_kernel(ci, ci) - decay_kernel(0.0) - uniform_floor_;
    const double center_images =
        image_kernel(cc, cc) - decay_kernel(0.0) - uniform_floor_;
    r_self += self_images - center_images;
  } else if (!position_correction_.empty()) {
    r_self *= position_correction_.lookup(ci.x, ci.y);
  }
  return r_self * chip.power;
}

void FastThermalModel::save(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("FastThermalModel: cannot open " + path);
  os << "fast_thermal_model v4\n";
  os.precision(17);
  os << ambient_c_ << ' ' << config_.source_subsamples << ' '
     << config_.receiver_probes << ' ' << (config_.use_images ? 1 : 0) << ' '
     << package_w_mm_ << ' ' << package_h_mm_ << ' ' << uniform_floor_ << ' '
     << (position_correction_.empty() ? 0 : 1) << ' '
     << (self_droop_.empty() ? 0 : 1) << '\n';
  self_table_.save(os);
  mutual_table_.save(os);
  if (!position_correction_.empty()) position_correction_.save(os);
  if (!self_droop_.empty()) self_droop_.save(os);
}

FastThermalModel FastThermalModel::load(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("FastThermalModel: cannot open " + path);
  std::string tag, version;
  is >> tag >> version;
  // Older files carry fields that no longer exist (v3 an image
  // reflectivity, v2 also a mutual-term correction flag); they fail here
  // instead of loading with a misread field layout.
  if (tag != "fast_thermal_model" || version != "v4") {
    throw robust::CorruptArtifactError("FastThermalModel: bad header in " +
                                       path);
  }
  double ambient = 0.0;
  int use_images = 0;
  int has_correction = 0;
  int has_droop = 0;
  double pkg_w = 0.0, pkg_h = 0.0, floor = 0.0;
  FastModelConfig config;
  is >> ambient >> config.source_subsamples >> config.receiver_probes >>
      use_images >> pkg_w >> pkg_h >> floor >> has_correction >> has_droop;
  // The constructor's own preconditions, as a file fault.
  if (!is || !subsamples_in_range(config.source_subsamples) ||
      !subsamples_in_range(config.receiver_probes)) {
    throw robust::CorruptArtifactError("FastThermalModel: corrupt header in " +
                                       path);
  }
  config.use_images = use_images != 0;
  auto self = SelfResistanceTable::load(is);
  auto mutual = MutualResistanceTable::load(is);
  FastThermalModel model(std::move(self), std::move(mutual), ambient, config);
  model.set_image_params(pkg_w, pkg_h, floor);
  if (has_correction != 0) {
    model.set_position_correction(BilinearTable2D::load(is));
  }
  if (has_droop != 0) {
    model.set_self_droop(BilinearTable2D::load(is));
  }
  return model;
}

}  // namespace rlplan::thermal
