// Test-only reference for the fast thermal model: a plain scalar
// evaluation, one table lookup at a time with the table's own
// division-form interpolation. The library's one kernel (SoaSnapshot,
// the incremental engine, every SIMD level) must stay within 1e-9 C of it
// (soa_kernel_test, incremental_thermal_test), and micro_thermal times its
// full re-evaluation as the baseline the kernel paths are gated against.
//
// It shares the model's per-die building blocks (receiver_probes,
// source_points, self_rise) and re-derives the mutual term from the public
// tables: per receiver probe, every other powered die's sub-sources through
// the mirror-image kernel, summed in ascending source order. It also keeps
// the scalar kernel's deleted raw pair row (raw_pair_row), the bits models
// without images must still get from the one pair-row entry.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/chiplet.h"
#include "core/floorplan.h"
#include "thermal/evaluator.h"
#include "thermal/fast_model.h"

namespace rlplan::thermal::oracle {

/// Decaying kernel: table value minus the uniform floor, clamped >= 0.
inline double decay_kernel(const FastThermalModel& model, double distance_mm) {
  return std::max(
      model.mutual_table().lookup(distance_mm) - model.uniform_floor(), 0.0);
}

/// Kernel evaluated source -> probe: the direct term plus first-order
/// reflections (4 side mirrors and 4 corner double-mirrors of the source
/// about the package edges), every mirror at full strength.
inline double image_kernel(const FastThermalModel& model, const Point& src,
                           const Point& probe) {
  const double w = model.package_w_mm();
  const double h = model.package_h_mm();
  double k = decay_kernel(
      model, kernel_distance(src.x - probe.x, src.y - probe.y));
  const double mx[2] = {-src.x, 2.0 * w - src.x};  // mirror in x
  const double my[2] = {-src.y, 2.0 * h - src.y};  // mirror in y
  for (double ix : mx) {
    k += decay_kernel(model, kernel_distance(ix - probe.x, src.y - probe.y));
  }
  for (double iy : my) {
    k += decay_kernel(model, kernel_distance(src.x - probe.x, iy - probe.y));
  }
  for (double ix : mx) {
    for (double iy : my) {
      k += decay_kernel(model, kernel_distance(ix - probe.x, iy - probe.y));
    }
  }
  return model.uniform_floor() + k;
}

/// Temperature rise at `probe` caused by one source die: kernel summed over
/// its sub-sources, scaled by power.
inline double source_contribution(const FastThermalModel& model,
                                  std::span<const Point> subsources,
                                  double power_w, const Point& probe) {
  double m = 0.0;
  for (const Point& s : subsources) {
    m += model.config().use_images
             ? image_kernel(model, s, probe)
             : model.mutual_table().lookup(
                   kernel_distance(s.x - probe.x, s.y - probe.y));
  }
  m *= power_w / static_cast<double>(subsources.size());
  return m;
}

/// The raw pair row the scalar kernel table ran for models without images
/// before the table had one entry: per probe, each source point's
/// interpolated table value v — no floor, no clamp — with point t added
/// into lane t % 4, the lanes combined as (l0 + l2) + (l1 + l3), times the
/// source's power per sub-source. On a table with no negative knot,
/// SoaModelConsts::pair_row at the scalar level must give these bits
/// (soa_kernel_test). Requires a uniform mutual table, as the kernel does.
inline void raw_pair_row(const FastThermalModel& model, const double* px,
                         const double* py, std::size_t n_probes,
                         const double* sx, const double* sy, std::size_t pts,
                         double power_per_sub, double* out) {
  const MutualResistanceTable& table = model.mutual_table();
  const std::vector<double>& values = table.values();
  const double front = table.distances().front();
  const double back = table.distances().back();
  const double cap =
      std::nextafter(static_cast<double>(values.size() - 1), 0.0);
  for (std::size_t p = 0; p < n_probes; ++p) {
    double lanes[4] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t t = 0; t < pts; ++t) {
      const double d = kernel_distance(sx[t] - px[p], sy[t] - py[p]);
      const double x = std::min(
          (std::min(std::max(d, front), back) - front) * table.inv_step(),
          cap);
      const int i = static_cast<int>(x);
      const double diff = values[i + 1] - values[i];
      lanes[t & 3] += values[i] + (x - static_cast<double>(i)) * diff;
    }
    out[p] = ((lanes[0] + lanes[2]) + (lanes[1] + lanes[3])) * power_per_sub;
  }
}

/// All placed chiplets' temperatures; unplaced chiplets read ambient and
/// contribute no mutual heating.
inline FastThermalResult evaluate(const FastThermalModel& model,
                                  const ChipletSystem& system,
                                  const Floorplan& floorplan) {
  if (model.empty()) {
    throw std::logic_error("oracle: evaluate on empty model");
  }
  const std::size_t n = system.num_chiplets();
  FastThermalResult result;
  result.chiplet_temp_c.assign(n, model.ambient_c());
  const std::vector<std::optional<Rect>> rects = floorplan.placed_rects();

  // Sub-source points per source die, computed once per call.
  std::vector<std::vector<Point>> subs(n);
  for (std::size_t j = 0; j < n; ++j) {
    if (rects[j] && system.chiplet(j).power > 0.0) {
      model.source_points(*rects[j], subs[j]);
    }
  }

  std::vector<Point> probes;
  std::vector<double> shapes;
  for (std::size_t i = 0; i < n; ++i) {
    if (!rects[i]) continue;
    const double self = model.self_rise(system.chiplet(i), *rects[i]);
    model.receiver_probes(*rects[i], probes, shapes);
    double worst = 0.0;
    for (std::size_t p = 0; p < probes.size(); ++p) {
      double mutual = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i || subs[j].empty()) continue;
        mutual += source_contribution(model, subs[j],
                                      system.chiplet(j).power, probes[p]);
      }
      worst = std::max(worst, self * shapes[p] + mutual);
    }
    result.chiplet_temp_c[i] = model.ambient_c() + worst;
  }

  result.max_temp_c = model.ambient_c();
  for (double t : result.chiplet_temp_c) {
    result.max_temp_c = std::max(result.max_temp_c, t);
  }
  return result;
}

/// Non-incremental evaluator over the oracle: every query — batch ones
/// included, through the base class's serial default — is a full oracle
/// evaluation. The reference the incremental and batched evaluators are
/// checked against.
class OracleEvaluator final : public ThermalEvaluator {
 public:
  explicit OracleEvaluator(FastThermalModel model)
      : model_(std::move(model)) {}

  double max_temperature(const ChipletSystem& system,
                         const Floorplan& floorplan) override {
    ++count_;
    return evaluate(model_, system, floorplan).max_temp_c;
  }
  long num_evaluations() const override { return count_; }
  std::string name() const override { return "fast-model-oracle"; }
  std::unique_ptr<ThermalEvaluator> clone() const override {
    return std::make_unique<OracleEvaluator>(model_);
  }

 private:
  FastThermalModel model_;
  long count_ = 0;
};

}  // namespace rlplan::thermal::oracle
