#include "thermal/characterize.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/trace.h"
#include "util/log.h"
#include "util/timer.h"

namespace rlplan::thermal {

namespace {
// Characterization has no usable best-so-far (a half-built table set cannot
// feed a FastThermalModel), so cooperative stops surface as CancelledError.
// Polled before every probe solve — the unit of work the ISSUE's
// "characterization granularity" refers to.
void check_control(const robust::RunControl& control) {
  if (control.active() && control.stop_requested()) {
    throw robust::CancelledError(
        std::string("thermal characterization stopped (") +
        robust::to_string(control.stop_reason()) + ")");
  }
}
}  // namespace

std::vector<double> linspace(double lo, double hi, std::size_t n) {
  if (n < 2 || hi <= lo) {
    throw std::invalid_argument("linspace: need n >= 2 and hi > lo");
  }
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = lo + (hi - lo) * static_cast<double>(i) / static_cast<double>(n - 1);
  }
  return v;
}

std::vector<double> geomspace(double lo, double hi, std::size_t n) {
  if (lo <= 0.0) {
    throw std::invalid_argument("geomspace: lo must be positive");
  }
  std::vector<double> v = linspace(std::log(lo), std::log(hi), n);
  for (double& x : v) x = std::exp(x);
  v.front() = lo;  // cancel rounding at the endpoints
  v.back() = hi;
  return v;
}

ThermalCharacterizer::ThermalCharacterizer(const LayerStack& stack,
                                           CharacterizationConfig config)
    : stack_(&stack), config_(std::move(config)) {
  stack.validate();
  if (config_.reference_power_w <= 0.0) {
    throw std::invalid_argument("characterization: reference power must be > 0");
  }
}

FastThermalModel ThermalCharacterizer::characterize(
    double interposer_w_mm, double interposer_h_mm,
    const std::function<void(std::size_t, std::size_t)>& progress) {
  RLPLAN_TRACE_SPAN("thermal.characterize");
  const Timer timer;
  report_ = {};

  const auto make_axis = [this](double hi) {
    return config_.geometric_axes
               ? geomspace(config_.min_die_mm, hi, config_.auto_axis_points)
               : linspace(config_.min_die_mm, hi, config_.auto_axis_points);
  };
  std::vector<double> widths = config_.widths_mm;
  std::vector<double> heights = config_.heights_mm;
  if (widths.empty()) {
    widths = make_axis(std::min(config_.max_die_mm, interposer_w_mm * 0.8));
  }
  if (heights.empty()) {
    heights = make_axis(std::min(config_.max_die_mm, interposer_h_mm * 0.8));
  }

  const std::size_t position_probes =
      config_.position_points > 0
          ? config_.position_points * config_.position_points
          : 0;
  const std::size_t total =
      widths.size() * heights.size() + position_probes + 1;
  SelfResistanceTable self = [&] {
    RLPLAN_TRACE_SPAN("thermal.characterize.self_table");
    return build_self_table(interposer_w_mm, interposer_h_mm, widths, heights,
                            progress, total, 0);
  }();
  MutualResistanceTable mutual = [&] {
    RLPLAN_TRACE_SPAN("thermal.characterize.mutual_table");
    return build_mutual_table(interposer_w_mm, interposer_h_mm);
  }();

  // Package-level uniform rise floor for the image decomposition: the far
  // tail of the measured kernel.
  double floor = mutual.values().back();
  for (double v : mutual.values()) floor = std::min(floor, v);

  FastThermalModel model(std::move(self), std::move(mutual),
                         stack_->ambient_c(), config_.model_config);
  model.set_self_droop(droop_table_);
  model.set_image_params(interposer_w_mm, interposer_h_mm, floor);
  // The measured position-correction table is an alternative to the image
  // construction; only one boundary treatment should be active at a time.
  if (!config_.model_config.use_images && config_.position_points >= 2) {
    RLPLAN_TRACE_SPAN("thermal.characterize.position_table");
    model.set_position_correction(build_position_correction(
        interposer_w_mm, interposer_h_mm, progress, total));
  }
  if (progress) progress(total, total);

  report_.total_seconds = timer.seconds();
  RLPLAN_INFO << "characterized " << interposer_w_mm << "x" << interposer_h_mm
              << " mm interposer: " << report_.self_solves << " self + "
              << report_.mutual_solves << " mutual + "
              << report_.position_solves << " position solves in "
              << report_.total_seconds << " s";
  return model;
}

BilinearTable2D ThermalCharacterizer::build_position_correction(
    double iw, double ih,
    const std::function<void(std::size_t, std::size_t)>& progress,
    std::size_t total_probes) {
  const double s = config_.position_ref_die_mm;
  const std::size_t n = config_.position_points;

  // Centered reference rise (the table's denominator).
  const auto solve_at = [&](double cx, double cy) {
    check_control(config_.control);
    const ChipletSystem probe(
        "position-probe", iw, ih,
        {Chiplet{"ref", s, s, config_.reference_power_w}}, {});
    Floorplan fp(probe);
    fp.place(0, {cx - s / 2.0, cy - s / 2.0});
    GridThermalSolver solver(*stack_, config_.solver);
    ++report_.position_solves;
    return solver.solve(probe, fp).max_temp_c - stack_->ambient_c();
  };
  const double center_rise = solve_at(iw / 2.0, ih / 2.0);

  // Sweep die centers over the reachable area.
  const std::vector<double> xs = linspace(s / 2.0, iw - s / 2.0, n);
  const std::vector<double> ys = linspace(s / 2.0, ih - s / 2.0, n);
  std::vector<std::vector<double>> factors(n, std::vector<double>(n, 1.0));
  std::size_t done = report_.self_solves + 1;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      factors[i][j] = solve_at(xs[i], ys[j]) / center_rise;
      if (progress) progress(++done, total_probes);
    }
  }
  return BilinearTable2D(xs, ys, std::move(factors));
}

SelfResistanceTable ThermalCharacterizer::build_self_table(
    double iw, double ih, const std::vector<double>& widths,
    const std::vector<double>& heights,
    const std::function<void(std::size_t, std::size_t)>& progress,
    std::size_t total_probes, std::size_t probes_done) {
  std::vector<std::vector<double>> values(
      widths.size(), std::vector<double>(heights.size(), 0.0));

  std::vector<std::vector<double>> droops(
      widths.size(), std::vector<double>(heights.size(), 1.0));

  std::size_t done = probes_done;
  for (std::size_t i = 0; i < widths.size(); ++i) {
    for (std::size_t j = 0; j < heights.size(); ++j) {
      check_control(config_.control);
      const double w = widths[i];
      const double h = heights[j];
      const ChipletSystem probe(
          "self-probe", iw, ih,
          {Chiplet{"probe", w, h, config_.reference_power_w}}, {});
      probe.validate();
      Floorplan fp(probe);
      const Rect r{(iw - w) / 2.0, (ih - h) / 2.0, w, h};
      fp.place(0, r.origin());

      GridThermalSolver solver(*stack_, config_.solver);
      ThermalField field;
      const ThermalResult result = solver.solve_with_field(probe, fp, field);
      const double peak_rise = result.max_temp_c - stack_->ambient_c();
      values[i][j] = peak_rise / config_.reference_power_w;

      // Within-die droop: rise at the die corners relative to the peak.
      const std::size_t layer = stack_->chiplet_layer_index();
      ThermalGridModel model(*stack_, probe, config_.solver.dims);
      double corner_rise = 0.0;
      for (const Point corner :
           {Point{r.x, r.y}, Point{r.right(), r.y}, Point{r.x, r.top()},
            Point{r.right(), r.top()}}) {
        // The cell holding a point starts its zero-size footprint.
        const CellRange at = model.footprint_cells({corner.x, corner.y, 0, 0});
        corner_rise = std::max(corner_rise, field.at(layer, at.row0, at.col0) -
                                                stack_->ambient_c());
      }
      droops[i][j] =
          peak_rise > 0.0 ? std::clamp(corner_rise / peak_rise, 0.0, 1.0)
                          : 1.0;

      ++report_.self_solves;
      if (progress) progress(++done, total_probes);
    }
  }
  droop_table_ = BilinearTable2D(widths, heights, std::move(droops));
  return SelfResistanceTable(widths, heights, std::move(values));
}

MutualResistanceTable ThermalCharacterizer::build_mutual_table(double iw,
                                                               double ih) {
  const double s = config_.mutual_source_mm;
  const GridDims dims = config_.solver.dims;
  const double cw = iw / static_cast<double>(dims.cols);
  const double ch = ih / static_cast<double>(dims.rows);
  const double bin =
      config_.mutual_bin_mm > 0.0 ? config_.mutual_bin_mm : std::max(cw, ch);
  const double max_dist = std::hypot(iw, ih);
  const auto num_bins =
      static_cast<std::size_t>(std::ceil(max_dist / bin)) + 1;

  // Source positions: interposer center, plus quadrant offsets that fold
  // boundary effects into the distance average.
  std::vector<Point> sources{{iw / 2.0, ih / 2.0}};
  if (config_.mutual_source_positions >= 5) {
    sources.push_back({iw * 0.25, ih * 0.25});
    sources.push_back({iw * 0.75, ih * 0.25});
    sources.push_back({iw * 0.25, ih * 0.75});
    sources.push_back({iw * 0.75, ih * 0.75});
  }

  std::vector<double> sums(num_bins, 0.0);
  std::vector<std::size_t> counts(num_bins, 0);
  const std::size_t layer = stack_->chiplet_layer_index();

  for (const Point& src : sources) {
    check_control(config_.control);
    const ChipletSystem probe(
        "mutual-probe", iw, ih,
        {Chiplet{"source", s, s, config_.reference_power_w}}, {});
    probe.validate();
    Floorplan fp(probe);
    fp.place(0, {src.x - s / 2.0, src.y - s / 2.0});

    GridThermalSolver solver(*stack_, config_.solver);
    ThermalField field;
    solver.solve_with_field(probe, fp, field);
    ++report_.mutual_solves;

    // Bin the chiplet-layer rise-per-watt by distance from the source.
    ThermalGridModel model(*stack_, probe, dims);
    for (std::size_t r = 0; r < dims.rows; ++r) {
      for (std::size_t c = 0; c < dims.cols; ++c) {
        const Point p = model.cell_center_mm(r, c);
        const double d = euclidean(p, src);
        const auto b =
            std::min(static_cast<std::size_t>(d / bin), num_bins - 1);
        sums[b] += (field.at(layer, r, c) - stack_->ambient_c()) /
                   config_.reference_power_w;
        ++counts[b];
      }
    }
  }

  std::vector<double> distances;
  std::vector<double> values;
  std::vector<std::size_t> bin_of_value;
  for (std::size_t b = 0; b < num_bins; ++b) {
    if (counts[b] == 0) continue;
    distances.push_back((static_cast<double>(b) + 0.5) * bin);
    values.push_back(sums[b] / static_cast<double>(counts[b]));
    bin_of_value.push_back(b);
  }
  if (distances.size() < 2) {
    throw std::runtime_error(
        "mutual characterization produced fewer than 2 distance bins; "
        "increase grid resolution or reduce bin width");
  }

  // Image deconvolution (center-source kernels only): the raw annulus
  // averages include the probe's own boundary reflections; subtract the
  // reflections predicted by the current kernel estimate so the stored
  // kernel approaches the free-field response the image evaluation expects.
  if (config_.kernel_deconvolution_iters > 0 && sources.size() == 1 &&
      config_.model_config.use_images) {
    const Point src = sources.front();
    const double refl = config_.model_config.image_reflectivity;
    double floor = values.front();
    for (double v : values) floor = std::min(floor, v);

    std::vector<double> g(values.size());
    for (std::size_t k = 0; k < values.size(); ++k) {
      g[k] = std::max(values[k] - floor, 0.0);
    }
    const auto lookup_g = [&](double d) {
      // Piecewise-linear interpolation over the (distances, g) pairs.
      if (d <= distances.front()) return g.front();
      if (d >= distances.back()) return g.back();
      const std::size_t seg = table_detail::segment_index(distances, d);
      const double t =
          (d - distances[seg]) / (distances[seg + 1] - distances[seg]);
      return (1.0 - t) * g[seg] + t * g[seg + 1];
    };

    const double mx[2] = {-src.x, 2.0 * iw - src.x};
    const double my[2] = {-src.y, 2.0 * ih - src.y};
    const ChipletSystem probe_geom("geom", iw, ih,
                                   {Chiplet{"x", 1.0, 1.0, 0.0}}, {});
    ThermalGridModel model(*stack_, probe_geom, dims);
    for (int iter = 0; iter < config_.kernel_deconvolution_iters; ++iter) {
      // Predicted image contamination, annulus-averaged like the raw data.
      std::vector<double> img_sums(num_bins, 0.0);
      for (std::size_t r = 0; r < dims.rows; ++r) {
        for (std::size_t c = 0; c < dims.cols; ++c) {
          const Point p = model.cell_center_mm(r, c);
          const auto b = std::min(
              static_cast<std::size_t>(euclidean(p, src) / bin),
              num_bins - 1);
          double img = 0.0;
          for (double ix : mx) img += refl * lookup_g(euclidean({ix, src.y}, p));
          for (double iy : my) img += refl * lookup_g(euclidean({src.x, iy}, p));
          for (double ix : mx) {
            for (double iy : my) {
              img += refl * refl * lookup_g(euclidean({ix, iy}, p));
            }
          }
          img_sums[b] += img;
        }
      }
      for (std::size_t k = 0; k < values.size(); ++k) {
        const std::size_t b = bin_of_value[k];
        const double img_avg =
            counts[b] > 0 ? img_sums[b] / static_cast<double>(counts[b])
                          : 0.0;
        g[k] = std::max(values[k] - floor - img_avg, 0.0);
      }
    }
    for (std::size_t k = 0; k < values.size(); ++k) {
      values[k] = floor + g[k];
    }
  }

  return MutualResistanceTable(std::move(distances), std::move(values));
}

}  // namespace rlplan::thermal
