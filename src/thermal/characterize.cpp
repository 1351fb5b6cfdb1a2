#include "thermal/characterize.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/trace.h"
#include "util/log.h"
#include "util/timer.h"

namespace rlplan::thermal {

namespace {

// Fixed characterization geometry. The grid model is linear in power, so the
// reference power only scales the probe solves; the rest are the shapes the
// fast model's tables are defined over.
constexpr double kReferencePowerW = 10.0;
constexpr double kMinDieMm = 2.0;        // self-table axes start here...
constexpr double kMaxDieMm = 30.0;       // ...and end at most here
constexpr double kMutualSourceMm = 2.0;  // side of the centered source
constexpr double kPositionRefDieMm = 8.0;

// Characterization has no usable best-so-far (a half-built table set cannot
// feed a FastThermalModel), so cooperative stops surface as CancelledError.
// Polled before every probe solve.
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
}

void ThermalCharacterizer::count_solve(std::size_t& counter) {
  ++counter;
  if (*progress_) {
    (*progress_)(report_.self_solves + report_.mutual_solves +
                     report_.position_solves,
                 total_solves_);
  }
}

FastThermalModel ThermalCharacterizer::characterize(
    double interposer_w_mm, double interposer_h_mm, const Progress& progress) {
  RLPLAN_TRACE_SPAN("thermal.characterize");
  const Timer timer;
  report_ = {};

  const auto make_axis = [this](double side_mm) {
    const double hi = std::min(kMaxDieMm, side_mm * 0.8);
    return config_.geometric_axes
               ? geomspace(kMinDieMm, hi, config_.auto_axis_points)
               : linspace(kMinDieMm, hi, config_.auto_axis_points);
  };
  const std::vector<double> widths = make_axis(interposer_w_mm);
  const std::vector<double> heights = make_axis(interposer_h_mm);

  // The measured position-correction table is an alternative to the image
  // construction; only one boundary treatment is active at a time. Its
  // sweep is the centered solve plus position_points^2 placements.
  const std::size_t n = config_.position_points;
  const bool position_table = !config_.model_config.use_images && n >= 2;
  progress_ = &progress;
  total_solves_ =
      widths.size() * heights.size() + 1 + (position_table ? n * n + 1 : 0);

  SelfResistanceTable self = [&] {
    RLPLAN_TRACE_SPAN("thermal.characterize.self_table");
    return build_self_table(interposer_w_mm, interposer_h_mm, widths,
                            heights);
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
  if (position_table) {
    RLPLAN_TRACE_SPAN("thermal.characterize.position_table");
    model.set_position_correction(
        build_position_correction(interposer_w_mm, interposer_h_mm));
  }

  report_.total_seconds = timer.seconds();
  RLPLAN_INFO << "characterized " << interposer_w_mm << "x" << interposer_h_mm
              << " mm interposer: " << report_.self_solves << " self + "
              << report_.mutual_solves << " mutual + "
              << report_.position_solves << " position solves in "
              << report_.total_seconds << " s";
  return model;
}

BilinearTable2D ThermalCharacterizer::build_position_correction(double iw,
                                                                double ih) {
  const double s = kPositionRefDieMm;
  const std::size_t n = config_.position_points;

  const auto solve_at = [&](double cx, double cy) {
    check_control(config_.control);
    const ChipletSystem probe("position-probe", iw, ih,
                              {Chiplet{"ref", s, s, kReferencePowerW}}, {});
    Floorplan fp(probe);
    fp.place(0, {cx - s / 2.0, cy - s / 2.0});
    GridThermalSolver solver(*stack_, config_.solver);
    const double rise =
        solver.solve(probe, fp).max_temp_c - stack_->ambient_c();
    count_solve(report_.position_solves);
    return rise;
  };
  // Centered reference rise (the table's denominator).
  const double center_rise = solve_at(iw / 2.0, ih / 2.0);

  // Sweep die centers over the reachable area.
  const std::vector<double> xs = linspace(s / 2.0, iw - s / 2.0, n);
  const std::vector<double> ys = linspace(s / 2.0, ih - s / 2.0, n);
  std::vector<std::vector<double>> factors(n, std::vector<double>(n, 1.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      factors[i][j] = solve_at(xs[i], ys[j]) / center_rise;
    }
  }
  return BilinearTable2D(xs, ys, std::move(factors));
}

SelfResistanceTable ThermalCharacterizer::build_self_table(
    double iw, double ih, const std::vector<double>& widths,
    const std::vector<double>& heights) {
  std::vector<std::vector<double>> values(
      widths.size(), std::vector<double>(heights.size(), 0.0));

  std::vector<std::vector<double>> droops(
      widths.size(), std::vector<double>(heights.size(), 1.0));

  for (std::size_t i = 0; i < widths.size(); ++i) {
    for (std::size_t j = 0; j < heights.size(); ++j) {
      check_control(config_.control);
      const double w = widths[i];
      const double h = heights[j];
      const ChipletSystem probe("self-probe", iw, ih,
                                {Chiplet{"probe", w, h, kReferencePowerW}},
                                {});
      probe.validate();
      Floorplan fp(probe);
      const Rect r{(iw - w) / 2.0, (ih - h) / 2.0, w, h};
      fp.place(0, r.origin());

      GridThermalSolver solver(*stack_, config_.solver);
      ThermalField field;
      const ThermalResult result = solver.solve_with_field(probe, fp, field);
      const double peak_rise = result.max_temp_c - stack_->ambient_c();
      values[i][j] = peak_rise / kReferencePowerW;

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

      count_solve(report_.self_solves);
    }
  }
  droop_table_ = BilinearTable2D(widths, heights, std::move(droops));
  return SelfResistanceTable(widths, heights, std::move(values));
}

MutualResistanceTable ThermalCharacterizer::build_mutual_table(double iw,
                                                               double ih) {
  const double s = kMutualSourceMm;
  const GridDims dims = config_.solver.dims;
  const double cw = iw / static_cast<double>(dims.cols);
  const double ch = ih / static_cast<double>(dims.rows);
  const double bin = std::max(cw, ch);
  const double max_dist = std::hypot(iw, ih);
  const auto num_bins =
      static_cast<std::size_t>(std::ceil(max_dist / bin)) + 1;
  const Point src{iw / 2.0, ih / 2.0};

  check_control(config_.control);
  const ChipletSystem probe("mutual-probe", iw, ih,
                            {Chiplet{"source", s, s, kReferencePowerW}}, {});
  probe.validate();
  Floorplan fp(probe);
  fp.place(0, {src.x - s / 2.0, src.y - s / 2.0});

  GridThermalSolver solver(*stack_, config_.solver);
  ThermalField field;
  solver.solve_with_field(probe, fp, field);
  count_solve(report_.mutual_solves);

  // Bin the chiplet-layer rise-per-watt by distance from the source.
  std::vector<double> sums(num_bins, 0.0);
  std::vector<std::size_t> counts(num_bins, 0);
  const std::size_t layer = stack_->chiplet_layer_index();
  ThermalGridModel model(*stack_, probe, dims);
  for (std::size_t r = 0; r < dims.rows; ++r) {
    for (std::size_t c = 0; c < dims.cols; ++c) {
      const Point p = model.cell_center_mm(r, c);
      const double d = euclidean(p, src);
      const auto b = std::min(static_cast<std::size_t>(d / bin), num_bins - 1);
      sums[b] +=
          (field.at(layer, r, c) - stack_->ambient_c()) / kReferencePowerW;
      ++counts[b];
    }
  }

  std::vector<double> distances;
  std::vector<double> values;
  for (std::size_t b = 0; b < num_bins; ++b) {
    if (counts[b] == 0) continue;
    distances.push_back((static_cast<double>(b) + 0.5) * bin);
    values.push_back(sums[b] / static_cast<double>(counts[b]));
  }
  if (distances.size() < 2) {
    throw std::runtime_error(
        "mutual characterization produced fewer than 2 distance bins; "
        "increase grid resolution");
  }
  return MutualResistanceTable(std::move(distances), std::move(values));
}

}  // namespace rlplan::thermal
