// Micro-benchmark of the observability layer itself — the numbers behind the
// "<2% enabled, unmeasurable disabled" claim in README's Observability
// section.
//
// Three parts, printed as a table and emitted as BENCH_obs.json:
//  1. Primitive cost: ns per counter add and ns per span enter/exit, measured
//     with telemetry disabled (the single relaxed-atomic check) and enabled.
//  2. Hot-path overhead: FastThermalModel::evaluate() in a tight loop with
//     telemetry off, then on, in the same process; the enabled/disabled
//     throughput ratio is the real-world overhead the instrumentation adds to
//     the thermal reward path.
//  3. Optional CI gates: --max-counter-ns / --max-span-ns / --max-overhead-pct
//     (0 disables each); exit 1 on breach. --smoke shrinks the loop counts.
//
// No google-benchmark dependency — timing loops are long enough (and repeated
// enough) that a plain steady_clock Timer resolves them.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "systems/synthetic.h"
#include "systems/systems.h"
#include "thermal/fast_model.h"
#include "thermal/resistance_table.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace rlplan;

namespace {

constexpr double kInterposer = 80.0;

/// Same characterization-free synthetic model micro_thermal uses, so the
/// overhead percentage is measured on the exact hot path CI already tracks.
thermal::FastThermalModel synthetic_model() {
  std::vector<double> dims;
  for (double d = 2.0; d <= 22.0; d += 4.0) dims.push_back(d);
  std::vector<std::vector<double>> self_vals(dims.size(),
                                             std::vector<double>(dims.size()));
  std::vector<std::vector<double>> droop_vals(
      dims.size(), std::vector<double>(dims.size()));
  for (std::size_t i = 0; i < dims.size(); ++i) {
    for (std::size_t j = 0; j < dims.size(); ++j) {
      self_vals[i][j] = 3.0 / (1.0 + 0.04 * dims[i] * dims[j]);
      droop_vals[i][j] = 0.6;
    }
  }
  const double floor = 0.02;
  std::vector<double> distances, mutual_vals;
  for (double d = 0.0; d <= 120.0; d += 1.5) {
    distances.push_back(d);
    mutual_vals.push_back(floor + 0.8 * std::exp(-d / 10.0));
  }
  thermal::FastThermalModel model(
      thermal::SelfResistanceTable(dims, dims, self_vals),
      thermal::MutualResistanceTable(distances, mutual_vals), 45.0, {});
  model.set_image_params(kInterposer, kInterposer, floor);
  model.set_self_droop(thermal::BilinearTable2D(dims, dims, droop_vals));
  return model;
}

void reset_telemetry() {
  obs::MetricsRegistry::instance().reset();
  obs::reset_trace();
}

/// ns per RLPLAN_COUNTER_ADD in a tight loop. `iters` is large enough that
/// loop overhead amortizes away; the best of `reps` runs rejects scheduler
/// noise.
double counter_ns_per_op(std::size_t iters, int reps) {
  double best = 1e18;
  for (int r = 0; r < reps; ++r) {
    const Timer timer;
    for (std::size_t i = 0; i < iters; ++i) {
      RLPLAN_COUNTER_ADD("obs.bench.counter", 1);
    }
    best = std::min(best, timer.seconds());
  }
  return best * 1e9 / static_cast<double>(iters);
}

/// ns per span enter+exit (the full RAII constructor/destructor pair).
double span_ns_per_op(std::size_t iters, int reps) {
  double best = 1e18;
  for (int r = 0; r < reps; ++r) {
    const Timer timer;
    for (std::size_t i = 0; i < iters; ++i) {
      RLPLAN_TRACE_SPAN("obs.bench.span");
    }
    best = std::min(best, timer.seconds());
  }
  return best * 1e9 / static_cast<double>(iters);
}

/// evaluate() throughput on the synthetic model; telemetry state is whatever
/// the caller set. Returns evals/sec (best of reps).
double thermal_evals_per_sec(const thermal::FastThermalModel& model,
                             const ChipletSystem& sys, const Floorplan& fp,
                             std::size_t iters, int reps) {
  double best = 0.0;
  double sink = 0.0;
  for (int r = 0; r < reps; ++r) {
    const Timer timer;
    for (std::size_t i = 0; i < iters; ++i) {
      sink += model.evaluate(sys, fp).max_temp_c;
    }
    best = std::max(best, static_cast<double>(iters) / timer.seconds());
  }
  if (sink == 12345.0) std::printf("anti-dce %f\n", sink);
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = rlplan::bench::flag_present(argc, argv, "smoke");
  const auto prim_iters = rlplan::bench::flag_int<std::size_t>(
      argc, argv, "iters", smoke ? 200000 : 2000000);
  const auto eval_iters = rlplan::bench::flag_int<std::size_t>(
      argc, argv, "eval-iters", smoke ? 2000 : 20000);
  const int reps = smoke ? 3 : 5;
  const std::string json_path =
      rlplan::bench::flag_str(argc, argv, "json", "BENCH_obs.json");
  const double max_counter_ns =
      rlplan::bench::flag_double(argc, argv, "max-counter-ns", 0.0);
  const double max_span_ns =
      rlplan::bench::flag_double(argc, argv, "max-span-ns", 0.0);
  const double max_overhead_pct =
      rlplan::bench::flag_double(argc, argv, "max-overhead-pct", 0.0);

  // ---- primitive costs -------------------------------------------------
  obs::set_enabled(false);
  const double counter_off_ns = counter_ns_per_op(prim_iters, reps);
  const double span_off_ns = span_ns_per_op(prim_iters, reps);
  obs::set_enabled(true);
  reset_telemetry();
  const double counter_on_ns = counter_ns_per_op(prim_iters, reps);
  const double span_on_ns = span_ns_per_op(prim_iters, reps);
  obs::set_enabled(false);

  std::printf("primitive costs (%zu iters, best of %d)\n", prim_iters, reps);
  std::printf("%-24s %12s %12s\n", "primitive", "disabled ns", "enabled ns");
  std::printf("%-24s %12.2f %12.2f\n", "counter add", counter_off_ns,
              counter_on_ns);
  std::printf("%-24s %12.2f %12.2f\n", "span enter+exit", span_off_ns,
              span_on_ns);

  // ---- thermal hot-path overhead --------------------------------------
  const thermal::FastThermalModel model = synthetic_model();
  systems::SyntheticConfig sc;
  sc.min_chiplets = 8;
  sc.max_chiplets = 8;
  sc.interposer_w_mm = kInterposer;
  sc.interposer_h_mm = kInterposer;
  sc.max_utilization = 0.45;
  const ChipletSystem sys =
      systems::SyntheticSystemGenerator(sc).generate(777, "bench-obs");
  Rng rng(11);
  const Floorplan fp = systems::random_legal_floorplan(sys, rng);

  // Warm up once so characterisation-free table setup, page faults, etc. hit
  // neither timed leg.
  (void)model.evaluate(sys, fp);
  const double off_eps =
      thermal_evals_per_sec(model, sys, fp, eval_iters, reps);
  obs::set_enabled(true);
  reset_telemetry();
  const double on_eps = thermal_evals_per_sec(model, sys, fp, eval_iters, reps);
  obs::set_enabled(false);
  const double overhead_pct = 100.0 * (off_eps / on_eps - 1.0);

  std::printf("\nthermal evaluate() hot path (8 chiplets, %zu evals, best of "
              "%d)\n",
              eval_iters, reps);
  std::printf("  disabled: %12.1f evals/s\n", off_eps);
  std::printf("  enabled:  %12.1f evals/s\n", on_eps);
  std::printf("  overhead: %+.2f%%\n", overhead_pct);

  // ---- JSON ------------------------------------------------------------
  {
    std::ofstream os(json_path);
    if (!os) {
      std::fprintf(stderr, "[micro_obs] cannot write %s\n", json_path.c_str());
    } else {
      char buf[768];
      std::snprintf(
          buf, sizeof(buf),
          "{\n  \"bench\": \"micro_obs\",\n  \"smoke\": %s,\n"
          "  \"counter_disabled_ns\": %.3f,\n  \"counter_enabled_ns\": %.3f,\n"
          "  \"span_disabled_ns\": %.3f,\n  \"span_enabled_ns\": %.3f,\n"
          "  \"thermal_disabled_evals_per_sec\": %.1f,\n"
          "  \"thermal_enabled_evals_per_sec\": %.1f,\n"
          "  \"thermal_overhead_pct\": %.3f\n}\n",
          smoke ? "true" : "false", counter_off_ns, counter_on_ns, span_off_ns,
          span_on_ns, off_eps, on_eps, overhead_pct);
      os << buf;
      std::fprintf(stderr, "[micro_obs] wrote %s\n", json_path.c_str());
    }
  }

  // ---- gates -----------------------------------------------------------
  int rc = 0;
  if (max_counter_ns > 0.0 && counter_on_ns > max_counter_ns) {
    std::fprintf(stderr,
                 "[micro_obs] FAIL: enabled counter add %.2f ns exceeds gate "
                 "%.2f ns\n",
                 counter_on_ns, max_counter_ns);
    rc = 1;
  }
  if (max_span_ns > 0.0 && span_on_ns > max_span_ns) {
    std::fprintf(stderr,
                 "[micro_obs] FAIL: enabled span %.2f ns exceeds gate %.2f "
                 "ns\n",
                 span_on_ns, max_span_ns);
    rc = 1;
  }
  if (max_overhead_pct > 0.0 && overhead_pct > max_overhead_pct) {
    std::fprintf(stderr,
                 "[micro_obs] FAIL: thermal overhead %.2f%% exceeds gate "
                 "%.2f%%\n",
                 overhead_pct, max_overhead_pct);
    rc = 1;
  }
  return rc;
}
