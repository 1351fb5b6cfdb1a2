// Scenario regression harness — the CI quality/perf gate.
//
// Loads every scenario JSON in --suite, fans the scenarios out over the
// shared thread pool (src/parallel), and runs each through the shared
// scenario-execution core (serve/runner.h): budgeted TAP-2.5D SA on the
// incremental fast model, a short-budget RLPlanner leg, ground-truth grid
// scoring of both, and one batched fast-model re-score. The harness itself
// keeps what is regression-specific: checking each leg against the
// scenario's golden envelope (peak-temperature and wirelength ceilings,
// legality, optimizer-throughput floors) and shaping the JSON report. The
// exit code is non-zero when any scenario leaves its envelope, so CI can
// gate on this binary directly.
//
// The execution core is the SAME code path the serve daemon runs, which is
// what makes the daemon's served-vs-inline parity guarantee checkable: CI
// diffs a served result against a regress run of the same scenario and they
// must match bit-for-bit on every deterministic field.
//
// Fast models are characterized once per distinct (interposer, ambient)
// footprint and shared across scenarios — the Table II workflow — at the
// runner's deliberately coarse resolution: the harness guards against
// *regressions*, so consistency run-to-run matters, sub-Kelvin absolute
// accuracy does not.
//
//   regress --suite=scenarios/ --json=BENCH_regress.json
//           [--threads=N]      worker threads (default: hardware)
//           [--filter=substr]  only scenarios whose name contains substr
//           [--perf-scale=X]   scale throughput floors (0 disables; use on
//                              sanitizer/debug builds where wall time is
//                              meaningless; X < 0 is a usage error, exit 2)
//           [--sa-population=K] score K SA perturbations per round as
//                              exact deltas on the fast model evaluator's
//                              incremental batch state (default 1 =
//                              classic incremental-protocol anneal; K < 1
//                              is a usage error, exit 2)
//           [--scenario-deadline-s=S] wall-clock budget per scenario; legs
//                              that hit it return best-so-far and are tagged
//                              "degraded" in the report (0 = unlimited)
//           [--list]           print the suite and exit
//           [--trace=t.json]   write a Chrome trace of the whole run
//           [--metrics=m.jsonl] write the merged metrics registry (JSONL)
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "serve/runner.h"
#include "systems/scenario.h"
#include "util/json.h"
#include "util/log.h"
#include "util/timer.h"

namespace {

using namespace rlplan;
using serve::LegResult;
using systems::Scenario;

/// One scenario's run outcome plus the envelope verdicts layered on top.
struct ScenarioResult {
  serve::ScenarioRunResult run;
  std::vector<std::string> failures;  ///< empty = within envelope
  std::vector<std::string> waived;    ///< breaches on degraded legs (no gate)
};

void check_leg(const char* tag, const LegResult& leg,
               const systems::ScenarioEnvelope& envelope, double floor_hz,
               double perf_scale, std::vector<std::string>& failures) {
  char buf[256];
  if (!leg.legal) {
    std::snprintf(buf, sizeof(buf), "%s: result is not a complete legal "
                  "floorplan", tag);
    failures.emplace_back(buf);
    return;
  }
  if (leg.temp_c > envelope.max_temp_c) {
    std::snprintf(buf, sizeof(buf),
                  "%s: peak temperature %.2f C exceeds envelope %.2f C", tag,
                  leg.temp_c, envelope.max_temp_c);
    failures.emplace_back(buf);
  }
  if (leg.wirelength_mm > envelope.max_wirelength_mm) {
    std::snprintf(buf, sizeof(buf),
                  "%s: wirelength %.0f mm exceeds envelope %.0f mm", tag,
                  leg.wirelength_mm, envelope.max_wirelength_mm);
    failures.emplace_back(buf);
  }
  const double floor = floor_hz * perf_scale;
  if (floor > 0.0 && leg.throughput < floor) {
    std::snprintf(buf, sizeof(buf),
                  "%s: throughput %.1f/s below floor %.1f/s", tag,
                  leg.throughput, floor);
    failures.emplace_back(buf);
  }
}

ScenarioResult run_scenario(const Scenario& scenario,
                            serve::ScenarioRunner& runner, double perf_scale,
                            double deadline_s) {
  serve::RunOptions opts;
  opts.deadline_s = deadline_s;
  ScenarioResult r;
  r.run = runner.run(scenario, opts);
  // A degraded leg (deadline hit, NaN-guard rollback) reports best-so-far;
  // its envelope breaches are surfaced as "waived" instead of failing the
  // gate, so chaos/deadline runs assert "in-envelope or explicitly
  // degraded-tagged" rather than crashing the suite status.
  if (r.run.sa.ran) {
    check_leg("sa", r.run.sa, scenario.envelope,
              scenario.envelope.min_sa_evals_per_sec, perf_scale,
              r.run.sa.degraded() ? r.waived : r.failures);
  }
  if (r.run.rl.ran) {
    check_leg("rl", r.run.rl, scenario.envelope,
              scenario.envelope.min_rl_steps_per_sec, perf_scale,
              r.run.rl.degraded() ? r.waived : r.failures);
  }
  return r;
}

util::JsonValue report_to_json(const std::string& suite,
                               const std::vector<ScenarioResult>& results,
                               double perf_scale, std::size_t threads) {
  util::JsonValue j = util::JsonValue::make_object();
  j.set("bench", "scenario_regress");
  j.set("suite", suite);
  j.set("perf_scale", perf_scale);
  j.set("threads", threads);
  util::JsonValue rows = util::JsonValue::make_array();
  std::size_t failed = 0;
  for (const ScenarioResult& r : results) {
    util::JsonValue row = util::JsonValue::make_object();
    row.set("name", r.run.name);
    row.set("chiplets", r.run.chiplets);
    const bool pass = r.run.error.empty() && r.failures.empty();
    row.set("pass", pass);
    if (!pass) ++failed;
    if (!r.run.error.empty()) row.set("error", r.run.error);
    util::JsonValue failures = util::JsonValue::make_array();
    for (const std::string& f : r.failures) failures.push_back(f);
    row.set("failures", std::move(failures));
    if (!r.waived.empty()) {
      util::JsonValue waived = util::JsonValue::make_array();
      for (const std::string& w : r.waived) waived.push_back(w);
      row.set("waived", std::move(waived));
    }
    if (r.run.sa.ran) row.set("sa", serve::leg_to_json(r.run.sa));
    if (r.run.rl.ran) row.set("rl", serve::leg_to_json(r.run.rl));
    row.set("fast_score_seconds", r.run.fast_score_seconds);
    rows.push_back(std::move(row));
  }
  j.set("scenarios", std::move(rows));
  j.set("passed", results.size() - failed);
  j.set("failed", failed);
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string suite_dir =
      bench::flag_str(argc, argv, "suite", "scenarios/");
  const std::string json_path =
      bench::flag_str(argc, argv, "json", "BENCH_regress.json");
  const std::string filter = bench::flag_str(argc, argv, "filter", "");
  const double perf_scale =
      bench::flag_double(argc, argv, "perf-scale", 1.0);
  // A negative (or NaN) scale would turn every floor off like 0 does, but
  // silently.
  if (!(perf_scale >= 0.0)) {
    std::fprintf(stderr, "[regress] --perf-scale must be non-negative\n");
    return 2;
  }
  const auto sa_population =
      bench::flag_int<std::size_t>(argc, argv, "sa-population", 1);
  // Checked before the suite load: 0 would fail every scenario.
  if (sa_population == 0) {
    std::fprintf(stderr, "[regress] --sa-population must be at least 1\n");
    return 2;
  }
  const double scenario_deadline_s =
      bench::flag_double(argc, argv, "scenario-deadline-s", 0.0);
  auto threads = bench::flag_int<std::size_t>(
      argc, argv, "threads", parallel::ThreadPool::hardware_threads());
  // Telemetry side channel: spans/counters from every layer the scenarios
  // exercise. Enabling it never changes scores (CI proves determinism).
  const std::string trace_path = bench::flag_str(argc, argv, "trace", "");
  const std::string metrics_path = bench::flag_str(argc, argv, "metrics", "");
  if (!trace_path.empty() || !metrics_path.empty()) {
    obs::set_enabled(true);
    set_log_prefix(true);
  }

  std::vector<Scenario> suite;
  try {
    suite = systems::load_scenario_suite(suite_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[regress] %s\n", e.what());
    return 2;
  }
  if (!filter.empty()) {
    std::erase_if(suite, [&](const Scenario& s) {
      return s.name.find(filter) == std::string::npos;
    });
  }
  if (bench::flag_present(argc, argv, "list")) {
    for (const Scenario& s : suite) {
      std::printf("%-24s %s\n", s.name.c_str(), s.description.c_str());
    }
    return 0;
  }
  if (suite.empty()) {
    std::fprintf(stderr, "[regress] no scenarios in %s match\n",
                 suite_dir.c_str());
    return 2;
  }

  serve::RunnerConfig runner_config;
  runner_config.sa_population = sa_population;
  serve::ScenarioRunner runner(thermal::LayerStack::default_2p5d(),
                               runner_config);
  std::vector<ScenarioResult> results(suite.size());

  const Timer timer;
  // The caller thread participates in parallel_for, so a pool of size 0
  // still provides one execution lane.
  const std::size_t lanes = std::max<std::size_t>(
      1, std::min(threads, suite.size()));
  parallel::ThreadPool pool(lanes);
  pool.parallel_for(suite.size(), [&](std::size_t i) {
    results[i] = run_scenario(suite[i], runner, perf_scale,
                              scenario_deadline_s);
    const ScenarioResult& r = results[i];
    std::fprintf(stderr, "[regress] %-24s %s%s\n", r.run.name.c_str(),
                 r.run.error.empty() && r.failures.empty() ? "ok" : "FAIL",
                 r.run.degraded() ? " (degraded)" : "");
  });
  const double total_s = timer.seconds();
  const serve::CharacterizationCacheStats cache_stats =
      runner.model_cache().stats();
  std::fprintf(stderr,
               "[regress] characterized %zu footprint(s) in %.1f s "
               "(%llu cache hits)\n",
               runner.model_cache().entries(),
               cache_stats.characterize_seconds,
               static_cast<unsigned long long>(cache_stats.hits));

  std::printf("\n%-24s %8s %5s %9s %11s %11s %9s\n", "Scenario", "chiplets",
              "leg", "temp(C)", "WL(mm)", "thru(/s)", "status");
  std::size_t failed = 0;
  for (const ScenarioResult& r : results) {
    const bool pass = r.run.error.empty() && r.failures.empty();
    if (!pass) ++failed;
    const auto print_leg = [&](const char* tag, const LegResult& leg) {
      if (!leg.ran) return;
      std::printf("%-24s %8zu %5s %9.2f %11.0f %11.1f %9s\n",
                  r.run.name.c_str(), r.run.chiplets, tag, leg.temp_c,
                  leg.wirelength_mm, leg.throughput, pass ? "ok" : "FAIL");
    };
    print_leg("sa", r.run.sa);
    print_leg("rl", r.run.rl);
    if (!r.run.error.empty()) {
      std::printf("%-24s error: %s\n", r.run.name.c_str(),
                  r.run.error.c_str());
    }
    for (const std::string& f : r.failures) {
      std::printf("%-24s breach: %s\n", r.run.name.c_str(), f.c_str());
    }
    for (const std::string& w : r.waived) {
      std::printf("%-24s waived (degraded leg): %s\n", r.run.name.c_str(),
                  w.c_str());
    }
  }
  // Per-scenario time breakdown: where each scenario's wall time went — the
  // SA and RL optimizer legs, the ground-truth grid solves that score them,
  // and how much of the optimizer time the fast thermal model consumed (the
  // paper's speed/accuracy trade, measured per scenario instead of assumed).
  std::printf("\n%-24s %8s %8s %9s %9s %11s\n", "Scenario", "sa(s)", "rl(s)",
              "truth(s)", "fast(s)", "fast-share");
  double tot_sa = 0.0, tot_rl = 0.0, tot_truth = 0.0, tot_fast = 0.0;
  for (const ScenarioResult& r : results) {
    const double truth_s = r.run.sa.truth_seconds + r.run.rl.truth_seconds;
    const double fast_s = r.run.sa.fast_seconds + r.run.rl.fast_seconds +
                          r.run.fast_score_seconds;
    const double opt_s = r.run.sa.seconds + r.run.rl.seconds;
    tot_sa += r.run.sa.seconds;
    tot_rl += r.run.rl.seconds;
    tot_truth += truth_s;
    tot_fast += fast_s;
    std::printf("%-24s %8.2f %8.2f %9.2f %9.2f %10.1f%%\n",
                r.run.name.c_str(), r.run.sa.seconds, r.run.rl.seconds,
                truth_s, fast_s, opt_s > 0.0 ? 100.0 * fast_s / opt_s : 0.0);
  }
  const double tot_opt = tot_sa + tot_rl;
  std::printf("%-24s %8.2f %8.2f %9.2f %9.2f %10.1f%%\n", "TOTAL", tot_sa,
              tot_rl, tot_truth, tot_fast,
              tot_opt > 0.0 ? 100.0 * tot_fast / tot_opt : 0.0);

  std::printf("\n[regress] %zu/%zu scenarios within envelopes (%.1f s)\n",
              results.size() - failed, results.size(), total_s);

  try {
    util::write_json_file(json_path,
                          report_to_json(suite_dir, results, perf_scale,
                                         lanes));
    std::fprintf(stderr, "[regress] wrote %s\n", json_path.c_str());
    if (!trace_path.empty()) {
      obs::write_chrome_trace(trace_path);
      std::fprintf(stderr, "[regress] wrote trace to %s\n",
                   trace_path.c_str());
    }
    if (!metrics_path.empty()) {
      obs::MetricsRegistry::instance().write_jsonl(metrics_path);
      std::fprintf(stderr, "[regress] wrote metrics to %s\n",
                   metrics_path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[regress] %s\n", e.what());
    return 2;
  }
  return failed == 0 ? 0 : 1;
}
