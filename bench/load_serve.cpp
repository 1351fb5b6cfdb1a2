// load_serve — concurrent-client load bench for the serve daemon.
//
// Measures the daemon's reason to exist: aggregate throughput when N clients
// submit jobs concurrently against ONE resident engine (characterization
// paid once, shared), versus the cold baseline of running the same jobs
// sequentially through fresh single-use runners (characterization paid per
// job — what N cold CLI invocations would do).
//
// The served path is end-to-end real: an in-process ServeEngine behind a
// JsonlServer on an ephemeral loopback port, driven by real client threads
// over real TCP sockets speaking the JSONL protocol. Per-job latency is
// measured client-side (submit -> result line).
//
//   load_serve [--clients=8] [--jobs=8] [--sa-evals=1500]
//              [--scenario=scenarios/inline_tiny_trio.json]
//              [--smoke]              tiny budgets for CI
//              [--json=BENCH_serve.json]
//              [--min-jobs-per-sec=X] gate: served throughput floor,
//                                     scaled by --perf-scale (0 disables)
//              [--min-speedup=X]      gate: served/cold ratio floor
//                                     (skipped when --perf-scale=0)
//              [--perf-scale=X]
//
// Both paths use the runner's default characterization config — exactly what
// the daemon pays in production — so the measured speedup is the real
// amortization win, not a resolution trick in either direction.
#include <algorithm>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "serve/engine.h"
#include "serve/client.h"
#include "serve/server.h"
#include "systems/scenario.h"
#include "thermal/layer_stack.h"
#include "util/json.h"
#include "util/stats.h"
#include "util/timer.h"

using namespace rlplan;

namespace {

/// The job list: one base scenario (the smallest in-repo suite entry),
/// SA-only, with a distinct name and seed per job — same footprint, so the
/// resident engine characterizes once and every later job hits the cache.
std::vector<systems::Scenario> make_jobs(const std::string& scenario_path,
                                         std::size_t count, long sa_evals) {
  systems::Scenario base = systems::load_scenario_file(scenario_path);
  base.budget.run_rl = false;
  base.budget.sa_evaluations = sa_evals;
  std::vector<systems::Scenario> jobs;
  jobs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    systems::Scenario s = base;
    s.name = "load-" + std::to_string(i);
    s.seed = base.seed + static_cast<unsigned>(i);
    jobs.push_back(std::move(s));
  }
  return jobs;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t clients = bench::flag_int<std::size_t>(argc, argv, "clients", 8);
  std::size_t jobs_n = bench::flag_int<std::size_t>(argc, argv, "jobs", 8);
  long sa_evals = bench::flag_int<long>(argc, argv, "sa-evals", 1500);
  if (bench::flag_present(argc, argv, "smoke")) {
    clients = 8;
    jobs_n = 8;
    sa_evals = 400;
  }
  clients = std::max<std::size_t>(1, std::min(clients, jobs_n));
  const std::string json_path =
      bench::flag_str(argc, argv, "json", "BENCH_serve.json");
  const std::string scenario_path = bench::flag_str(
      argc, argv, "scenario", "scenarios/inline_tiny_trio.json");
  const double perf_scale = bench::flag_double(argc, argv, "perf-scale", 1.0);
  // A negative (or NaN) scale would turn the floors off like 0 does, but
  // silently.
  if (!(perf_scale >= 0.0)) {
    std::fprintf(stderr, "[load_serve] --perf-scale must be non-negative\n");
    return 2;
  }
  const double min_jobs_per_sec =
      bench::flag_double(argc, argv, "min-jobs-per-sec", 0.0);
  const double min_speedup =
      bench::flag_double(argc, argv, "min-speedup", 0.0);

  const thermal::LayerStack stack = thermal::LayerStack::default_2p5d();
  std::vector<systems::Scenario> jobs;
  try {
    jobs = make_jobs(scenario_path, jobs_n, sa_evals);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[load_serve] %s\n", e.what());
    return 2;
  }

  // Default RunnerConfig: the same coarse characterization the daemon and
  // regress use, so cold-vs-served measures what operators actually see.
  const serve::RunnerConfig runner_config;

  // ---- served: N concurrent clients over real TCP against one engine ----
  double served_s = 0.0;
  std::vector<double> latencies_ms(jobs_n, 0.0);
  serve::CharacterizationCacheStats cache_stats;
  {
    serve::ServeEngineConfig config;
    config.workers = clients;
    config.runner = runner_config;
    serve::ServeEngine engine(stack, config);
    serve::JsonlServer server(engine, {});
    server.start();
    const std::uint16_t port = server.port();

    std::mutex error_mutex;
    std::string first_error;
    const Timer timer;
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        try {
          serve::Client client;
          client.connect("127.0.0.1", port);
          for (std::size_t i = c; i < jobs_n; i += clients) {
            const Timer job_timer;
            const std::uint64_t id =
                client.submit(systems::scenario_to_json(jobs[i]));
            const util::JsonValue response = client.wait_result(id);
            latencies_ms[i] = job_timer.seconds() * 1e3;
            if (!response.bool_or("ok", false) ||
                response.at("job").string_or("state", "") != "done") {
              throw std::runtime_error("job " + jobs[i].name + " failed: " +
                                       response.dump());
            }
          }
        } catch (const std::exception& e) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (first_error.empty()) first_error = e.what();
        }
      });
    }
    for (std::thread& t : threads) t.join();
    served_s = timer.seconds();
    cache_stats = engine.stats().cache;
    server.stop();
    engine.shutdown();
    if (!first_error.empty()) {
      std::fprintf(stderr, "[load_serve] served run failed: %s\n",
                   first_error.c_str());
      return 2;
    }
  }

  // ---- cold baseline: sequential fresh runners (CLI-invocation model) ----
  const Timer cold_timer;
  for (const systems::Scenario& job : jobs) {
    serve::ScenarioRunner runner(stack, runner_config);
    const serve::ScenarioRunResult r = runner.run(job);
    if (!r.error.empty()) {
      std::fprintf(stderr, "[load_serve] cold run of %s failed: %s\n",
                   job.name.c_str(), r.error.c_str());
      return 2;
    }
  }
  const double cold_s = cold_timer.seconds();

  const double jobs_per_sec =
      served_s > 0.0 ? static_cast<double>(jobs_n) / served_s : 0.0;
  const double cold_jobs_per_sec =
      cold_s > 0.0 ? static_cast<double>(jobs_n) / cold_s : 0.0;
  const double speedup =
      cold_jobs_per_sec > 0.0 ? jobs_per_sec / cold_jobs_per_sec : 0.0;
  const double p50_ms = quantile(latencies_ms, 0.5);
  const double p99_ms = quantile(latencies_ms, 0.99);

  std::printf("[load_serve] %zu jobs, %zu clients: served %.2f jobs/s "
              "(p50 %.0f ms, p99 %.0f ms), cold %.2f jobs/s, speedup %.2fx, "
              "cache hit rate %.2f\n",
              jobs_n, clients, jobs_per_sec, p50_ms, p99_ms,
              cold_jobs_per_sec, speedup, cache_stats.hit_rate());

  util::JsonValue j = util::JsonValue::make_object();
  j.set("bench", "load_serve");
  j.set("clients", clients);
  j.set("jobs", jobs_n);
  j.set("sa_evals", sa_evals);
  j.set("perf_scale", perf_scale);
  j.set("jobs_per_sec", jobs_per_sec);
  j.set("cold_jobs_per_sec", cold_jobs_per_sec);
  j.set("speedup", speedup);
  j.set("latency_p50_ms", p50_ms);
  j.set("latency_p99_ms", p99_ms);
  j.set("cache_hits", cache_stats.hits);
  j.set("cache_misses", cache_stats.misses);
  j.set("cache_hit_rate", cache_stats.hit_rate());
  try {
    util::write_json_file(json_path, j);
    std::fprintf(stderr, "[load_serve] wrote %s\n", json_path.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[load_serve] %s\n", e.what());
    return 2;
  }

  int rc = 0;
  const double floor = min_jobs_per_sec * perf_scale;
  if (floor > 0.0 && jobs_per_sec < floor) {
    std::fprintf(stderr, "[load_serve] FAIL: %.2f jobs/s below floor %.2f\n",
                 jobs_per_sec, floor);
    rc = 1;
  }
  // The speedup gate is a ratio (timer-noise sensitive, not machine-speed
  // sensitive), but sanitizer builds distort the two paths unevenly — skip
  // it with the same switch that disables the absolute floors.
  if (min_speedup > 0.0 && perf_scale > 0.0 && speedup < min_speedup) {
    std::fprintf(stderr, "[load_serve] FAIL: speedup %.2fx below floor "
                 "%.2fx\n", speedup, min_speedup);
    rc = 1;
  }
  return rc;
}
