// perfbench — one round of one benchmark workload, in a fresh process.
//
//   perfbench --workload=sa_large|rl_train|serve_mix --seed=N [--traced]
//
// A round is: set-up (build the workload's systems, then characterize every
// interposer footprint), the timed window (the
// workload's fixed list of jobs, in a fixed order), and the output checks.
// The last stdout line is one JSON record; run.py runs rounds in fresh
// processes and reduces them to the benchmark's metrics (README.md).
//
// Plain rounds run exactly what users run: ScenarioRunner::run for the
// inline workloads, ServeEngine behind a JsonlServer driven by Client
// connections for serve_mix. Traced rounds switch the obs spans and
// counters on and, for the inline workloads, run bench-local copies of the
// runner's SA and RL legs whose thermal evaluators are wrapped in
// LayerProbe. run.py checks that traced legs reproduce the plain legs bit
// for bit, so the copies cannot drift from ScenarioRunner unnoticed.
#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "bump/assigner.h"
#include "core/reward.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rl/planner.h"
#include "rl/session.h"
#include "sa/tap25d.h"
#include "serve/cache.h"
#include "serve/client.h"
#include "serve/engine.h"
#include "serve/runner.h"
#include "serve/server.h"
#include "systems/scenario.h"
#include "systems/synthetic.h"
#include "thermal/evaluator.h"
#include "thermal/grid_solver.h"
#include "thermal/incremental.h"
#include "thermal/layer_stack.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/timer.h"

using namespace rlplan;
using util::JsonValue;

namespace {

// ------------------------------------------------------------ workloads --

using systems::FamilyConfig;
using systems::NetTopology;
using systems::Scenario;

FamilyConfig family(NetTopology topology, std::size_t chiplets,
                    double interposer_mm, double die_min, double die_max,
                    double power_min, double power_max) {
  FamilyConfig f;
  f.topology = topology;
  f.chiplets = chiplets;
  f.interposer_w_mm = interposer_mm;
  f.interposer_h_mm = interposer_mm;
  f.min_dim_mm = die_min;
  f.max_dim_mm = die_max;
  f.min_power_w = power_min;
  f.max_power_w = power_max;
  return f;
}

/// Seeds stay below 2^31: they travel through scenario JSON (doubles) to
/// the serve daemon.
std::uint64_t draw_seed(Rng& rng) { return 1 + rng.uniform_int(1ULL << 30); }

Scenario family_scenario(std::string name, const FamilyConfig& f, Rng& rng) {
  Scenario s;
  s.name = std::move(name);
  s.family = f;
  s.family_seed = draw_seed(rng);
  s.seed = draw_seed(rng);
  return s;
}

/// sa_large: SA-only classic anneal on the three systems of the shipped
/// family_sweep32 / family_mesh36 / family_sweep64 scenarios (same generator
/// configs and generator seeds). The bench seed draws the anneal seeds only:
/// drawing the systems too made wall_s and cost vary 10-15% between seeds
/// (net counts of random topologies), on top of the host's timing noise.
std::vector<Scenario> sa_large_jobs(std::uint64_t seed) {
  Rng rng(seed ^ 0x5a1a49e5ULL);
  FamilyConfig sweep32 =
      family(NetTopology::kRandom, 32, 90, 3, 8, 3, 12);
  sweep32.extra_net_prob = 0.1;
  FamilyConfig mesh36 = family(NetTopology::kMesh, 36, 90, 3, 8, 3, 12);
  mesh36.max_aspect = 1.2;
  FamilyConfig sweep64 =
      family(NetTopology::kRandom, 64, 120, 3, 8, 2, 10);
  sweep64.extra_net_prob = 0.05;

  std::vector<Scenario> jobs;
  for (const auto& [name, config, family_seed, max_wirelength_mm] :
       {std::tuple{"sweep32", sweep32, 37, 600000.0},
        std::tuple{"mesh36", mesh36, 11, 400000.0},
        std::tuple{"sweep64", sweep64, 41, 1800000.0}}) {
    Scenario s;
    s.name = name;
    s.family = config;
    s.family_seed = family_seed;
    s.seed = draw_seed(rng);
    s.budget.sa_evaluations = 1500;
    s.budget.run_rl = false;
    s.envelope = {.max_temp_c = 130, .max_wirelength_mm = max_wirelength_mm};
    jobs.push_back(std::move(s));
  }
  return jobs;
}

/// rl_train: RL-only legs (serial collection, grid 16) on the two mid-size
/// builtins and kSkewSystems generated 16-die power-skew systems. RL's best
/// floorplan after a few epochs varies a lot with the seed, so the workload
/// averages more legs rather than running longer ones.
constexpr std::size_t kSkewSystems = 4;

std::vector<Scenario> rl_train_jobs(std::uint64_t seed) {
  Rng rng(seed ^ 0x7172a1a5ULL);
  std::vector<Scenario> jobs;
  for (const char* builtin : {"multi_gpu", "cpu_dram"}) {
    Scenario s;
    s.name = builtin;
    s.builtin = builtin;
    s.seed = draw_seed(rng);
    jobs.push_back(std::move(s));
  }
  FamilyConfig skew = family(NetTopology::kRandom, 16, 60, 3, 9, 2, 30);
  skew.power_skew = 4.0;
  skew.extra_net_prob = 0.2;
  for (std::size_t i = 0; i < kSkewSystems; ++i) {
    jobs.push_back(
        family_scenario("power_skew16_" + std::to_string(i), skew, rng));
  }
  for (Scenario& s : jobs) {
    s.budget.run_sa = false;
    s.budget.rl_epochs = 2;
    s.budget.rl_episodes_per_update = 8;
    s.budget.rl_grid = 16;
    s.envelope = {.max_temp_c = 250, .max_wirelength_mm = 1500000};
  }
  return jobs;
}

// 100 jobs leave ten latency samples beyond p90.
constexpr std::size_t kServeJobs = 100;
constexpr std::size_t kServeClients = 2;
constexpr std::size_t kServeWorkers = 2;
constexpr std::size_t kServeSaPopulation = 16;

/// serve_mix: small SA+RL jobs over four interposer footprints, each job
/// with its own topology, die count, generator seed and optimizer seed.
std::vector<Scenario> serve_mix_jobs(std::uint64_t seed) {
  struct Footprint {
    double mm;
    std::int64_t min_dies, max_dies;
    double max_temp_c, max_wirelength_mm;
  };
  static constexpr Footprint kFootprints[] = {
      {30, 3, 5, 200, 250000},
      {40, 4, 8, 200, 500000},
      {50, 6, 12, 200, 900000},
      {60, 8, 16, 200, 1400000}};
  static constexpr NetTopology kTopologies[] = {
      NetTopology::kRandom, NetTopology::kStar, NetTopology::kChain,
      NetTopology::kRing, NetTopology::kMesh, NetTopology::kBipartite};
  Rng rng(seed ^ 0x5e77e5ULL);
  std::vector<Scenario> jobs;
  jobs.reserve(kServeJobs);
  for (std::size_t i = 0; i < kServeJobs; ++i) {
    // Footprint, die count and topology follow a fixed cycle, so every seed
    // runs the same mix of job sizes; the seed draws the dies and nets.
    const Footprint& fp = kFootprints[i % std::size(kFootprints)];
    const std::size_t slot = i / std::size(kFootprints);
    const auto dies = static_cast<std::size_t>(
        fp.min_dies + static_cast<std::int64_t>(slot) %
                          (fp.max_dies - fp.min_dies + 1));
    const NetTopology topology = kTopologies[slot % std::size(kTopologies)];
    FamilyConfig f = family(topology, dies, fp.mm, 3, 8, 4, 20);
    Scenario s = family_scenario("job" + std::to_string(i), f, rng);
    s.budget.sa_evaluations = 320;
    s.budget.sa_moves_per_temperature = 4;
    s.budget.sa_cooling = 0.8;
    s.budget.rl_epochs = 1;
    s.budget.rl_episodes_per_update = 4;
    s.budget.rl_grid = 8;
    s.envelope = {.max_temp_c = fp.max_temp_c,
                  .max_wirelength_mm = fp.max_wirelength_mm};
    jobs.push_back(std::move(s));
  }
  return jobs;
}

// --------------------------------------------------------------- checks --

/// FNV-1a over every placement's exact coordinates and orientation.
std::uint64_t floorplan_hash(const Floorplan& fp) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](const void* data, std::size_t n) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (std::size_t k = 0; k < n; ++k) {
      h = (h ^ bytes[k]) * 1099511628211ULL;
    }
  };
  for (std::size_t i = 0; i < fp.num_chiplets(); ++i) {
    const auto& p = fp.placement(i);
    const unsigned char placed = p.has_value() ? 1 : 0;
    mix(&placed, 1);
    if (!p) continue;
    mix(&p->position.x, sizeof(double));
    mix(&p->position.y, sizeof(double));
    const unsigned char rotated = p->rotated ? 1 : 0;
    mix(&rotated, 1);
  }
  return h;
}

std::string exact(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Collects one round's per-leg outcomes and failed operations.
struct Outcomes {
  long attempted = 0;
  JsonValue failures = JsonValue::make_array();
  JsonValue legs = JsonValue::make_array();

  /// `op` names the failed operation (a job or one of its legs); several
  /// failures of one operation count once.
  void fail(const std::string& op, const std::string& why) {
    JsonValue f = JsonValue::make_object();
    f.set("op", op);
    f.set("why", why);
    failures.push_back(std::move(f));
  }

  /// One optimizer leg of a finished job (inline or served).
  void leg(const Scenario& s, const char* tag, bool legal, bool degraded,
           double temp_c, double wirelength_mm, double reward, long work,
           double seconds, const std::string& floorplan) {
    ++attempted;
    const std::string who = s.name + "/" + tag;
    if (!legal) fail(who, "floorplan incomplete or illegal");
    if (degraded) fail(who, "leg degraded (deadline, cancel or NaN guard)");
    if (!(temp_c <= s.envelope.max_temp_c)) {
      fail(who, "peak " + exact(temp_c) + " C above envelope " +
                    exact(s.envelope.max_temp_c));
    }
    if (!(wirelength_mm <= s.envelope.max_wirelength_mm)) {
      fail(who, "wirelength " + exact(wirelength_mm) +
                    " mm above envelope " +
                    exact(s.envelope.max_wirelength_mm));
    }
    JsonValue j = JsonValue::make_object();
    j.set("job", s.name);
    j.set("leg", tag);
    j.set("cost", -reward);
    j.set("temp_c", temp_c);
    j.set("wirelength_mm", wirelength_mm);
    j.set("work", work);
    j.set("seconds", seconds);
    j.set("digest", s.name + "/" + tag + " T=" + exact(temp_c) + " W=" +
                        exact(wirelength_mm) + " R=" + exact(reward) +
                        floorplan);
    legs.push_back(std::move(j));
  }

  void leg(const Scenario& s, const char* tag, const serve::LegResult& r) {
    const bool legal = r.legal && r.best.has_value() &&
                       r.best->is_complete() && r.best->is_legal();
    char fp[40] = "";
    if (r.best) {
      std::snprintf(fp, sizeof(fp), " F=%016" PRIx64,
                    floorplan_hash(*r.best));
    }
    leg(s, tag, legal, r.degraded(), r.temp_c, r.wirelength_mm, r.reward,
        r.work, r.seconds, fp);
  }

  void run(const Scenario& s, const serve::ScenarioRunResult& r) {
    if (!r.error.empty()) {
      ++attempted;
      fail(s.name, "error: " + r.error);
      return;
    }
    if (s.budget.run_sa) leg(s, "sa", r.sa);
    if (s.budget.run_rl) leg(s, "rl", r.rl);
  }
};

// ------------------------------------------------------------- probing --

/// Forwarding evaluator for traced legs. Times every thermal call, and
/// before each scoring query re-runs BumpAssigner::assign on the floorplan
/// being scored: SA's cost and the RL episode end call assign on exactly
/// that floorplan right before the thermal query, so the re-run measures
/// the wirelength layer on the optimizer's own candidates, in the same heap
/// state. The re-run's time is kept apart (bump_seconds) and taken out of
/// the leg's wall time. clone() stays unavailable, as for the runner's
/// TimedEvaluator: legs collect serially.
class LayerProbe final : public thermal::ThermalEvaluator {
 public:
  LayerProbe(std::unique_ptr<thermal::ThermalEvaluator> inner,
             bump::BumpAssigner assigner)
      : inner_(std::move(inner)), assigner_(std::move(assigner)) {}

  double max_temperature(const ChipletSystem& system,
                         const Floorplan& floorplan) override {
    replay_bump(system, floorplan);
    const Timer t;
    const double v = inner_->max_temperature(system, floorplan);
    thermal_s_ += t.seconds();
    return v;
  }
  std::vector<double> max_temperature_batch(
      const ChipletSystem& system, std::span<const Floorplan> floorplans,
      parallel::ThreadPool* pool = nullptr) override {
    for (const Floorplan& fp : floorplans) replay_bump(system, fp);
    const Timer t;
    auto v = inner_->max_temperature_batch(system, floorplans, pool);
    batch_s_ += t.seconds();
    batch_candidates_ += static_cast<long>(floorplans.size());
    return v;
  }
  long num_evaluations() const override { return inner_->num_evaluations(); }
  std::string name() const override { return inner_->name(); }

  bool supports_incremental() const override {
    return inner_->supports_incremental();
  }
  void notify_reset(const ChipletSystem& system) override {
    const Timer t;
    inner_->notify_reset(system);
    thermal_s_ += t.seconds();
  }
  void notify_place(const ChipletSystem& system, std::size_t i,
                    const Placement& p) override {
    const Timer t;
    inner_->notify_place(system, i, p);
    thermal_s_ += t.seconds();
  }
  void notify_remove(std::size_t i) override {
    const Timer t;
    inner_->notify_remove(i);
    thermal_s_ += t.seconds();
  }
  void commit() override {
    const Timer t;
    inner_->commit();
    thermal_s_ += t.seconds();
  }
  void rollback() override {
    const Timer t;
    inner_->rollback();
    thermal_s_ += t.seconds();
  }
  double incremental_max_temperature(const ChipletSystem& system,
                                     const Floorplan& floorplan) override {
    replay_bump(system, floorplan);
    const Timer t;
    const double v = inner_->incremental_max_temperature(system, floorplan);
    const double s = t.seconds();
    thermal_s_ += s;
    query_s_ += s;
    ++queries_;
    return v;
  }

  /// Incremental protocol + full evaluations (everything but batches).
  double thermal_seconds() const { return thermal_s_; }
  double query_seconds() const { return query_s_; }
  long queries() const { return queries_; }
  double batch_seconds() const { return batch_s_; }
  long batch_candidates() const { return batch_candidates_; }
  double bump_seconds() const { return bump_s_; }
  long bump_calls() const { return bump_calls_; }

 private:
  void replay_bump(const ChipletSystem& system, const Floorplan& floorplan) {
    const Timer t;
    const bump::WirelengthReport r = assigner_.assign(system, floorplan);
    bump_s_ += t.seconds();
    ++bump_calls_;
    sink_ += r.total_mm;
  }

  std::unique_ptr<thermal::ThermalEvaluator> inner_;
  bump::BumpAssigner assigner_;
  double thermal_s_ = 0.0, query_s_ = 0.0, batch_s_ = 0.0, bump_s_ = 0.0;
  long queries_ = 0, batch_candidates_ = 0, bump_calls_ = 0;
  double sink_ = 0.0;  // keeps the assign result observably used
};

/// Per-layer figures of one round, by metric name (see README.md).
using Layers = std::map<std::string, double>;

Layers empty_layers() {
  Layers l;
  for (const char* name :
       {"bump.assign_calls", "bump.assign_s", "sa.proposals",
        "sa.evaluations", "sa.accepted", "sa.rejected",
        "sa.unattributed_s", "thermal.incremental.queries",
        "thermal.incremental.query_s",
        "thermal.batch.candidates", "thermal.batch_s", "thermal.truth.solves",
        "thermal.truth_s", "thermal.characterize.footprints",
        "thermal.characterize_s", "rl.env_steps", "rl.episodes",
        "rl.dead_ends", "rl.collect_s", "rl.update_s", "rl.thermal_s",
        "rl.updates_skipped", "attributed_s"}) {
    l[name] = 0.0;
  }
  return l;
}

/// Working entries of Layers, erased before output: time spent in LayerProbe
/// bump re-runs, in total and inside rl.collect spans.
constexpr const char* kReplay = "replay_s";
constexpr const char* kCollectReplay = "collect_replay_s";

double lookup(const std::map<std::string, double>& m, const char* key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

std::map<std::string, double> span_totals_s() {
  std::map<std::string, double> out;
  const JsonValue rows = obs::trace_summary_json();
  for (const JsonValue& row : rows.as_array()) {
    out[row.at("name").as_string()] += row.at("total_ms").as_number() / 1e3;
  }
  return out;
}

std::map<std::string, double> counters() {
  std::map<std::string, double> out;
  for (const obs::MetricValue& m : obs::MetricsRegistry::instance().snapshot()) {
    if (m.kind == obs::MetricKind::kCounter) {
      out[m.name] = static_cast<double>(m.count);
    }
  }
  return out;
}

/// Bench-local copy of the runner's SA leg (serve/runner.cpp run_sa_leg)
/// with the evaluator wrapped in a LayerProbe.
serve::LegResult traced_sa_leg(const Scenario& scenario,
                               const ChipletSystem& system,
                               const thermal::FastThermalModel& model,
                               const thermal::LayerStack& stack,
                               const serve::RunnerConfig& config, Layers& l) {
  sa::Tap25dConfig tc;
  tc.anneal.max_evaluations = scenario.budget.sa_evaluations;
  tc.anneal.moves_per_temperature = scenario.budget.sa_moves_per_temperature;
  tc.anneal.cooling = scenario.budget.sa_cooling;
  tc.anneal.t_final = 1e-5;
  tc.seed = scenario.seed;
  tc.population = config.sa_population;
  tc.batch_threads = 0;
  sa::Tap25dPlanner planner(tc);
  const bump::BumpAssigner assigner;
  LayerProbe probe(
      std::make_unique<thermal::IncrementalFastModelEvaluator>(model),
      assigner);
  const RewardCalculator rc;

  const Timer timer;
  const sa::Tap25dResult result = planner.plan(system, probe, rc, assigner);
  serve::LegResult leg;
  leg.ran = true;
  leg.seconds = timer.seconds() - probe.bump_seconds();
  leg.fast_seconds = probe.thermal_seconds() + probe.batch_seconds();
  leg.stop_reason = result.stats.stop_reason;
  leg.legal = result.best.is_complete() && result.best.is_legal();
  leg.work = result.stats.evaluations;
  leg.throughput = leg.seconds > 0.0 ? leg.work / leg.seconds : 0.0;
  const Timer bump_timer;
  leg.wirelength_mm = assigner.assign(system, result.best).total_mm;
  const double final_bump_s = bump_timer.seconds();
  thermal::GridThermalSolver truth(stack, {.dims = config.truth_dims});
  const Timer truth_timer;
  leg.temp_c = truth.solve(system, result.best).max_temp_c;
  leg.truth_seconds = truth_timer.seconds();
  leg.reward = rc.reward(leg.wirelength_mm, leg.temp_c);
  leg.best = result.best;

  const double bump_s = probe.bump_seconds() + final_bump_s;
  l[kReplay] += probe.bump_seconds();
  l["bump.assign_calls"] += static_cast<double>(probe.bump_calls() + 1);
  l["bump.assign_s"] += bump_s;
  l["sa.evaluations"] += static_cast<double>(result.stats.evaluations);
  l["sa.unattributed_s"] +=
      leg.seconds - leg.fast_seconds - probe.bump_seconds();
  l["thermal.incremental.queries"] += static_cast<double>(probe.queries());
  l["thermal.incremental.query_s"] += probe.query_seconds();
  l["thermal.batch.candidates"] +=
      static_cast<double>(probe.batch_candidates());
  l["thermal.batch_s"] += probe.batch_seconds();
  l["thermal.truth.solves"] += 1;
  l["thermal.truth_s"] += leg.truth_seconds;
  // The SA leg's wall minus its thermal and wirelength layers is the move
  // proposal and anneal bookkeeping, which nothing measures: unattributed.
  l["attributed_s"] += leg.fast_seconds + bump_s + leg.truth_seconds;
  return leg;
}

/// Bench-local copy of the runner's RL leg (serve/runner.cpp run_rl_leg,
/// warm start off) with the evaluator wrapped in a LayerProbe.
serve::LegResult traced_rl_leg(const Scenario& scenario,
                               const ChipletSystem& system,
                               const thermal::FastThermalModel& model,
                               const thermal::LayerStack& stack,
                               const serve::RunnerConfig& config, Layers& l) {
  rl::TrainingSessionConfig sc;
  sc.env.grid = scenario.budget.rl_grid;
  sc.net.grid = scenario.budget.rl_grid;
  sc.ppo.episodes_per_update = scenario.budget.rl_episodes_per_update;
  sc.seed = scenario.seed;
  auto probe_owner = std::make_unique<LayerProbe>(
      std::make_unique<thermal::IncrementalFastModelEvaluator>(model),
      bump::BumpAssigner(sc.bump));
  const LayerProbe& probe = *probe_owner;  // the session owns it
  std::vector<rl::SessionTask> tasks;
  tasks.push_back({scenario.name, &system, std::move(probe_owner)});
  rl::TrainingSession session(sc, std::move(tasks));

  serve::LegResult leg;
  const Timer timer;
  for (int epoch = 0; epoch < scenario.budget.rl_epochs; ++epoch) {
    const rl::TrainStats stats = session.train_epoch();
    l["rl.env_steps"] += static_cast<double>(stats.steps);
    l["rl.episodes"] += static_cast<double>(stats.episodes);
    l["rl.dead_ends"] += static_cast<double>(stats.dead_ends);
    if (stats.update_skipped) ++leg.skipped_updates;
    if (stats.stop_reason != robust::StopReason::kNone) {
      leg.stop_reason = stats.stop_reason;
      break;
    }
  }
  // Collection is the only caller of the evaluator inside train_epoch, so
  // every bump re-run so far sits inside the rl.collect spans.
  const double collect_bump_s = probe.bump_seconds();
  session.greedy_episode(0);
  leg.ran = true;
  leg.seconds = timer.seconds() - probe.bump_seconds();
  leg.fast_seconds = probe.thermal_seconds();
  leg.work = session.total_env_steps();
  leg.throughput = leg.seconds > 0.0 ? leg.work / leg.seconds : 0.0;

  std::optional<Floorplan> best;
  if (session.has_best(0)) {
    best = session.best_floorplan(0);
  } else {
    try {
      best = rl::first_fit_floorplan(system, sc.env);
    } catch (const std::exception&) {
      return leg;
    }
  }
  leg.legal = best->is_complete() && best->is_legal();
  const bump::BumpAssigner assigner;
  const Timer bump_timer;
  leg.wirelength_mm = assigner.assign(system, *best).total_mm;
  const double final_bump_s = bump_timer.seconds();
  thermal::GridThermalSolver truth(stack, {.dims = config.truth_dims});
  const Timer truth_timer;
  leg.temp_c = truth.solve(system, *best).max_temp_c;
  leg.truth_seconds = truth_timer.seconds();
  leg.reward = RewardCalculator{}.reward(leg.wirelength_mm, leg.temp_c);
  leg.best = std::move(best);

  l[kReplay] += probe.bump_seconds();
  l[kCollectReplay] += collect_bump_s;
  l["bump.assign_calls"] += static_cast<double>(probe.bump_calls() + 1);
  l["bump.assign_s"] += probe.bump_seconds() + final_bump_s;
  l["rl.thermal_s"] += probe.thermal_seconds();
  l["rl.updates_skipped"] += leg.skipped_updates;
  l["thermal.incremental.queries"] += static_cast<double>(probe.queries());
  l["thermal.incremental.query_s"] += probe.query_seconds();
  l["thermal.truth.solves"] += 1;
  l["thermal.truth_s"] += leg.truth_seconds;
  l["attributed_s"] += final_bump_s + leg.truth_seconds;
  return leg;
}

// ------------------------------------------------------------ host speed --

/// Measures how fast the host runs while a round runs, so that timings can
/// be reported at one fixed host speed. The benchmark's hosts are shared
/// VMs whose CPU speed drifts by up to 2x over seconds (README.md), which
/// swamps any change in the program's own speed.
///
/// A thread runs a fixed reference kernel (a 64x64 double matmul, 8 times,
/// about 0.4 ms; bench code, so no program change moves it) every
/// kProbePeriod and records when it started and how long it took. The
/// slowdown over an interval is the mean kernel time of the samples that
/// started inside it, over kNominalSliceS. A timing divided by the slowdown
/// of its own interval is what it would read on a host where the kernel
/// takes kNominalSliceS. Runs of the same code then repeat within a few
/// percent where raw wall times spread 15-30%.
///
/// The probe keeps about 5% of one core busy and assumes the host has a
/// core to spare beside the workload's threads (the workloads use at most
/// two busy threads).
class SpeedProbe {
 public:
  static constexpr double kNominalSliceS = 0.4e-3;
  static constexpr std::chrono::milliseconds kProbePeriod{10};

  SpeedProbe() {
    for (int i = 0; i < kN * kN; ++i) {
      a_[i] = 1e-3 * (i % 7);
      b_[i] = 1e-3 * (i % 5);
    }
    samples_.reserve(1 << 15);
    thread_ = std::thread([this] { loop(); });
  }
  ~SpeedProbe() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    thread_.join();
  }
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  /// Seconds on the probe's clock, for interval bounds.
  double now() const { return clock_.seconds(); }

  /// Host slowdown over [t0, t1]: 1 at nominal speed, 2 at half speed.
  /// An interval no sample started in takes the sample nearest to it.
  double slowdown(double t0, double t1) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    double sum = 0.0;
    long n = 0;
    const Sample* nearest = nullptr;
    double nearest_gap = 0.0;
    for (const Sample& s : samples_) {
      if (s.start >= t0 && s.start <= t1) {
        sum += s.seconds;
        ++n;
      }
      const double gap = s.start < t0 ? t0 - s.start : s.start - t1;
      if (nearest == nullptr || gap < nearest_gap) {
        nearest = &s;
        nearest_gap = gap;
      }
    }
    if (n > 0) return sum / n / kNominalSliceS;
    if (nearest == nullptr) throw std::runtime_error("speed probe: no sample");
    return nearest->seconds / kNominalSliceS;
  }

  /// Runs `fn` and returns its wall time and that time at nominal speed.
  template <typename Fn>
  std::pair<double, double> time(Fn&& fn) const {
    const double t0 = now();
    fn();
    const double t1 = now();
    return {t1 - t0, (t1 - t0) / slowdown(t0, t1)};
  }

 private:
  static constexpr int kN = 64;
  struct Sample {
    double start, seconds;
  };

  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      lock.unlock();
      const double start = now();
      for (int r = 0; r < 8; ++r) {
        for (int i = 0; i < kN; ++i) {
          for (int k = 0; k < kN; ++k) {
            const double a = a_[i * kN + k];
            for (int j = 0; j < kN; ++j) c_[i * kN + j] += a * b_[k * kN + j];
          }
        }
      }
      const double seconds = now() - start;
      sink_ = c_[kN + 1];
      lock.lock();
      samples_.push_back({start, seconds});
      wake_.wait_for(lock, kProbePeriod, [this] { return stop_; });
    }
  }

  const Timer clock_;
  double a_[kN * kN], b_[kN * kN], c_[kN * kN] = {};
  volatile double sink_ = 0.0;  // keeps the kernel's result observably used
  mutable std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::vector<Sample> samples_;
  std::thread thread_;
};

// ---------------------------------------------------------------- rounds --

struct ProcSample {
  double cpu_s = 0.0;
  long minor_faults = 0;
  double max_rss_mb = 0.0;
};

ProcSample proc_sample() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcSample p;
  p.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  p.minor_faults = ru.ru_minflt;
  p.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
  return p;
}

/// Times are at nominal host speed (SpeedProbe) unless named raw.
struct Round {
  double setup_s = 0.0, setup_raw_s = 0.0;
  double wall_s = 0.0, wall_raw_s = 0.0;
  double slowdown = 1.0;        // over the timed window
  double setup_slowdown = 1.0;  // over the last set-up
  std::vector<double> latencies_s;
  Outcomes outcomes;
  Layers layers = empty_layers();
  ProcSample before, after;
};

std::set<std::pair<double, double>> footprints(
    const std::vector<ChipletSystem>& systems) {
  std::set<std::pair<double, double>> out;
  for (const ChipletSystem& s : systems) {
    out.emplace(s.interposer_width(), s.interposer_height());
  }
  return out;
}

/// Set-up is repeated kSetupRepeats times per round, each time from scratch
/// (fresh runner or engine, so every footprint is characterized again);
/// the round reports the median and keeps the last set-up for its window.
constexpr int kSetupRepeats = 3;

/// Times one set-up; records it in `raw` and `nominal`.
template <typename Fn>
void time_setup(const SpeedProbe& probe, Round& round, std::vector<double>& raw,
                std::vector<double>& nominal, Fn&& fn) {
  const double t0 = probe.now();
  fn();
  const double t1 = probe.now();
  round.setup_slowdown = probe.slowdown(t0, t1);
  raw.push_back(t1 - t0);
  nominal.push_back((t1 - t0) / round.setup_slowdown);
}

/// Puts the round's layer times at nominal host speed: characterization
/// ran in the last set-up, everything else in the timed window.
void normalize_layers(Round& round) {
  for (auto& [name, value] : round.layers) {
    if (name.size() < 2 || name.compare(name.size() - 2, 2, "_s") != 0) {
      continue;
    }
    value /= name == "thermal.characterize_s" ? round.setup_slowdown
                                              : round.slowdown;
  }
}

/// sa_large / rl_train: jobs run one after another on the calling thread.
Round inline_round(const std::vector<Scenario>& jobs, bool traced,
                   const SpeedProbe& probe) {
  Round round;
  const thermal::LayerStack stack = thermal::LayerStack::default_2p5d();
  const serve::RunnerConfig config;

  std::unique_ptr<serve::ScenarioRunner> runner_owner;
  std::vector<double> setup_raw_s, setup_s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    runner_owner.reset();
    time_setup(probe, round, setup_raw_s, setup_s, [&] {
      runner_owner = std::make_unique<serve::ScenarioRunner>(stack, config);
      std::vector<ChipletSystem> systems;
      for (const Scenario& s : jobs) systems.push_back(s.build_system());
      for (const auto& [w, h] : footprints(systems)) {
        runner_owner->model_cache().get(w, h);
      }
    });
  }
  serve::ScenarioRunner& runner = *runner_owner;
  round.setup_s = quantile(setup_s, 0.5);
  round.setup_raw_s = quantile(setup_raw_s, 0.5);
  const serve::CharacterizationCacheStats cs = runner.model_cache().stats();
  round.layers["thermal.characterize.footprints"] =
      static_cast<double>(cs.misses);
  round.layers["thermal.characterize_s"] = cs.characterize_seconds;

  round.before = proc_sample();
  const double window_start = probe.now();
  for (const Scenario& s : jobs) {
    const double job_start = probe.now();
    if (!traced) {
      round.outcomes.run(s, runner.run(s));
      const double job_end = probe.now();
      round.latencies_s.push_back((job_end - job_start) /
                                  probe.slowdown(job_start, job_end));
      continue;
    }
    // Mirrors ScenarioRunner::run: build, cached model, SA, RL, re-score.
    serve::ScenarioRunResult r;
    const double replay_before = round.layers[kReplay];
    try {
      const ChipletSystem system = s.build_system();
      const thermal::FastThermalModel& model = runner.model_cache().get(
          system.interposer_width(), system.interposer_height());
      if (s.budget.run_sa) {
        r.sa = traced_sa_leg(s, system, model, stack, config, round.layers);
      }
      if (s.budget.run_rl) {
        r.rl = traced_rl_leg(s, system, model, stack, config, round.layers);
      }
      std::vector<Floorplan> bests;
      for (const serve::LegResult* leg : {&r.sa, &r.rl}) {
        if (leg->ran && leg->best) bests.push_back(*leg->best);
      }
      const Timer rescore;
      model.evaluate_batch(system, std::span<const Floorplan>(bests));
      round.layers["thermal.batch.candidates"] +=
          static_cast<double>(bests.size());
      round.layers["thermal.batch_s"] += rescore.seconds();
      round.layers["attributed_s"] += rescore.seconds();
    } catch (const std::exception& e) {
      r.error = e.what();
    }
    round.outcomes.run(s, r);
    const double job_end = probe.now();
    round.latencies_s.push_back(
        (job_end - job_start - (round.layers[kReplay] - replay_before)) /
        probe.slowdown(job_start, job_end));
  }
  const double window_end = probe.now();
  round.wall_raw_s = window_end - window_start - round.layers[kReplay];
  round.slowdown = probe.slowdown(window_start, window_end);
  round.wall_s = round.wall_raw_s / round.slowdown;
  round.after = proc_sample();

  Layers& l = round.layers;
  if (traced) {
    const auto spans = span_totals_s();
    const auto c = counters();
    l["rl.collect_s"] = lookup(spans, "rl.collect") - l[kCollectReplay];
    l["rl.update_s"] = lookup(spans, "rl.update");
    l["attributed_s"] += l["rl.collect_s"] + l["rl.update_s"];
    l["sa.proposals"] = lookup(c, "sa.proposals");
    l["sa.accepted"] = lookup(c, "sa.accepted");
    l["sa.rejected"] = lookup(c, "sa.rejected");
  }
  l.erase(kReplay);
  l.erase(kCollectReplay);
  normalize_layers(round);
  l["unattributed_share"] = (round.wall_s - l["attributed_s"]) / round.wall_s;
  return round;
}

/// serve_mix: a closed loop of kServeClients connections against one
/// in-process engine over loopback TCP.
Round serve_round(const std::vector<Scenario>& jobs, bool traced,
                  const SpeedProbe& probe) {
  Round round;
  const thermal::LayerStack stack = thermal::LayerStack::default_2p5d();

  serve::ServeEngineConfig config;
  config.workers = kServeWorkers;
  config.runner.sa_population = kServeSaPopulation;
  std::unique_ptr<serve::ServeEngine> engine_owner;
  std::unique_ptr<serve::JsonlServer> server_owner;
  std::vector<JsonValue> requests;
  std::vector<double> setup_raw_s, setup_s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    server_owner.reset();  // stops the previous server before its engine
    engine_owner.reset();
    requests.clear();
    time_setup(probe, round, setup_raw_s, setup_s, [&] {
      engine_owner = std::make_unique<serve::ServeEngine>(stack, config);
      server_owner = std::make_unique<serve::JsonlServer>(*engine_owner);
      server_owner->start();
      std::vector<ChipletSystem> systems;
      for (const Scenario& s : jobs) {
        requests.push_back(systems::scenario_to_json(s));
        systems.push_back(s.build_system());
      }
      for (const auto& [w, h] : footprints(systems)) {
        engine_owner->runner().model_cache().get(w, h);
      }
    });
  }
  serve::ServeEngine& engine = *engine_owner;
  serve::JsonlServer& server = *server_owner;
  round.setup_s = quantile(setup_s, 0.5);
  round.setup_raw_s = quantile(setup_raw_s, 0.5);
  const serve::CharacterizationCacheStats setup_cache = engine.stats().cache;
  round.layers["thermal.characterize.footprints"] =
      static_cast<double>(setup_cache.misses);
  round.layers["thermal.characterize_s"] = setup_cache.characterize_seconds;

  std::vector<JsonValue> responses(jobs.size());
  // Raw client latency and its interval on the probe's clock.
  std::vector<double> latencies(jobs.size(), 0.0);
  std::vector<std::pair<double, double>> intervals(jobs.size());
  std::mutex error_mutex;
  std::vector<std::string> errors;
  round.before = proc_sample();
  const double window_start = probe.now();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kServeClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        serve::Client client;
        client.connect("127.0.0.1", server.port());
        for (std::size_t i = c; i < jobs.size(); i += kServeClients) {
          const double job_start = probe.now();
          const std::uint64_t id = client.submit(requests[i]);
          responses[i] = client.wait_result(id);
          intervals[i] = {job_start, probe.now()};
          latencies[i] = intervals[i].second - intervals[i].first;
        }
      } catch (const std::exception& e) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        errors.push_back(std::string("client: ") + e.what());
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double window_end = probe.now();
  round.wall_raw_s = window_end - window_start;
  round.slowdown = probe.slowdown(window_start, window_end);
  round.wall_s = round.wall_raw_s / round.slowdown;
  round.after = proc_sample();
  const serve::CharacterizationCacheStats cache = engine.stats().cache;
  server.stop();
  engine.shutdown();

  // A client that died leaves its remaining jobs without a response; they
  // fail below, one by one.
  for (const std::string& e : errors) std::fprintf(stderr, "%s\n", e.c_str());
  // Layer times are raw until normalize_layers below.
  Layers& l = round.layers;
  std::vector<double> queue_s, run_s, overhead_s;
  double latency_sum = 0.0;  // raw
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Scenario& s = jobs[i];
    const JsonValue& resp = responses[i];
    if (!resp.is_object() || !resp.bool_or("ok", false)) {
      ++round.outcomes.attempted;
      round.outcomes.fail(s.name, "no result: " + resp.dump());
      continue;
    }
    const JsonValue& job = resp.at("job");
    const std::string state = job.string_or("state", "");
    const JsonValue& result = resp.at("result");
    if (state != "done" || result.has("error")) {
      ++round.outcomes.attempted;
      round.outcomes.fail(s.name, "job ended " + state + " " +
                                      result.string_or("error", ""));
      continue;
    }
    round.latencies_s.push_back(
        latencies[i] / probe.slowdown(intervals[i].first, intervals[i].second));
    latency_sum += latencies[i];
    const double q = job.number_or("queued_seconds", 0.0);
    const double r = job.number_or("run_seconds", 0.0);
    queue_s.push_back(q);
    run_s.push_back(r);
    overhead_s.push_back(latencies[i] - q - r);
    l["attributed_s"] += q + (latencies[i] - q - r) +
                         result.number_or("fast_score_seconds", 0.0);
    l["thermal.batch_s"] += result.number_or("fast_score_seconds", 0.0);
    for (const char* tag : {"sa", "rl"}) {
      const JsonValue* leg = result.find(tag);
      if (leg == nullptr) {
        ++round.outcomes.attempted;
        round.outcomes.fail(s.name + "/" + tag, "leg missing from result");
        continue;
      }
      const double seconds = leg->number_or("seconds", 0.0);
      const double fast = leg->number_or("fast_model_seconds", 0.0);
      const double truth = leg->number_or("truth_seconds", 0.0);
      round.outcomes.leg(s, tag, leg->bool_or("legal", false),
                         leg->bool_or("degraded", false),
                         leg->number_or("temp_c", 0.0),
                         leg->number_or("wirelength_mm", 0.0),
                         leg->number_or("reward", 0.0),
                         static_cast<long>(leg->number_or("work", 0.0)),
                         seconds, "");
      l["thermal.truth.solves"] += 1;
      l["thermal.truth_s"] += truth;
      l["attributed_s"] += truth;
      if (std::strcmp(tag, "sa") == 0) {
        l["sa.evaluations"] += leg->number_or("work", 0.0);
        l["sa.unattributed_s"] += seconds - fast;
        l["thermal.batch_s"] += fast;
        l["attributed_s"] += fast;
      } else {
        l["rl.thermal_s"] += fast;
        l["thermal.incremental.query_s"] += fast;
        l["rl.updates_skipped"] += leg->number_or("skipped_updates", 0.0);
      }
    }
  }
  if (!queue_s.empty()) {
    l["serve.queue_wait_p90_s"] = quantile(queue_s, 0.9);
    l["serve.run_p50_s"] = quantile(run_s, 0.5);
    l["serve.overhead_p50_s"] = quantile(overhead_s, 0.5);
  }
  l["serve.cache.hits"] = static_cast<double>(cache.hits - setup_cache.hits);
  l["serve.cache.misses"] =
      static_cast<double>(cache.misses - setup_cache.misses);
  if (traced) {
    const auto spans = span_totals_s();
    const auto c = counters();
    l["rl.collect_s"] = lookup(spans, "rl.collect");
    l["rl.update_s"] = lookup(spans, "rl.update");
    l["attributed_s"] += l["rl.collect_s"] + l["rl.update_s"];
    l["rl.env_steps"] = lookup(c, "rl.env_steps");
    l["rl.episodes"] = lookup(c, "rl.episodes");
    l["sa.proposals"] = lookup(c, "sa.proposals");
    l["sa.accepted"] = lookup(c, "sa.accepted");
    l["sa.rejected"] = lookup(c, "sa.rejected");
    l["thermal.incremental.queries"] =
        lookup(c, "thermal.incremental.queries");
    l["thermal.batch.candidates"] = lookup(c, "thermal.batch.candidates");
  }
  // Jobs overlap in time, so shares are of summed client latency.
  l["unattributed_share"] =
      latency_sum > 0.0 ? (latency_sum - l["attributed_s"]) / latency_sum
                        : 0.0;
  normalize_layers(round);
  return round;
}

JsonValue to_json(const Round& round, const std::string& workload,
                  bool traced) {
  JsonValue j = JsonValue::make_object();
  j.set("workload", workload);
  j.set("traced", traced);
  j.set("setup_s", round.setup_s);
  j.set("setup_raw_s", round.setup_raw_s);
  j.set("wall_s", round.wall_s);
  j.set("wall_raw_s", round.wall_raw_s);
  j.set("slowdown", round.slowdown);
  JsonValue lat = JsonValue::make_array();
  for (double v : round.latencies_s) lat.push_back(v);
  j.set("latencies_s", std::move(lat));
  j.set("attempted", round.outcomes.attempted);
  j.set("failures", round.outcomes.failures);
  j.set("legs", round.outcomes.legs);
  j.set("peak_rss_mb", round.after.max_rss_mb);
  j.set("minor_faults", round.after.minor_faults - round.before.minor_faults);
  j.set("cpu_s", round.after.cpu_s - round.before.cpu_s);
  JsonValue layers = JsonValue::make_object();
  for (const auto& [name, value] : round.layers) layers.set(name, value);
  j.set("layers", std::move(layers));
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_given = false;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--workload=", 0) == 0) {
      workload = arg.substr(11);
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = std::stoull(arg.substr(7));
      seed_given = true;
    } else if (arg == "--traced") {
      traced = true;
    } else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (!seed_given) {
    std::fprintf(stderr, "perfbench: --seed=N is required\n");
    return 2;
  }
  if (traced) obs::set_enabled(true);

  try {
    const SpeedProbe probe;
    Round round;
    if (workload == "sa_large") {
      round = inline_round(sa_large_jobs(seed), traced, probe);
    } else if (workload == "rl_train") {
      round = inline_round(rl_train_jobs(seed), traced, probe);
    } else if (workload == "serve_mix") {
      round = serve_round(serve_mix_jobs(seed), traced, probe);
    } else {
      std::fprintf(stderr, "perfbench: unknown --workload=%s\n",
                   workload.c_str());
      return 2;
    }
    if (traced) {
      const obs::TraceStats ts = obs::trace_stats();
      if (ts.dropped > 0) {
        ++round.outcomes.attempted;
        round.outcomes.fail("trace", std::to_string(ts.dropped) +
                                         " spans dropped; layer times short");
      }
    }
    std::printf("%s\n", to_json(round, workload, traced).dump().c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
