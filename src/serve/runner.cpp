#include "serve/runner.h"

#include <memory>
#include <span>
#include <utility>

#include "bump/assigner.h"
#include "core/reward.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "rl/planner.h"  // first_fit_floorplan fallback
#include "rl/session.h"
#include "sa/tap25d.h"
#include "thermal/evaluator.h"
#include "thermal/grid_solver.h"
#include "thermal/incremental.h"
#include "util/log.h"
#include "util/timer.h"

namespace rlplan::serve {

namespace {

/// Forwarding decorator accumulating wall time spent inside the wrapped
/// evaluator — the honest "fast-model share" denominator for regress's
/// breakdown table (one steady_clock pair per query, ~40 ns against µs-scale
/// evals). Single-lane use only (one scenario leg); clone() stays
/// unavailable, which is fine because both legs run their optimizers
/// serially within a lane.
class TimedEvaluator final : public thermal::ThermalEvaluator {
 public:
  explicit TimedEvaluator(std::unique_ptr<thermal::ThermalEvaluator> inner)
      : inner_(std::move(inner)) {}

  double max_temperature(const ChipletSystem& system,
                         const Floorplan& floorplan) override {
    const Timer t;
    const double v = inner_->max_temperature(system, floorplan);
    seconds_ += t.seconds();
    return v;
  }
  std::vector<double> max_temperature_batch(
      const ChipletSystem& system, std::span<const Floorplan> floorplans,
      parallel::ThreadPool* pool = nullptr) override {
    const Timer t;
    auto v = inner_->max_temperature_batch(system, floorplans, pool);
    seconds_ += t.seconds();
    return v;
  }
  long num_evaluations() const override { return inner_->num_evaluations(); }
  std::string name() const override { return inner_->name(); }

  bool supports_incremental() const override {
    return inner_->supports_incremental();
  }
  void notify_reset(const ChipletSystem& system) override {
    inner_->notify_reset(system);
  }
  void notify_place(const ChipletSystem& system, std::size_t i,
                    const Placement& p) override {
    const Timer t;
    inner_->notify_place(system, i, p);
    seconds_ += t.seconds();
  }
  void notify_remove(std::size_t i) override { inner_->notify_remove(i); }
  void commit() override { inner_->commit(); }
  void rollback() override { inner_->rollback(); }
  double incremental_max_temperature(const ChipletSystem& system,
                                     const Floorplan& floorplan) override {
    const Timer t;
    const double v = inner_->incremental_max_temperature(system, floorplan);
    seconds_ += t.seconds();
    return v;
  }

  double seconds() const { return seconds_; }

 private:
  std::unique_ptr<thermal::ThermalEvaluator> inner_;
  double seconds_ = 0.0;
};

LegResult run_sa_leg(const systems::Scenario& scenario,
                     const ChipletSystem& system,
                     const thermal::FastThermalModel& model,
                     const thermal::LayerStack& stack,
                     const thermal::GridDims& truth_dims,
                     std::size_t sa_population,
                     const robust::RunControl& control) {
  sa::Tap25dConfig tc;
  tc.anneal.max_evaluations = scenario.budget.sa_evaluations;
  tc.anneal.moves_per_temperature = scenario.budget.sa_moves_per_temperature;
  tc.anneal.cooling = scenario.budget.sa_cooling;
  tc.anneal.t_final = 1e-5;
  tc.anneal.control = control;
  tc.seed = scenario.seed;
  // Population mode batches inside a scenario; caller-level parallelism
  // already saturates the pool, so the batch itself stays on this lane.
  tc.population = sa_population;
  tc.batch_threads = 0;
  sa::Tap25dPlanner planner(tc);
  TimedEvaluator evaluator(
      std::make_unique<thermal::IncrementalFastModelEvaluator>(model));
  const RewardCalculator rc;
  const bump::BumpAssigner assigner;

  const Timer timer;
  const sa::Tap25dResult result = planner.plan(system, evaluator, rc,
                                               assigner);
  LegResult leg;
  leg.ran = true;
  leg.seconds = timer.seconds();
  leg.fast_seconds = evaluator.seconds();
  leg.stop_reason = result.stats.stop_reason;
  leg.legal = result.best.is_complete() && result.best.is_legal();
  leg.work = result.stats.evaluations;
  leg.throughput = result.evaluations_per_second();
  leg.wirelength_mm = assigner.assign(system, result.best).total_mm;
  thermal::GridThermalSolver truth(stack, {.dims = truth_dims});
  const Timer truth_timer;
  leg.temp_c = truth.solve(system, result.best).max_temp_c;
  leg.truth_seconds = truth_timer.seconds();
  leg.reward = rc.reward(leg.wirelength_mm, leg.temp_c);
  leg.best = result.best;
  return leg;
}

struct RlLegOutcome {
  LegResult leg;
  bool warm_loaded = false;
  bool warm_saved = false;
};

/// The runner's spare lanes as one run sees them (see the lending rule in
/// runner.h).
struct SpareLanes {
  std::unique_ptr<parallel::ThreadPool>& pool;  ///< guarded by `mutex`
  std::mutex& mutex;
  const std::atomic<int>& runs_in_flight;

  /// The pool, locked through `lease` for one epoch, when the host has
  /// lanes to spare, this run is the only one in flight and nobody holds
  /// the pool; built at the first loan. Null otherwise.
  parallel::ThreadPool* borrow(std::unique_lock<std::mutex>& lease) const {
    const std::size_t spare = parallel::ThreadPool::hardware_threads() - 1;
    if (spare < 2 || runs_in_flight.load() != 1) return nullptr;
    lease = std::unique_lock<std::mutex>(mutex, std::try_to_lock);
    if (!lease.owns_lock()) return nullptr;
    if (!pool) pool = std::make_unique<parallel::ThreadPool>(spare);
    return pool.get();
  }
};

RlLegOutcome run_rl_leg(const systems::Scenario& scenario,
                        const ChipletSystem& system,
                        const thermal::FastThermalModel& model,
                        const thermal::LayerStack& stack,
                        const thermal::GridDims& truth_dims,
                        const robust::RunControl& control, bool warm_start,
                        WarmStartCache& warm, const SpareLanes& spare) {
  // The RL leg drives the TrainingSession engine directly (the same engine
  // behind RlPlanner and tools/train.cpp): one single-scenario session over
  // the shared fast model, budgeted epochs, final greedy decode, then
  // ground-truth scoring of the best floorplan.
  rl::TrainingSessionConfig sc;
  sc.env.grid = scenario.budget.rl_grid;
  sc.net.grid = scenario.budget.rl_grid;
  sc.ppo.episodes_per_update = scenario.budget.rl_episodes_per_update;
  sc.seed = scenario.seed;
  sc.control = control;
  std::vector<rl::SessionTask> tasks;
  auto timed = std::make_unique<TimedEvaluator>(
      std::make_unique<thermal::IncrementalFastModelEvaluator>(model));
  const TimedEvaluator* timed_view = timed.get();  // session owns it
  tasks.push_back({scenario.name, &system, std::move(timed)});
  rl::TrainingSession session(sc, std::move(tasks));

  RlLegOutcome out;
  const bool use_warm = warm_start && warm.enabled();
  const std::string family = use_warm ? scenario_family_key(scenario) : "";
  if (use_warm) {
    // Weights-only fine-tuning load. A missing or shape-incompatible
    // checkpoint is a miss, never an error: the job simply runs cold.
    if (const auto path = warm.lookup(family)) {
      try {
        session.load_checkpoint(*path, /*warm_start=*/true);
        out.warm_loaded = true;
        warm.note_hit();
        RLPLAN_COUNTER_INC("serve.warm.hit");
      } catch (const std::exception& e) {
        warm.note_miss();
        RLPLAN_COUNTER_INC("serve.warm.miss");
        RLPLAN_WARN << "warm checkpoint " << *path << " rejected: "
                    << e.what();
      }
    } else {
      warm.note_miss();
      RLPLAN_COUNTER_INC("serve.warm.miss");
    }
  }

  const Timer timer;
  LegResult& leg = out.leg;
  for (int epoch = 0; epoch < scenario.budget.rl_epochs; ++epoch) {
    std::unique_lock<std::mutex> lease;
    const rl::TrainStats stats = session.train_epoch(spare.borrow(lease));
    if (stats.update_skipped) ++leg.skipped_updates;
    if (stats.stop_reason != robust::StopReason::kNone) {
      leg.stop_reason = stats.stop_reason;  // best-so-far from here on
      break;
    }
  }
  session.greedy_episode(0);  // final greedy decode, as RlPlanner does
  leg.ran = true;
  leg.seconds = timer.seconds();
  leg.fast_seconds = timed_view->seconds();
  leg.work = session.total_env_steps();
  leg.throughput =
      leg.seconds > 0.0 ? static_cast<double>(leg.work) / leg.seconds : 0.0;

  if (use_warm && leg.stop_reason == robust::StopReason::kNone) {
    // Publish the trained policy for the next job of this family. The save
    // is atomic write-then-rename, so a concurrent reader of the old file
    // is never torn; losing a race to another job of the same family just
    // means the other job's equally fresh weights win.
    try {
      session.save_checkpoint(warm.store_path(family));
      out.warm_saved = true;
      warm.note_store();
      RLPLAN_COUNTER_INC("serve.warm.store");
    } catch (const std::exception& e) {
      RLPLAN_WARN << "warm checkpoint publish failed: " << e.what();
    }
  }

  // Degrade gracefully when the short budget never completed an episode —
  // the first-fit fallback RlPlanner applies (scores will still be gated).
  std::optional<Floorplan> best;
  if (session.has_best(0)) {
    best = session.best_floorplan(0);
  } else {
    try {
      best = rl::first_fit_floorplan(system, sc.env);
    } catch (const std::exception&) {
      return out;  // nothing fits: leg stays illegal
    }
  }
  leg.legal = best->is_complete() && best->is_legal();
  const bump::BumpAssigner assigner;
  leg.wirelength_mm = assigner.assign(system, *best).total_mm;
  thermal::GridThermalSolver truth(stack, {.dims = truth_dims});
  const Timer truth_timer;
  leg.temp_c = truth.solve(system, *best).max_temp_c;
  leg.truth_seconds = truth_timer.seconds();
  leg.reward = RewardCalculator{}.reward(leg.wirelength_mm, leg.temp_c);
  leg.best = std::move(best);
  return out;
}

/// Re-scores every leg's best floorplan on the fast model through one
/// batched SoA call — the surrogate-vs-truth fidelity column of the report.
double score_legs_fast(const ChipletSystem& system,
                       const thermal::FastThermalModel& model,
                       std::vector<LegResult*> legs) {
  std::vector<Floorplan> candidates;
  std::vector<LegResult*> owners;
  for (LegResult* leg : legs) {
    if (leg->ran && leg->best.has_value()) {
      candidates.push_back(*leg->best);
      owners.push_back(leg);
    }
  }
  if (candidates.empty()) return 0.0;
  const Timer timer;
  const auto results = model.evaluate_batch(
      system, std::span<const Floorplan>(candidates));
  for (std::size_t i = 0; i < owners.size(); ++i) {
    owners[i]->fast_temp_c = results[i].max_temp_c;
  }
  return timer.seconds();
}

void report_phase(const RunOptions& opts, const char* phase) {
  if (opts.progress) opts.progress(phase);
}

}  // namespace

thermal::CharacterizationConfig RunnerConfig::coarse_characterization() {
  thermal::CharacterizationConfig cc;
  cc.solver.dims = {24, 24};
  cc.auto_axis_points = 5;
  return cc;
}

ScenarioRunner::ScenarioRunner(const thermal::LayerStack& stack,
                               RunnerConfig config)
    : config_(std::move(config)),
      models_(stack, config_.characterization),
      warm_(config_.warm_dir) {}

ScenarioRunner::~ScenarioRunner() = default;

ScenarioRunResult ScenarioRunner::run(const systems::Scenario& scenario,
                                      const RunOptions& opts) {
  RLPLAN_TRACE_SPAN("serve.run");
  runs_in_flight_.fetch_add(1);
  struct EndRun {
    std::atomic<int>& in_flight;
    ~EndRun() { in_flight.fetch_sub(1); }
  } end_run{runs_in_flight_};
  ScenarioRunResult r;
  r.name = scenario.name;
  try {
    const ChipletSystem system = scenario.build_system();
    r.chiplets = system.num_chiplets();
    report_phase(opts, "model");
    const thermal::FastThermalModel& model = models_.get(
        system.interposer_width(), system.interposer_height());
    // One wall-clock budget covers both optimizer legs (a slow SA leg leaves
    // correspondingly less time for the RL leg). The clock starts after the
    // shared characterization, which amortizes across jobs and must not eat
    // the first job's budget.
    robust::RunControl control;
    control.cancel = opts.cancel;
    if (opts.deadline_s > 0.0) {
      control.deadline = robust::Deadline::after_seconds(opts.deadline_s);
    }
    if (scenario.budget.run_sa) {
      report_phase(opts, "sa");
      r.sa = run_sa_leg(scenario, system, model, models_.stack(),
                        config_.truth_dims, config_.sa_population, control);
    }
    if (scenario.budget.run_rl) {
      report_phase(opts, "rl");
      RlLegOutcome rl = run_rl_leg(
          scenario, system, model, models_.stack(), config_.truth_dims,
          control, opts.warm_start, warm_,
          {spare_lanes_, spare_lanes_mutex_, runs_in_flight_});
      r.rl = std::move(rl.leg);
      r.warm_loaded = rl.warm_loaded;
      r.warm_saved = rl.warm_saved;
    }
    report_phase(opts, "score");
    r.fast_score_seconds = score_legs_fast(system, model, {&r.sa, &r.rl});
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return r;
}

util::JsonValue leg_to_json(const LegResult& leg) {
  util::JsonValue j = util::JsonValue::make_object();
  j.set("legal", leg.legal);
  j.set("temp_c", leg.temp_c);
  j.set("fast_temp_c", leg.fast_temp_c);
  j.set("wirelength_mm", leg.wirelength_mm);
  j.set("reward", leg.reward);
  j.set("work", leg.work);
  j.set("per_sec", leg.throughput);
  j.set("seconds", leg.seconds);
  j.set("truth_seconds", leg.truth_seconds);
  j.set("fast_model_seconds", leg.fast_seconds);
  // Degraded-only fields, mirroring train's JSONL: fault-free streams stay
  // byte-identical across builds.
  if (leg.degraded()) {
    j.set("degraded", true);
    j.set("stop_reason", std::string(robust::to_string(leg.stop_reason)));
    if (leg.skipped_updates > 0) j.set("skipped_updates", leg.skipped_updates);
  }
  return j;
}

util::JsonValue run_result_to_json(const ScenarioRunResult& r) {
  util::JsonValue j = util::JsonValue::make_object();
  j.set("name", r.name);
  j.set("chiplets", r.chiplets);
  if (!r.error.empty()) j.set("error", r.error);
  if (r.sa.ran) j.set("sa", leg_to_json(r.sa));
  if (r.rl.ran) j.set("rl", leg_to_json(r.rl));
  j.set("fast_score_seconds", r.fast_score_seconds);
  if (r.warm_loaded) j.set("warm_loaded", true);
  if (r.warm_saved) j.set("warm_saved", true);
  return j;
}

}  // namespace rlplan::serve
