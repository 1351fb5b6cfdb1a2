// Shared scenario execution core — ONE implementation behind the regress CLI
// and the serve daemon.
//
// tools/regress.cpp used to own the run-one-scenario pipeline (characterized
// fast model -> SA leg -> RL leg -> ground-truth scoring -> batched fast
// re-score). The daemon must produce results *bit-identical* to a direct
// regress run of the same scenario+seed — the serve-smoke CI gate diffs the
// two — and the only robust way to guarantee that is for both to call the
// same code. So the pipeline lives here: regress keeps envelope gating and
// report shaping, serve adds scheduling and caching, and both delegate the
// actual optimization to ScenarioRunner::run().
//
// Determinism contract: a run is a pure function of (scenario, layer stack,
// RunnerConfig, warm-start input). Every optimizer seed derives from the
// scenario; SA and RL legs run on the calling thread; the batched fast
// re-score runs pool-free. Timing fields (seconds, throughput) are the only
// nondeterministic outputs. Cancellation/deadline only ever *shorten* the
// same deterministic sequence (legs return best-so-far tagged with a
// StopReason), and warm starts are opt-in precisely because they change
// results.
//
// Lending rule: the runner owns one pool of hardware_threads() − 1 lanes
// (none below three hardware threads), built at its first loan. An RL leg
// borrows it for an epoch's PPO update only while its run() is the runner's
// only run in flight and nobody else holds the pool. So regress lanes and
// busy serve workers never oversubscribe the cores, a lone job gets the
// spare ones, one core stays free for the caller's other threads, and a
// runner that runs no RL leg alone starts no thread. The update's results
// do not depend on its lanes (rl/ppo.h), so lending changes no output.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/floorplan.h"
#include "robust/robust.h"
#include "serve/cache.h"
#include "systems/scenario.h"
#include "thermal/grid_model.h"
#include "util/json.h"

namespace rlplan::parallel {
class ThreadPool;
}  // namespace rlplan::parallel

namespace rlplan::serve {

/// One optimizer leg's scored outcome.
struct LegResult {
  bool ran = false;
  bool legal = false;
  double temp_c = 0.0;          ///< ground-truth peak temperature
  double fast_temp_c = 0.0;     ///< fast-model peak (batched SoA scoring)
  double wirelength_mm = 0.0;   ///< microbump wirelength
  double reward = 0.0;
  double throughput = 0.0;      ///< SA: evals/s, RL: env steps/s
  long work = 0;                ///< SA: evaluations, RL: env steps
  double seconds = 0.0;         ///< optimizer wall time (excludes scoring)
  double truth_seconds = 0.0;   ///< ground-truth grid solve of the result
  double fast_seconds = 0.0;    ///< fast-model time inside the optimizer
  /// kNone unless a deadline/cancel cut the optimizer short; the scores
  /// above are then best-so-far and the JSON row carries a "degraded" tag.
  robust::StopReason stop_reason = robust::StopReason::kNone;
  /// RL only: PPO updates rolled back by the NaN guard (chaos or real).
  int skipped_updates = 0;
  std::optional<Floorplan> best;  ///< the floorplan behind the scores

  /// Degraded legs report best-so-far; envelope gates treat their breaches
  /// as waived because the budget or a fault cut them short.
  bool degraded() const {
    return stop_reason != robust::StopReason::kNone || skipped_updates > 0;
  }
};

/// One scenario's complete outcome (both legs + the fidelity re-score).
struct ScenarioRunResult {
  std::string name;
  std::size_t chiplets = 0;
  double fast_score_seconds = 0.0;  ///< one batched SoA re-score of the bests
  LegResult sa;
  LegResult rl;
  std::string error;        ///< non-empty = the scenario crashed
  bool warm_loaded = false; ///< RL leg started from a cached family checkpoint
  bool warm_saved = false;  ///< RL leg published its checkpoint to the cache

  bool degraded() const { return sa.degraded() || rl.degraded(); }
};

struct RunnerConfig {
  /// Characterization knobs. The defaults are the regression harness's
  /// deliberately coarse settings (consistency run-to-run matters,
  /// sub-Kelvin absolute accuracy does not) and are part of the
  /// served-vs-inline parity contract: change them and cached models — and
  /// therefore results — change for every consumer at once.
  thermal::CharacterizationConfig characterization = coarse_characterization();
  /// Ground-truth scoring resolution.
  thermal::GridDims truth_dims{32, 32};
  /// SA population mode (1 = classic incremental-protocol anneal).
  std::size_t sa_population = 1;
  /// Warm-start checkpoint directory; empty disables the warm cache.
  std::string warm_dir;

  static thermal::CharacterizationConfig coarse_characterization();
};

/// Per-run options (everything that may differ between two jobs over one
/// runner).
struct RunOptions {
  /// Wall-clock budget covering both optimizer legs, started *after* the
  /// shared characterization (which amortizes across jobs and must not eat
  /// the first job's budget). 0 = unlimited.
  double deadline_s = 0.0;
  /// Cooperative cancellation (a daemon job's cancel token). Inert default.
  robust::CancelToken cancel{};
  /// Load the scenario family's cached policy checkpoint before the RL leg
  /// and publish the trained result after it. Off by default: warm-started
  /// results are NOT bit-identical to a cold run of the same seed.
  bool warm_start = false;
  /// Phase callback ("model", "sa", "rl", "score") for progress streaming.
  /// Must not throw; called from the running thread.
  std::function<void(const char* phase)> progress{};
};

/// The shared execution engine: owns the cross-request characterization
/// cache, the warm-start checkpoint cache and the spare lanes, and runs
/// scenarios against them. Thread-safe: concurrent run() calls share the
/// caches and nothing else (each call's optimizers, evaluator copies, and
/// truth solver are call-local; the spare lanes serve a run only while it
/// runs alone).
class ScenarioRunner {
 public:
  explicit ScenarioRunner(const thermal::LayerStack& stack,
                          RunnerConfig config = {});
  ~ScenarioRunner();
  ScenarioRunner(const ScenarioRunner&) = delete;
  ScenarioRunner& operator=(const ScenarioRunner&) = delete;

  /// Executes one scenario end to end. Never throws: failures land in
  /// ScenarioRunResult::error (matching regress's per-scenario isolation).
  ScenarioRunResult run(const systems::Scenario& scenario,
                        const RunOptions& opts = {});

  const RunnerConfig& config() const { return config_; }
  CharacterizationCache& model_cache() { return models_; }
  const CharacterizationCache& model_cache() const { return models_; }
  WarmStartCache& warm_cache() { return warm_; }
  const WarmStartCache& warm_cache() const { return warm_; }

 private:
  RunnerConfig config_;
  CharacterizationCache models_;
  WarmStartCache warm_;
  /// Held by the RL epoch borrowing spare_lanes_, which it guards.
  std::mutex spare_lanes_mutex_;
  std::unique_ptr<parallel::ThreadPool> spare_lanes_;  ///< built at 1st loan
  std::atomic<int> runs_in_flight_{0};
};

/// JSON row for one leg — the exact field set BENCH_regress.json has always
/// carried (degraded-only fields appear only on degraded legs, so fault-free
/// reports stay byte-identical across builds).
util::JsonValue leg_to_json(const LegResult& leg);

/// JSON object for a whole run: name, chiplets, legs, fidelity re-score
/// seconds, error/warm flags. The serve protocol's "result" payload and the
/// serve-smoke parity diff both consume this.
util::JsonValue run_result_to_json(const ScenarioRunResult& result);

}  // namespace rlplan::serve
