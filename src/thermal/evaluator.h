// Pluggable thermal-evaluation interface.
//
// Both optimizers (RLPlanner's reward calculator and the TAP-2.5D SA
// baseline) only need "peak temperature of this placement". Injecting either
// the ground-truth grid solver (GridSolverEvaluator, below) or the fast LTI
// model (IncrementalFastModelEvaluator, thermal/incremental.h) reproduces
// the paper's four method configurations (Table I / Table III) without code
// changes.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/chiplet.h"
#include "core/floorplan.h"
#include "thermal/grid_solver.h"

namespace rlplan::parallel {
class ThreadPool;
}

namespace rlplan::thermal {

class ThermalEvaluator {
 public:
  virtual ~ThermalEvaluator() = default;

  /// Peak chiplet temperature (deg C) of the placement.
  virtual double max_temperature(const ChipletSystem& system,
                                 const Floorplan& floorplan) = 0;

  /// Peak temperatures of many candidate floorplans (all over `system`) in
  /// one call, index-aligned with `floorplans`. The default scores each
  /// candidate with max_temperature() serially and ignores `pool`; the fast
  /// model's evaluator overrides it to score each candidate as an exact
  /// delta on a private incremental state (thermal/incremental.h), using
  /// `pool` only for systems too large for that state. Either way results
  /// equal per-candidate max_temperature() calls at the same kernel level
  /// (the fast model's evaluator, when pinned by its set_simd_level(),
  /// scores batches at the pinned level and single queries at the
  /// dispatched one).
  virtual std::vector<double> max_temperature_batch(
      const ChipletSystem& system, std::span<const Floorplan> floorplans,
      parallel::ThreadPool* pool = nullptr) {
    (void)pool;
    std::vector<double> out;
    out.reserve(floorplans.size());
    for (const Floorplan& fp : floorplans) {
      out.push_back(max_temperature(system, fp));
    }
    return out;
  }

  /// Evaluations performed so far (budget accounting in benches).
  virtual long num_evaluations() const = 0;

  virtual std::string name() const = 0;

  /// Independent copy for per-thread use (parallel::VecEnv gives each worker
  /// environment its own evaluator so no synchronization is needed on the
  /// episode-end hot path). Returns nullptr when the evaluator cannot be
  /// cloned; callers requiring parallelism must reject that.
  virtual std::unique_ptr<ThermalEvaluator> clone() const { return nullptr; }

  // --- Optional incremental protocol ---------------------------------------
  // Optimizers that mutate one or two dies per step (the RL env's sequential
  // placement, TAP-2.5D SA moves) can keep the evaluator's internal state in
  // sync so a temperature query costs O(changed dies) kernel work instead of
  // a full O(n^2) re-evaluation. Every method defaults to "not incremental":
  // the notifications are no-ops and incremental_max_temperature() falls back
  // to a full max_temperature() evaluation, so callers may drive the protocol
  // unconditionally against any evaluator.

  /// True when this evaluator maintains incremental state.
  virtual bool supports_incremental() const { return false; }

  /// Starts (or restarts) an incremental session over `system` with an empty
  /// placement. `system` must outlive the session.
  virtual void notify_reset(const ChipletSystem& system) {
    (void)system;
  }

  /// Chiplet `i` was placed (or moved) at `p`.
  virtual void notify_place(const ChipletSystem& system, std::size_t i,
                            const Placement& p) {
    (void)system;
    (void)i;
    (void)p;
  }

  /// Chiplet `i` was unplaced.
  virtual void notify_remove(std::size_t i) { (void)i; }

  /// Accepts all mutations since the previous commit()/rollback() — they can
  /// no longer be undone.
  virtual void commit() {}

  /// Reverts all mutations since the previous commit() (the SA reject path).
  virtual void rollback() {}

  /// Peak temperature of `floorplan`, bringing the incremental state in sync
  /// first (delta updates for dies whose placement differs from the last
  /// synced state — explicit notify_* calls simply make this diff empty).
  /// Default: a plain full evaluation.
  virtual double incremental_max_temperature(const ChipletSystem& system,
                                             const Floorplan& floorplan) {
    return max_temperature(system, floorplan);
  }
};

/// Ground-truth adapter ("HotSpot" configuration).
class GridSolverEvaluator final : public ThermalEvaluator {
 public:
  /// `stack` must outlive the evaluator.
  explicit GridSolverEvaluator(const LayerStack& stack,
                               GridSolverConfig config = {})
      : solver_(stack, config) {}

  double max_temperature(const ChipletSystem& system,
                         const Floorplan& floorplan) override {
    return solver_.solve(system, floorplan).max_temp_c;
  }
  long num_evaluations() const override { return solver_.num_solves(); }
  std::string name() const override { return "grid-solver"; }

  /// Fresh solver over the same stack/config (solve counter starts at zero;
  /// the warm-start cache is per-instance, which is exactly why clones are
  /// needed per thread).
  std::unique_ptr<ThermalEvaluator> clone() const override {
    return std::make_unique<GridSolverEvaluator>(solver_.stack(),
                                                 solver_.config());
  }

  GridThermalSolver& solver() { return solver_; }

 private:
  GridThermalSolver solver_;
};

}  // namespace rlplan::thermal
