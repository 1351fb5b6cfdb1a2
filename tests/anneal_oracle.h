// Test-only reference for sa::anneal(): the single-stage loop, which calls
// the full cost on every candidate. The staged library loop, which may
// reject a move on a cost lower bound alone, must match it exactly: best
// state, every AnnealStats field but early_rejects, the hook sequence and
// the RNG stream (annealer_test's differential fuzz).
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/robust.h"
#include "sa/annealer.h"
#include "util/rng.h"
#include "util/timer.h"

namespace rlplan::sa::oracle {

template <typename State>
State anneal(State initial,
             const std::function<double(const State&)>& cost,
             const std::function<std::optional<State>(const State&, Rng&)>&
                 propose,
             const AnnealOptions& options, Rng& rng, AnnealStats& stats,
             const AnnealHooks& hooks = {}) {
  const Timer timer;
  const bool controlled = options.control.active();
  State current = initial;
  double current_cost = cost(current);
  ++stats.evaluations;
  if (hooks.on_accept) hooks.on_accept();
  State best = current;
  double best_cost = current_cost;

  // Auto-calibrate T0 from the magnitude of initial cost deltas.
  double t = options.t_initial;
  if (t <= 0.0) {
    double delta_sum = 0.0;
    int samples = 0;
    for (int i = 0; i < options.calibration_samples * 4 &&
                    samples < options.calibration_samples;
         ++i) {
      if (controlled && options.control.stop_requested()) break;
      auto cand = propose(current, rng);
      if (!cand) continue;
      const double c = cost(*cand);
      ++stats.evaluations;
      if (hooks.on_reject) hooks.on_reject();  // probes never advance current
      delta_sum += std::abs(c - current_cost);
      ++samples;
      if (c < best_cost) {
        best = *cand;
        best_cost = c;
      }
    }
    t = samples > 0 ? std::max(delta_sum / samples, 1e-6) : 1.0;
  }

  std::int64_t anneal_level = 0;
  while (t > options.t_final) {
    // One span per temperature level (not per move: classic-mode moves are
    // ~µs and would be dominated by the span cost itself).
    RLPLAN_TRACE_SPAN("sa.level", anneal_level++);
    for (int m = 0; m < options.moves_per_temperature; ++m) {
      if (stats.evaluations >= options.max_evaluations) break;
      if (options.time_budget_s > 0.0 &&
          timer.seconds() >= options.time_budget_s) {
        break;
      }
      if (controlled && options.control.stop_requested()) break;
      ++stats.proposals;
      auto cand = propose(current, rng);
      if (!cand) continue;
      const double cand_cost = cost(*cand);
      ++stats.evaluations;
      const double delta = cand_cost - current_cost;
      if (delta <= 0.0 || rng.uniform() < std::exp(-delta / t)) {
        current = std::move(*cand);
        current_cost = cand_cost;
        ++stats.accepted;
        if (hooks.on_accept) hooks.on_accept();
        if (current_cost < best_cost) {
          best = current;
          best_cost = current_cost;
        }
      } else if (hooks.on_reject) {
        hooks.on_reject();
      }
    }
    stats.best_cost_history.push_back(best_cost);
    if (stats.evaluations >= options.max_evaluations) break;
    if (options.time_budget_s > 0.0 &&
        timer.seconds() >= options.time_budget_s) {
      break;
    }
    if (controlled && options.control.stop_requested()) break;
    t *= options.cooling;
  }

  if (controlled) {
    stats.stop_reason = options.control.stop_reason();
    if (stats.degraded()) RLPLAN_COUNTER_INC("robust.degraded");
  }
  stats.final_temperature = t;
  stats.seconds = timer.seconds();
  return best;
}

}  // namespace rlplan::sa::oracle
