// Test-only references for sa::anneal(), which annealer_test's
// differential fuzz runs the library loop against:
//   * anneal: the single-stage classic loop, one proposal per move and the
//     full cost on every candidate. sa::anneal at K = 1, which may reject a
//     move on a cost lower bound alone, must match it exactly: best state,
//     every AnnealStats field but early_rejects, the hook sequence and the
//     RNG stream.
//   * anneal_population: the population loop TAP-2.5D ran before sa::anneal
//     took K proposals per move — K proposals per round scored with one
//     batch-cost call, the best updated before Metropolis, all calibration
//     probes scored in one call, no bound, no hooks. sa::anneal at K > 1
//     must match its best state, every AnnealStats field but early_rejects
//     and the RNG stream, unless a stop lands during calibration (the
//     library loop polls there, this one does not).
// per_state lifts a per-state cost into sa::anneal's batch form.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/robust.h"
#include "sa/annealer.h"
#include "util/rng.h"
#include "util/timer.h"

namespace rlplan::sa::oracle {

/// A BatchCost that scores candidates one by one, in order, with `f`.
template <typename State, typename F>
BatchCost<State> per_state(F f) {
  return [f = std::move(f)](std::span<const State> states,
                            std::span<double> out) {
    for (std::size_t i = 0; i < states.size(); ++i) out[i] = f(states[i]);
  };
}

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

template <typename State>
State anneal_population(
    State initial, const BatchCost<State>& cost,
    const std::function<std::optional<State>(const State&, Rng&)>& propose,
    const AnnealOptions& options, std::size_t k, Rng& rng,
    AnnealStats& stats) {
  const Timer timer;
  const bool controlled = options.control.active();
  std::vector<State> candidates;
  candidates.reserve(k);
  std::vector<double> costs;
  const auto score_batch = [&] {
    costs.resize(candidates.size());
    cost(candidates, costs);
    stats.evaluations += static_cast<long>(candidates.size());
  };

  State current = initial;
  candidates.push_back(current);
  score_batch();
  double current_cost = costs[0];
  State best = current;
  double best_cost = current_cost;

  // Auto-calibrate T0 from one batch of probes (mean |delta|): probes never
  // advance the current state but may improve the best.
  double t = options.t_initial;
  if (t <= 0.0) {
    candidates.clear();
    for (int i = 0;
         i < options.calibration_samples * 4 &&
         candidates.size() < static_cast<std::size_t>(
                                 options.calibration_samples);
         ++i) {
      auto cand = propose(current, rng);
      if (cand) candidates.push_back(std::move(*cand));
    }
    if (!candidates.empty()) {
      score_batch();
      double delta_sum = 0.0;
      for (std::size_t c = 0; c < candidates.size(); ++c) {
        delta_sum += std::abs(costs[c] - current_cost);
        if (costs[c] < best_cost) {
          best = candidates[c];
          best_cost = costs[c];
        }
      }
      t = std::max(delta_sum / static_cast<double>(candidates.size()), 1e-6);
    } else {
      t = 1.0;
    }
  }

  while (t > options.t_final) {
    for (int m = 0; m < options.moves_per_temperature; ++m) {
      if (stats.evaluations >= options.max_evaluations) break;
      if (options.time_budget_s > 0.0 &&
          timer.seconds() >= options.time_budget_s) {
        break;
      }
      if (controlled && options.control.stop_requested()) break;
      candidates.clear();
      for (std::size_t c = 0; c < k; ++c) {
        ++stats.proposals;
        auto cand = propose(current, rng);
        if (cand) candidates.push_back(std::move(*cand));
      }
      if (candidates.empty()) continue;
      score_batch();
      std::size_t arg_best = 0;
      for (std::size_t c = 1; c < candidates.size(); ++c) {
        if (costs[c] < costs[arg_best]) arg_best = c;
      }
      // Keep the best even when the Metropolis step below rejects it.
      if (costs[arg_best] < best_cost) {
        best = candidates[arg_best];
        best_cost = costs[arg_best];
      }
      const double delta = costs[arg_best] - current_cost;
      if (delta <= 0.0 || rng.uniform() < std::exp(-delta / t)) {
        current = std::move(candidates[arg_best]);
        current_cost = costs[arg_best];
        ++stats.accepted;
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

  if (controlled) stats.stop_reason = options.control.stop_reason();
  stats.final_temperature = t;
  stats.seconds = timer.seconds();
  return best;
}

}  // namespace rlplan::sa::oracle
