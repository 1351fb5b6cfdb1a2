// Generic simulated-annealing engine.
//
// Template core shared by the TAP-2.5D baseline and reusable for other
// combinatorial substrates; tested independently on analytic toy problems.
// Geometric cooling with Metropolis acceptance; the proposal function may
// decline to produce a move (returns std::nullopt), which costs an iteration
// but no evaluation — matching how floorplan moves that violate legality are
// rejected before the expensive thermal call.
//
// Staged cost. The cost may come with a cheap first stage, a lower bound:
// bound(s) <= cost(s) in floating point for every state, computed without
// the RNG. When present, bound runs on every candidate right before cost,
// so cost may reuse work bound did on the same candidate. Metropolis draws
// its uniform u only for worse moves, so once the bound alone puts a move
// above the current cost, u is drawn at the stream position the
// single-stage loop would draw it at; if u already rejects the bound's
// delta, it rejects the larger true delta too, and the move is rejected
// without calling cost. Every result — best state, stats, hook sequence,
// RNG stream — equals the single-stage loop's (tests/anneal_oracle.h); only
// AnnealStats::early_rejects and the wall time tell them apart.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/robust.h"
#include "util/rng.h"
#include "util/timer.h"

namespace rlplan::sa {

struct AnnealOptions {
  /// Initial temperature; <= 0 requests auto-calibration from the first
  /// `calibration_samples` accepted proposals (T0 = mean |delta cost|).
  double t_initial = -1.0;
  int calibration_samples = 20;
  double t_final = 1e-4;
  double cooling = 0.95;          ///< geometric factor per temperature level
  int moves_per_temperature = 40;
  long max_evaluations = 100000;  ///< hard cap on cost-function calls
  double time_budget_s = 0.0;     ///< 0 = unlimited
  /// Cooperative deadline/cancellation, polled once per move alongside the
  /// budget checks (inert by default: one branch per poll). Stopping returns
  /// the best state found so far and records the reason in AnnealStats.
  robust::RunControl control{};
};

struct AnnealStats {
  /// Candidates scored, including those rejected on the bound alone.
  long evaluations = 0;
  long proposals = 0;
  long accepted = 0;
  /// Evaluations rejected on the cost bound, without calling the full cost.
  long early_rejects = 0;
  double seconds = 0.0;
  double final_temperature = 0.0;
  std::vector<double> best_cost_history;  ///< best-so-far after each level
  /// kNone when the run finished within its own budgets; kCancelled/kDeadline
  /// when AnnealOptions::control stopped it early (result is best-so-far).
  robust::StopReason stop_reason = robust::StopReason::kNone;

  bool degraded() const { return stop_reason != robust::StopReason::kNone; }
};

/// Transaction callbacks around each evaluated proposal, so a cost function
/// with incremental internal state (e.g. an incremental thermal evaluator
/// that mirrored the candidate's mutations) learns the verdict: on_accept
/// fires when the candidate becomes the current state (and once for the
/// initial evaluation), on_reject when it is discarded — including the
/// calibration probes, which never advance the current state, and moves
/// rejected on the bound, for which cost never ran. Either callback may be
/// empty.
struct AnnealHooks {
  std::function<void()> on_accept;
  std::function<void()> on_reject;
};

/// Minimizes `cost` over states proposed by `propose`. Returns the best
/// state encountered; statistics in `stats`. `bound`, when given, is the
/// staged cost's lower bound (see the file comment). The initial evaluation
/// and the T0 calibration probes always run the full cost, because
/// calibration averages |delta|.
template <typename State>
State anneal(State initial,
             const std::function<double(const State&)>& cost,
             const std::function<std::optional<State>(const State&, Rng&)>&
                 propose,
             const AnnealOptions& options, Rng& rng, AnnealStats& stats,
             const AnnealHooks& hooks = {},
             const std::function<double(const State&)>& bound = {}) {
  // The early test compares u against exp(-bound_delta / t) scaled up by
  // 4 ulp, so it rejects only moves the full test rejects as long as exp()
  // errs by under 1 ulp, even where it is not monotone.
  constexpr double kExpMargin =
      1.0 + 4.0 * std::numeric_limits<double>::epsilon();
  const auto full_cost = [&](const State& s) {
    if (bound) bound(s);
    return cost(s);
  };
  const Timer timer;
  const bool controlled = options.control.active();
  State current = initial;
  double current_cost = full_cost(current);
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
      const double c = full_cost(*cand);
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
      ++stats.evaluations;
      // cost >= bound, so a positive bound delta means delta > 0: the
      // uniform is due anyway, and drawing it now keeps the stream. A
      // skipped candidate costs more than current_cost >= best_cost, so it
      // can never be the best.
      std::optional<double> u;
      if (bound) {
        const double bound_delta = bound(*cand) - current_cost;
        if (bound_delta > 0.0) {
          u = rng.uniform();
          if (*u >= std::exp(-bound_delta / t) * kExpMargin) {
            ++stats.early_rejects;
            if (hooks.on_reject) hooks.on_reject();
            continue;
          }
        }
      }
      const double cand_cost = cost(*cand);
      const double delta = cand_cost - current_cost;
      if (delta <= 0.0 || (u ? *u : rng.uniform()) < std::exp(-delta / t)) {
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

}  // namespace rlplan::sa
