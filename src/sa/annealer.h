// Generic simulated-annealing engine.
//
// Template core shared by the TAP-2.5D baseline and reusable for other
// combinatorial substrates; tested independently on analytic toy problems.
// Geometric cooling with Metropolis acceptance; the proposal function may
// decline to produce a move (returns std::nullopt), which costs a proposal
// but no evaluation — matching how floorplan moves that violate legality are
// rejected before the expensive thermal call.
//
// Batch moves. One move draws K proposals from the current state (K is the
// `population` argument, 1 by default), scores the legal ones with ONE call
// of the batch cost, and runs Metropolis on the cheapest, the first minimum
// under strict <. A move with no legal proposal is spent. The T0
// calibration probes are scored in calls of at most K candidates, so at
// K = 1 every cost call sees exactly one candidate, in proposal order: the
// classic single-proposal anneal. Larger K lets the cost score a whole
// round through one batched kernel call (TAP-2.5D's population mode).
//
// Staged cost. The cost may come with a cheap first stage, a lower bound:
// bound(s) <= cost(s) in floating point for every state, computed without
// the RNG. When present, bound runs on every group right before cost, so
// cost may reuse work bound did on the same candidates. Metropolis draws
// its uniform u only for worse moves, so once every bound of a round is a
// number and the smallest already puts the round above the current cost, u
// is drawn at the stream position the single-stage loop would draw it at
// (right after the K proposals); if u already rejects the smallest bound's
// delta, it rejects the winner's larger true delta too, and the round is
// rejected without calling cost. Every result — best state, stats, hook
// sequence, RNG stream — equals the single-stage loop's
// (tests/anneal_oracle.h); only AnnealStats::early_rejects and the wall
// time tell them apart.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
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
  /// Cap on candidates scored; a move in flight scores all its candidates.
  long max_evaluations = 100000;
  double time_budget_s = 0.0;     ///< 0 = unlimited
  /// Cooperative deadline/cancellation, polled once per move alongside the
  /// budget checks and once per calibration try (inert by default: one
  /// branch per poll). Stopping returns the best state found so far and
  /// records the reason in AnnealStats.
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

/// Transaction callbacks around each scored group, so a cost function with
/// incremental internal state (e.g. an incremental thermal evaluator that
/// mirrored the candidate's mutations) learns the verdict: on_accept fires
/// when the round's winner becomes the current state (and once for the
/// initial evaluation), on_reject when the group is discarded — including
/// each group of calibration probes, which never advance the current state,
/// and rounds rejected on the bound, for which cost never ran. Either
/// callback may be empty.
struct AnnealHooks {
  std::function<void()> on_accept;
  std::function<void()> on_reject;
};

/// Scores a group of candidates: out[i] is the value for states[i], and
/// out.size() == states.size(). Used for both the cost and its bound.
template <typename State>
using BatchCost =
    std::function<void(std::span<const State>, std::span<double>)>;

/// Minimizes `cost` over states proposed by `propose`, `population`
/// proposals per move (see the file comment). Returns the best state
/// encountered; statistics in `stats`. `bound`, when given, is the staged
/// cost's lower bound. The initial evaluation and the T0 calibration probes
/// always run the full cost, because calibration averages |delta|.
template <typename State>
State anneal(State initial, const BatchCost<State>& cost,
             const std::function<std::optional<State>(const State&, Rng&)>&
                 propose,
             const AnnealOptions& options, Rng& rng, AnnealStats& stats,
             const AnnealHooks& hooks = {},
             const BatchCost<State>& bound = {}, std::size_t population = 1) {
  // The early test compares u against exp(-bound_delta / t) scaled up by
  // 4 ulp, so it rejects only moves the full test rejects as long as exp()
  // errs by under 1 ulp, even where it is not monotone.
  constexpr double kExpMargin =
      1.0 + 4.0 * std::numeric_limits<double>::epsilon();
  const std::size_t k = std::max<std::size_t>(population, 1);
  std::vector<State> group;  // the candidates being scored, at most k
  group.reserve(k);
  std::vector<double> bounds(k), costs(k);
  // Scores the whole group in full (the initial state, calibration probes).
  const auto score = [&] {
    stats.evaluations += static_cast<long>(group.size());
    if (bound) bound(group, std::span(bounds).first(group.size()));
    cost(group, std::span(costs).first(group.size()));
  };
  const Timer timer;
  const bool controlled = options.control.active();
  group.push_back(std::move(initial));
  score();
  State current = std::move(group[0]);
  double current_cost = costs[0];
  group.clear();
  if (hooks.on_accept) hooks.on_accept();
  State best = current;
  double best_cost = current_cost;

  // Auto-calibrate T0 from the magnitude of initial cost deltas.
  double t = options.t_initial;
  if (t <= 0.0) {
    double delta_sum = 0.0;
    int samples = 0;
    const auto score_probes = [&] {
      if (group.empty()) return;
      score();
      if (hooks.on_reject) hooks.on_reject();  // probes never advance current
      for (std::size_t c = 0; c < group.size(); ++c) {
        delta_sum += std::abs(costs[c] - current_cost);
        ++samples;
        if (costs[c] < best_cost) {
          best = group[c];
          best_cost = costs[c];
        }
      }
      group.clear();
    };
    for (int i = 0; i < options.calibration_samples * 4 &&
                    samples + static_cast<int>(group.size()) <
                        options.calibration_samples;
         ++i) {
      if (controlled && options.control.stop_requested()) break;
      auto cand = propose(current, rng);
      if (!cand) continue;
      group.push_back(std::move(*cand));
      if (group.size() == k) score_probes();
    }
    score_probes();
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
      group.clear();
      for (std::size_t c = 0; c < k; ++c) {
        ++stats.proposals;
        auto cand = propose(current, rng);
        if (cand) group.push_back(std::move(*cand));
      }
      if (group.empty()) continue;
      const std::size_t n = group.size();
      stats.evaluations += static_cast<long>(n);
      // cost >= bound, so a smallest bound above current_cost means the
      // winner's delta is positive (or NaN): the uniform is due anyway, and
      // drawing it now keeps the stream. Such a round's candidates all cost
      // more than current_cost >= best_cost, so none can be the best.
      std::optional<double> u;
      if (bound) {
        bound(group, std::span(bounds).first(n));
        double lowest = bounds[0];  // NaN as soon as any bound is NaN
        for (std::size_t c = 1; c < n; ++c) {
          if (std::isnan(bounds[c]) || bounds[c] < lowest) lowest = bounds[c];
        }
        const double bound_delta = lowest - current_cost;
        if (bound_delta > 0.0) {
          u = rng.uniform();
          if (*u >= std::exp(-bound_delta / t) * kExpMargin) {
            stats.early_rejects += static_cast<long>(n);
            if (hooks.on_reject) hooks.on_reject();
            continue;
          }
        }
      }
      cost(group, std::span(costs).first(n));
      std::size_t pick = 0;
      for (std::size_t c = 1; c < n; ++c) {
        if (costs[c] < costs[pick]) pick = c;
      }
      const double delta = costs[pick] - current_cost;
      // best_cost <= current_cost, so a candidate below the best has
      // delta < 0 and is accepted: the best updates on accept only.
      if (delta <= 0.0 || (u ? *u : rng.uniform()) < std::exp(-delta / t)) {
        current = std::move(group[pick]);
        current_cost = costs[pick];
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
