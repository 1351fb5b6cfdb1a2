#include "sa/tap25d.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "rl/planner.h"
#include "util/log.h"
#include "util/timer.h"

namespace rlplan::sa {

namespace {

/// The TAP-2.5D move kernel (displace / swap / rotate with an annealed
/// displacement range), shared by the classic single-proposal anneal and the
/// population mode so both explore the identical move distribution.
class MoveProposer {
 public:
  MoveProposer(const Tap25dConfig& config, const ChipletSystem& system)
      : config_(config),
        iw_(system.interposer_width()),
        ih_(system.interposer_height()),
        n_(system.num_chiplets()) {
    const double p_total =
        config.p_displace + config.p_swap + config.p_rotate;
    p_disp_ = config.p_displace / p_total;
    p_swap_ = p_disp_ + config.p_swap / p_total;
    // Estimated number of cooling levels for range interpolation.
    const double t0 =
        config.anneal.t_initial > 0 ? config.anneal.t_initial : 1.0;
    const double span = std::log(
        std::max(t0 / std::max(config.anneal.t_final, 1e-12), 1.000001));
    level_estimate_ = std::max<long>(
        1, static_cast<long>(span / -std::log(config.anneal.cooling)));
  }

  std::optional<Floorplan> operator()(const Floorplan& state, Rng& r) {
    ++proposal_counter_;
    // Population mode draws `population` proposals per Metropolis round, so
    // the displacement-range schedule must pace itself against the total
    // proposal budget (levels * moves * population), not the classic
    // one-proposal-per-round count — otherwise the range would collapse to
    // displace_frac_final after 1/population of the run.
    const double progress = std::min(
        1.0, static_cast<double>(proposal_counter_) /
                 (static_cast<double>(level_estimate_) *
                  config_.anneal.moves_per_temperature *
                  static_cast<double>(config_.population)));
    const double frac =
        config_.displace_frac_initial +
        (config_.displace_frac_final - config_.displace_frac_initial) *
            progress;

    Floorplan next = state;
    const double u = r.uniform();
    if (u < p_disp_ || n_ < 2) {
      // Displace one die by a bounded random offset.
      const std::size_t i = r.uniform_int(std::uint64_t{n_});
      const auto& pl = *state.placement(i);
      const double dx = r.uniform(-frac * iw_, frac * iw_);
      const double dy = r.uniform(-frac * ih_, frac * ih_);
      const Rect fp = state.rect_of(i);
      const Point pos{std::clamp(pl.position.x + dx, 0.0, iw_ - fp.w),
                      std::clamp(pl.position.y + dy, 0.0, ih_ - fp.h)};
      if (!next.can_place(i, pos, pl.rotated, config_.spacing_mm)) {
        return std::nullopt;
      }
      next.place(i, pos, pl.rotated);
    } else if (u < p_swap_) {
      // Swap the positions of two dies (keeping orientations).
      const std::size_t i = r.uniform_int(std::uint64_t{n_});
      std::size_t j = r.uniform_int(std::uint64_t{n_ - 1});
      if (j >= i) ++j;
      const Placement pi = *state.placement(i);
      const Placement pj = *state.placement(j);
      next.unplace(i);
      next.unplace(j);
      if (!next.can_place(i, pj.position, pi.rotated, config_.spacing_mm)) {
        return std::nullopt;
      }
      next.place(i, pj.position, pi.rotated);
      if (!next.can_place(j, pi.position, pj.rotated, config_.spacing_mm)) {
        return std::nullopt;
      }
      next.place(j, pi.position, pj.rotated);
      if (!next.system().interposer_rect().contains(next.rect_of(i)) ||
          !next.system().interposer_rect().contains(next.rect_of(j))) {
        return std::nullopt;
      }
    } else {
      // Rotate one die in place (90 degrees about its lower-left corner).
      const std::size_t i = r.uniform_int(std::uint64_t{n_});
      const auto& pl = *state.placement(i);
      next.unplace(i);
      if (!next.can_place(i, pl.position, !pl.rotated, config_.spacing_mm)) {
        return std::nullopt;
      }
      next.place(i, pl.position, !pl.rotated);
    }
    return next;
  }

 private:
  const Tap25dConfig& config_;
  double iw_;
  double ih_;
  std::size_t n_;
  double p_disp_ = 0.0;
  double p_swap_ = 0.0;
  long level_estimate_ = 1;
  long proposal_counter_ = 0;
};

}  // namespace

Tap25dPlanner::Tap25dPlanner(Tap25dConfig config) : config_(config) {
  const double p_total =
      config_.p_displace + config_.p_swap + config_.p_rotate;
  if (p_total <= 0.0) {
    throw std::invalid_argument("Tap25dConfig: move probabilities sum to 0");
  }
  if (config_.population == 0) {
    throw std::invalid_argument("Tap25dConfig: population must be >= 1");
  }
}

Tap25dResult Tap25dPlanner::plan(const ChipletSystem& system,
                                 thermal::ThermalEvaluator& evaluator,
                                 RewardCalculator reward_calc,
                                 bump::BumpAssigner assigner) {
  RLPLAN_TRACE_SPAN("sa.plan",
                    static_cast<std::int64_t>(system.num_chiplets()));
  system.validate();
  Rng rng(config_.seed);

  // Initial state: deterministic first-fit on a fine grid.
  rl::EnvConfig ff_config;
  ff_config.grid = 64;
  ff_config.spacing_mm = config_.spacing_mm;
  Floorplan initial = rl::first_fit_floorplan(system, ff_config);

  MoveProposer proposer(config_, system);
  Tap25dResult result(initial);

  if (config_.population > 1) {
    result.best = anneal_population(system, evaluator, reward_calc, assigner,
                                    std::move(initial), proposer, rng,
                                    result.stats);
  } else {
    const auto propose = [&proposer](const Floorplan& state,
                                     Rng& r) -> std::optional<Floorplan> {
      RLPLAN_COUNTER_INC("sa.proposals");
      return proposer(state, r);
    };
    // The cost is staged: lambda * W bounds it from below, so the anneal
    // rejects a move on wirelength alone when that already loses the
    // Metropolis draw, and the thermal query never runs. The bound computes
    // W once per candidate and the full cost, which runs right after it on
    // the same candidate, reuses it.
    //
    // The thermal term goes through the incremental protocol: the evaluator
    // diffs each candidate against its last synced state (one or two dies
    // per SA move), so an incremental evaluator pays O(n) kernel work per
    // query instead of a full O(n^2) re-evaluation. The accept/reject hooks
    // commit or roll back the mirrored mutations; a move rejected on the
    // bound mirrored nothing, so its rollback is a no-op. Plain evaluators
    // fall back to a full evaluation and ignore the hooks.
    double wl = 0.0;
    const auto bound = [&](const Floorplan& state) -> double {
      wl = assigner.assign(system, state).total_mm;
      return reward_calc.wirelength_cost(wl);
    };
    const auto cost = [&](const Floorplan& state) -> double {
      const double temp = evaluator.incremental_max_temperature(system, state);
      return reward_calc.cost(wl, temp);
    };
    AnnealHooks hooks;
    hooks.on_accept = [&evaluator] {
      RLPLAN_COUNTER_INC("sa.accepted");
      evaluator.commit();
    };
    hooks.on_reject = [&evaluator] {
      RLPLAN_COUNTER_INC("sa.rejected");
      evaluator.rollback();
    };
    result.best = anneal<Floorplan>(std::move(initial), cost, propose,
                                    config_.anneal, rng, result.stats, hooks,
                                    bound);
    RLPLAN_COUNTER_ADD("sa.early_rejects", result.stats.early_rejects);
  }

  result.wirelength_mm = assigner.assign(system, result.best).total_mm;
  result.temperature_c = evaluator.max_temperature(system, result.best);
  result.reward =
      reward_calc.reward(result.wirelength_mm, result.temperature_c);
  RLPLAN_INFO << "TAP-2.5D(" << evaluator.name() << "): reward "
              << result.reward << " after " << result.stats.evaluations
              << " evaluations";
  return result;
}

Floorplan Tap25dPlanner::anneal_population(
    const ChipletSystem& system, thermal::ThermalEvaluator& evaluator,
    const RewardCalculator& reward_calc, const bump::BumpAssigner& assigner,
    Floorplan initial, std::function<std::optional<Floorplan>(
                           const Floorplan&, Rng&)> propose,
    Rng& rng, AnnealStats& stats) const {
  const Timer timer;
  const AnnealOptions& options = config_.anneal;
  const bool controlled = options.control.active();
  const std::size_t k = config_.population;
  parallel::ThreadPool pool(config_.batch_threads);

  // All candidates of a round go through one batched thermal call; the
  // wirelength term stays on the calling thread: one assign() per candidate
  // on one assigner, whose memo reuses the sites and facing orders of every
  // die and net a candidate shares with the one before. Results are
  // independent of batch_threads because max_temperature_batch is
  // index-aligned.
  std::vector<Floorplan> candidates;
  candidates.reserve(k);
  const auto score_batch = [&](std::vector<double>& costs) {
    const auto temps = evaluator.max_temperature_batch(
        system, std::span<const Floorplan>(candidates), &pool);
    costs.resize(candidates.size());
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      const double wl = assigner.assign(system, candidates[c]).total_mm;
      costs[c] = reward_calc.cost(wl, temps[c]);
    }
    stats.evaluations += static_cast<long>(candidates.size());
  };

  Floorplan current = initial;
  double current_cost;
  {
    const double wl = assigner.assign(system, current).total_mm;
    const double temp = evaluator.max_temperature(system, current);
    current_cost = reward_calc.cost(wl, temp);
    ++stats.evaluations;
  }
  Floorplan best = current;
  double best_cost = current_cost;
  std::vector<double> costs;

  // Auto-calibrate T0 from one batched round of probes (mean |delta|),
  // mirroring anneal<>'s calibration semantics: probes never advance the
  // current state but may improve the best.
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
      score_batch(costs);
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

  std::int64_t level = 0;
  while (t > options.t_final) {
    RLPLAN_TRACE_SPAN("sa.level", level++);
    for (int m = 0; m < options.moves_per_temperature; ++m) {
      if (stats.evaluations >= options.max_evaluations) break;
      if (options.time_budget_s > 0.0 &&
          timer.seconds() >= options.time_budget_s) {
        break;
      }
      if (controlled && options.control.stop_requested()) break;
      // One round = K proposals scored in a single batched thermal call; the
      // span covers proposal generation + scoring + the Metropolis step.
      RLPLAN_TRACE_SPAN("sa.round", static_cast<std::int64_t>(k));
      candidates.clear();
      for (std::size_t c = 0; c < k; ++c) {
        ++stats.proposals;
        RLPLAN_COUNTER_INC("sa.proposals");
        auto cand = propose(current, rng);
        if (cand) candidates.push_back(std::move(*cand));
      }
      if (candidates.empty()) continue;
      score_batch(costs);
      std::size_t arg_best = 0;
      for (std::size_t c = 1; c < candidates.size(); ++c) {
        if (costs[c] < costs[arg_best]) arg_best = c;
      }
      // Every scored candidate is a complete legal floorplan; keep the best
      // even when the Metropolis step below rejects it.
      if (costs[arg_best] < best_cost) {
        best = candidates[arg_best];
        best_cost = costs[arg_best];
      }
      const double delta = costs[arg_best] - current_cost;
      if (delta <= 0.0 || rng.uniform() < std::exp(-delta / t)) {
        current = std::move(candidates[arg_best]);
        current_cost = costs[arg_best];
        ++stats.accepted;
        RLPLAN_COUNTER_INC("sa.accepted");
      } else {
        RLPLAN_COUNTER_INC("sa.rejected");
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
