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

namespace rlplan::sa {

namespace {

/// The TAP-2.5D move kernel (displace / swap / rotate with an annealed
/// displacement range), the same for every population size.
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
  const auto propose = [&proposer](const Floorplan& state,
                                   Rng& r) -> std::optional<Floorplan> {
    RLPLAN_COUNTER_INC("sa.proposals");
    return proposer(state, r);
  };
  // The cost is staged: lambda * W bounds it from below, so the anneal
  // rejects a round on wirelength alone when that already loses the
  // Metropolis draw, and the thermal term never runs. The bound computes W
  // once per candidate, on one assigner. That assigner keeps its last two
  // assignments, and every candidate is one move off the current floorplan.
  // At K = 1 the current floorplan stays one of the two after an accept
  // and after a reject, so a call walks only the nets of the moved dies and
  // of the partners whose site capacities they change, and re-adds the
  // recorded lengths of the rest. The full cost, which runs right after
  // the bound on the same candidates, reuses W.
  std::vector<double> wl;
  const auto bound = [&](std::span<const Floorplan> cands,
                         std::span<double> out) {
    wl.resize(cands.size());
    for (std::size_t c = 0; c < cands.size(); ++c) {
      wl[c] = assigner.assign(system, cands[c]).total_mm;
      out[c] = reward_calc.wirelength_cost(wl[c]);
    }
  };
  // The thermal term, the one step that depends on K. At K = 1 it goes
  // through the incremental protocol: the evaluator diffs each candidate
  // against its last synced state (one or two dies per SA move), so an
  // incremental evaluator pays O(n) kernel work per query instead of a full
  // O(n^2) re-evaluation, and the hooks commit or roll back the mirrored
  // mutations (a round rejected on the bound mirrored nothing, so its
  // rollback is a no-op). At K > 1 a round's candidates go through one
  // max_temperature_batch() call; the hooks then have nothing to commit.
  // The fast model's evaluator scores the batch as exact deltas off the
  // current floorplan on the calling thread, and the pool serves only
  // systems above IncrementalThermalState::kMaxChiplets and evaluators
  // without an override. Results are index-aligned, so independent of
  // batch_threads. Plain evaluators fall back to full evaluations and
  // ignore the hooks.
  const std::size_t k = config_.population;
  parallel::ThreadPool pool(k > 1 ? config_.batch_threads : 0);
  const auto cost = [&](std::span<const Floorplan> cands,
                        std::span<double> out) {
    if (k == 1) {
      out[0] = reward_calc.cost(
          wl[0], evaluator.incremental_max_temperature(system, cands[0]));
      return;
    }
    const std::vector<double> temps =
        evaluator.max_temperature_batch(system, cands, &pool);
    for (std::size_t c = 0; c < cands.size(); ++c) {
      out[c] = reward_calc.cost(wl[c], temps[c]);
    }
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
                                  bound, k);
  RLPLAN_COUNTER_ADD("sa.early_rejects", result.stats.early_rejects);

  result.wirelength_mm = assigner.assign(system, result.best).total_mm;
  result.temperature_c = evaluator.max_temperature(system, result.best);
  result.reward =
      reward_calc.reward(result.wirelength_mm, result.temperature_c);
  RLPLAN_INFO << "TAP-2.5D(" << evaluator.name() << "): reward "
              << result.reward << " after " << result.stats.evaluations
              << " evaluations";
  return result;
}

}  // namespace rlplan::sa
