// Ablation: how much work does action masking do?
//
// The paper's Fig. 1 highlights the action mask M_t that zeroes infeasible
// placements. This bench quantifies the mask's effect: the feasible-action
// fraction as placement progresses, and the dead-end rate of a random
// (mask-respecting) policy — i.e. how often even masked random placement
// paints itself into a corner, which is what the RL policy must learn to
// avoid beyond the mask.
//
// Flags: --episodes=N (default 2000) --grid=G (default 16)
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "systems/synthetic.h"
#include "rl/env.h"
#include "util/stats.h"

using namespace rlplan;

namespace {

// Geometric stand-in evaluator: this bench only studies masking, so thermal
// fidelity is irrelevant and characterization would be wasted time.
class NullEvaluator final : public thermal::ThermalEvaluator {
 public:
  double max_temperature(const ChipletSystem&, const Floorplan&) override {
    ++count_;
    return 45.0;
  }
  long num_evaluations() const override { return count_; }
  std::string name() const override { return "null"; }

 private:
  long count_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const auto episodes =
      bench::flag_int<std::size_t>(argc, argv, "episodes", 2000);
  const auto grid = bench::flag_int<std::size_t>(argc, argv, "grid", 16);

  std::printf("ABLATION: action-mask pruning and dead-end statistics "
              "(%zu random episodes, grid %zu)\n\n", episodes, grid);
  std::printf("%-10s %10s %18s %14s %12s\n", "system", "util", "mean feasible",
              "final feasible", "dead-end");

  systems::SyntheticConfig sc;
  sc.interposer_w_mm = 40.0;
  sc.interposer_h_mm = 40.0;
  const systems::SyntheticSystemGenerator gen(sc);

  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto sys = gen.generate(seed * 17 + 3);
    NullEvaluator eval;
    rl::FloorplanEnv env(sys, eval, RewardCalculator{}, bump::BumpAssigner{},
                         {.grid = grid});
    Rng rng(seed);
    RunningStats feasible_frac, final_step_frac;
    long dead_ends = 0;
    for (std::size_t ep = 0; ep < episodes; ++ep) {
      env.reset();
      bool dead = false;
      while (!env.done()) {
        const auto& mask = env.action_mask();
        long feasible = 0;
        for (const auto m : mask) feasible += m;
        const double frac =
            static_cast<double>(feasible) / static_cast<double>(mask.size());
        feasible_frac.add(frac);
        if (env.current_step() + 1 == sys.num_chiplets()) {
          final_step_frac.add(frac);
        }
        // Uniform random choice among feasible actions.
        std::vector<std::size_t> options;
        for (std::size_t a = 0; a < mask.size(); ++a) {
          if (mask[a] != 0) options.push_back(a);
        }
        const auto pick = options[rng.uniform_int(
            static_cast<std::uint64_t>(options.size()))];
        const auto out = env.step(pick);
        if (out.dead_end) dead = true;
      }
      if (dead) ++dead_ends;
    }
    std::printf("%-10s %10.2f %17.1f%% %13.1f%% %11.2f%%\n",
                sys.name().c_str(), sys.utilization(),
                100.0 * feasible_frac.mean(), 100.0 * final_step_frac.mean(),
                100.0 * static_cast<double>(dead_ends) /
                    static_cast<double>(episodes));
  }
  std::printf("\nInterpretation: masking removes the (1 - feasible%%) of the "
              "action space that a penalty-only agent would waste samples "
              "on; residual dead-ends are what the policy itself must avoid "
              "(the env's dead_end_reward drives this).\n");
  return 0;
}
