// Ablation: effect of the RND exploration bonus on training progress.
//
// Trains PPO with and without RND (and across bonus weights) on one
// synthetic case and prints per-epoch best-so-far reward curves.
//
// Flags: --epochs=N (default 25) --grid=G (default 16) --seed=S
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "systems/synthetic.h"

using namespace rlplan;

int main(int argc, char** argv) {
  const int epochs = bench::flag_int<int>(argc, argv, "epochs", 25);
  const auto grid = bench::flag_int<std::size_t>(argc, argv, "grid", 16);
  const auto seed = bench::flag_int<std::uint64_t>(argc, argv, "seed", 3);

  const auto stack = thermal::LayerStack::default_2p5d();
  const auto cases = systems::make_table3_cases();
  const ChipletSystem& sys = cases[1];  // Case2

  thermal::CharacterizationConfig cc;
  cc.solver.dims = {40, 40};
  thermal::ThermalCharacterizer charac(stack, cc);
  const auto model =
      charac.characterize(sys.interposer_width(), sys.interposer_height());

  struct Curve {
    std::string name;
    std::vector<double> best;
  };
  std::vector<Curve> curves;

  struct Setting {
    const char* name;
    bool use_rnd;
    float coef;
  };
  for (const Setting& s :
       {Setting{"no-RND", false, 0.0f}, Setting{"RND coef 0.1", true, 0.1f},
        Setting{"RND coef 0.3", true, 0.3f},
        Setting{"RND coef 1.0", true, 1.0f}}) {
    rl::RlPlannerConfig pc;
    pc.env.grid = grid;
    pc.net.grid = grid;
    pc.epochs = epochs;
    pc.ppo.adam.lr = 1e-3f;
    pc.ppo.use_rnd = s.use_rnd;
    pc.ppo.intrinsic_coef = s.coef;
    pc.solver.dims = {40, 40};
    pc.seed = seed;
    rl::RlPlanner planner(pc);
    const auto result = planner.plan_with_model(sys, stack, model);
    Curve curve;
    curve.name = s.name;
    double best = -1e300;
    for (const auto& st : result.history) {
      best = std::max(best, st.best_reward);
      curve.best.push_back(best);
    }
    curves.push_back(std::move(curve));
  }

  std::printf("ABLATION: RND bonus on %s (%d epochs, grid %zu)\n\n",
              sys.name().c_str(), epochs, grid);
  std::printf("%-8s", "epoch");
  for (const auto& c : curves) std::printf(" %14s", c.name.c_str());
  std::printf("\n");
  for (int e = 0; e < epochs; e += std::max(1, epochs / 12)) {
    std::printf("%-8d", e);
    for (const auto& c : curves) {
      std::printf(" %14.4f",
                  e < static_cast<int>(c.best.size()) ? c.best[e] : 0.0);
    }
    std::printf("\n");
  }
  std::printf("\n(best-so-far sampled episode reward; higher is better)\n");
  return 0;
}
