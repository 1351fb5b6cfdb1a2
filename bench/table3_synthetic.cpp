// Regenerates TABLE III: reward comparison of the four methods on the five
// synthetic systems (Case1..Case5).
//
// Flags: --epochs=N (default 40) --grid=G (default 16) --case=K (1..5, 0=all)
//        --seed=S
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "systems/synthetic.h"

using namespace rlplan;

int main(int argc, char** argv) {
  bench::CompareConfig config;
  config.rl_epochs = bench::flag_int<int>(argc, argv, "epochs", 30);
  config.rl_grid = bench::flag_int<std::size_t>(argc, argv, "grid", 16);
  config.solver_dims = {40, 40};
  config.seed = bench::flag_int<std::uint64_t>(argc, argv, "seed", 1);
  const auto which = bench::flag_int<std::size_t>(argc, argv, "case", 0);

  std::printf("TABLE III: COMPARISONS OF REWARD ON 5 SYNTHETIC SYSTEMS\n");
  std::printf("(RL: %d epochs, %zux%zu action grid; SA wall-clock matched)\n",
              config.rl_epochs, config.rl_grid, config.rl_grid);

  const auto stack = thermal::LayerStack::default_2p5d();
  const auto cases = systems::make_table3_cases();

  std::vector<std::vector<bench::MethodRow>> all_rows;
  std::vector<std::string> names;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    if (which != 0 && i + 1 != which) continue;
    auto rows = bench::compare_methods(cases[i], stack, config);
    bench::print_rows(cases[i].name(), rows);
    all_rows.push_back(std::move(rows));
    names.push_back(cases[i].name());
  }

  // Condensed reward matrix, formatted like the paper's Table III.
  if (!all_rows.empty()) {
    std::printf("\nReward matrix:\n%-30s", "Method");
    for (const auto& name : names) std::printf(" %9s", name.c_str());
    std::printf("\n");
    for (std::size_t m = 0; m < all_rows[0].size(); ++m) {
      std::printf("%-30s", all_rows[0][m].method.c_str());
      for (const auto& rows : all_rows) std::printf(" %9.4f", rows[m].reward);
      std::printf("\n");
    }
    double rl_rnd_sum = 0.0, sa_solver_sum = 0.0, sa_fast_sum = 0.0;
    for (const auto& rows : all_rows) {
      rl_rnd_sum += rows[1].reward;
      sa_solver_sum += rows[2].reward;
      sa_fast_sum += rows[3].reward;
    }
    std::printf("\nSummary (objective improvement of RLPlanner(RND)):\n");
    std::printf("  vs TAP-2.5D(GridSolver): %+.2f%%\n",
                100.0 * (1.0 - rl_rnd_sum / sa_solver_sum));
    std::printf("  vs TAP-2.5D(fast):       %+.2f%%\n",
                100.0 * (1.0 - rl_rnd_sum / sa_fast_sum));
  }

  std::printf("\nPaper reference (Table III rewards):\n");
  std::printf("  Case1..5 RLPlanner:      -5.83  -6.32 -10.01  -8.41  -8.62\n");
  std::printf("  Case1..5 RLPlanner(RND): -5.11  -6.78  -9.93  -8.39  -8.20\n");
  std::printf("  Case1..5 TAP(HotSpot):   -6.64  -8.98 -12.39 -10.55 -10.70\n");
  std::printf("  Case1..5 TAP(fast):      -6.36  -7.13 -10.72  -9.83  -8.52\n");
  return 0;
}
