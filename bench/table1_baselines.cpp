// Regenerates TABLE I: comparisons against baselines on the three benchmark
// systems (Multi-GPU, CPU-DRAM, Ascend 910).
//
// Methods (as in the paper):
//   RLPlanner                       PPO, fast thermal model in the loop
//   RLPlanner(RND)                  + random network distillation bonus
//   TAP-2.5D(GridSolver)            SA with the ground-truth solver ("HotSpot")
//   TAP-2.5D*(Fast Thermal Model)   SA with the fast model, wall-clock matched
//
// All methods are scored post-hoc with the ground-truth solver. SA budgets
// are wall-clock matched to RLPlanner training time (the paper's footnote:
// "* takes a similar amount of time as training RLPlanner for 600 epochs").
// Absolute runtimes are hardware-bound; the reproduction targets are the
// method ordering and relative objective gaps.
//
// Flags: --epochs=N (default 15; the paper trained 600) --grid=G (default
//        20) --system=NAME (multi-gpu | cpu-dram | ascend910 | all) --seed=S
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "systems/systems.h"

using namespace rlplan;

int main(int argc, char** argv) {
  bench::CompareConfig config;
  config.rl_epochs = bench::flag_int<int>(argc, argv, "epochs", 15);
  config.rl_grid = bench::flag_int<std::size_t>(argc, argv, "grid", 20);
  config.seed = bench::flag_int<std::uint64_t>(argc, argv, "seed", 1);

  std::string which = "all";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--system=", 0) == 0) which = arg.substr(9);
  }

  std::printf("TABLE I: COMPARISONS AGAINST BASELINES ON BENCHMARK SYSTEMS\n");
  std::printf("(RL: %d epochs, %zux%zu action grid; SA wall-clock matched)\n",
              config.rl_epochs, config.rl_grid, config.rl_grid);

  const auto stack = thermal::LayerStack::default_2p5d();
  double rl_rnd_sum = 0.0, sa_solver_sum = 0.0, sa_fast_sum = 0.0;
  int cases = 0;

  for (const auto& system : systems::make_benchmark_systems()) {
    if (which != "all" && system.name() != which) continue;
    const auto rows = bench::compare_methods(system, stack, config);
    bench::print_rows(system.name(), rows);
    rl_rnd_sum += rows[1].reward;
    sa_solver_sum += rows[2].reward;
    sa_fast_sum += rows[3].reward;
    ++cases;
  }

  if (cases > 0) {
    // The paper's headline: RLPlanner(RND) improves the objective by 20.28%
    // vs TAP-2.5D(HotSpot) and 9.25% vs TAP-2.5D(fast) across all 8 cases
    // (Tables I + III combined); print this table's share.
    const double vs_solver =
        100.0 * (1.0 - rl_rnd_sum / sa_solver_sum);
    const double vs_fast = 100.0 * (1.0 - rl_rnd_sum / sa_fast_sum);
    std::printf("\nSummary over %d systems (objective improvement of "
                "RLPlanner(RND), positive = better):\n", cases);
    std::printf("  vs TAP-2.5D(GridSolver): %+.2f%%   (paper: +20.28%% over "
                "all 8 cases)\n", vs_solver);
    std::printf("  vs TAP-2.5D(fast):       %+.2f%%   (paper:  +9.25%% over "
                "all 8 cases)\n", vs_fast);
  }

  std::printf("\nPaper reference (Table I):\n");
  std::printf("  Multi-GPU:  RLPlanner -37.13 | RND -40.28 | TAP(HotSpot) "
              "-42.46 | TAP(fast) -41.34\n");
  std::printf("  CPU-DRAM:   RLPlanner -44.95 | RND -41.75 | TAP(HotSpot) "
              "-60.36 | TAP(fast) -50.20\n");
  std::printf("  Ascend 910: RLPlanner  -7.41 | RND  -7.44 | TAP(HotSpot) "
              " -8.77 | TAP(fast)  -7.79\n");
  return 0;
}
