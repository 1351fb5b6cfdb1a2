// Regenerates TABLE II: accuracy and speed of the fast thermal model vs the
// ground-truth grid solver ("HotSpot") over a dataset of synthetic chiplet
// systems.
//
//   Paper: MSE 0.1732 K^2 | RMSE 0.4162 K | MAE 0.2523 K | MAPE 0.0726 %
//          fast 0.1012 s/eval vs HotSpot 12.8976 s/eval  (127x)
//
// Flags: --samples=N (default 800; paper used 2000) --grid=G (default 48)
//        --seed=S
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "systems/synthetic.h"
#include "thermal/characterize.h"
#include "util/stats.h"
#include "util/timer.h"

using namespace rlplan;

int main(int argc, char** argv) {
  const auto samples = bench::flag_int<std::size_t>(argc, argv, "samples", 800);
  const auto grid = bench::flag_int<std::size_t>(argc, argv, "grid", 48);
  const auto seed = bench::flag_int<std::uint64_t>(argc, argv, "seed", 1);

  const auto stack = thermal::LayerStack::default_2p5d();
  systems::SyntheticConfig sc;  // 50x50 mm dataset interposer
  const systems::SyntheticSystemGenerator gen(sc);

  const thermal::GridDims dims{grid, grid};
  thermal::CharacterizationConfig cc;
  cc.solver.dims = dims;
  thermal::ThermalCharacterizer charac(stack, cc);
  Timer t_char;
  const auto model =
      charac.characterize(sc.interposer_w_mm, sc.interposer_h_mm);
  std::fprintf(stderr, "[table2] characterization: %.1f s (%zu probe solves)\n",
               t_char.seconds(),
               charac.report().self_solves + charac.report().mutual_solves +
                   charac.report().position_solves);

  thermal::GridThermalSolver solver(stack, {.dims = dims});
  std::vector<double> pred, ref;
  pred.reserve(samples);
  ref.reserve(samples);
  double truth_s = 0.0;
  double fast_s = 0.0;
  for (std::size_t i = 0; i < samples; ++i) {
    const auto sys = gen.generate(seed * 1000003 + i);
    Rng rng(seed * 7919 + i);
    const auto fp = systems::random_legal_floorplan(sys, rng);
    Timer t1;
    ref.push_back(solver.solve(sys, fp).max_temp_c);
    truth_s += t1.seconds();
    Timer t2;
    pred.push_back(model.evaluate(sys, fp).max_temp_c);
    fast_s += t2.seconds();
  }

  const auto m = ErrorMetrics::compute(pred, ref);
  const double n = static_cast<double>(samples);
  const double speedup = truth_s / fast_s;

  std::printf("TABLE II: ACCURACY AND SPEED COMPARISON DURING THERMAL EVALUATION\n");
  std::printf("(%zu synthetic chiplet systems, %zux%zu solver grid)\n\n",
              samples, grid, grid);
  std::printf("%-18s %-22s %-14s\n", "Metric", "Fast Thermal Model",
              "GridSolver (ref)");
  std::printf("%-18s %-22.4f %-14s\n", "MSE (K^2)", m.mse, "ground truth");
  std::printf("%-18s %-22.4f %-14s\n", "RMSE (K)", m.rmse, "ground truth");
  std::printf("%-18s %-22.4f %-14s\n", "MAE (K)", m.mae, "ground truth");
  std::printf("%-18s %-22.4f %-14s\n", "MAPE (%)", m.mape, "ground truth");
  std::printf("%-18s %.6f s (%.0fx)     %.4f s\n", "Inference speed",
              fast_s / n, speedup, truth_s / n);
  std::printf("\nPaper reference:   MSE 0.1732 | RMSE 0.4162 | MAE 0.2523 | "
              "MAPE 0.0726%% | 0.1012 s (127x) vs 12.8976 s\n");
  std::printf("Shape check:       MAE %s 1.5 K, speedup %s 120x\n",
              m.mae < 1.5 ? "<" : ">=", speedup > 120.0 ? ">" : "<=");
  return 0;
}
