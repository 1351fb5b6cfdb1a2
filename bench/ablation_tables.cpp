// Ablation: which fast-thermal-model ingredients buy the accuracy?
//
// Sweeps the surrogate's design knobs (FastModelConfig and
// CharacterizationConfig) against the ground-truth solver on a fixed
// synthetic dataset:
//   * paper-minimal: center-characterized tables only, center probes
//   * + geometric self-table axes
//   * + measured position-correction table instead of images
//   * + method-of-images boundary handling
//   * source subsampling / receiver probing variants, ending at the default
//     configuration
//
// Flags: --samples=N (default 60) --grid=G (default 48). Exits 1 when any
// variant fails to characterize or evaluate.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "systems/synthetic.h"
#include "thermal/characterize.h"
#include "util/stats.h"

using namespace rlplan;

namespace {

struct Variant {
  std::string name;
  thermal::CharacterizationConfig config;
};

}  // namespace

int main(int argc, char** argv) {
  const auto samples = bench::flag_int<std::size_t>(argc, argv, "samples", 60);
  const auto grid = bench::flag_int<std::size_t>(argc, argv, "grid", 48);

  const auto stack = thermal::LayerStack::default_2p5d();
  systems::SyntheticConfig sc;
  const systems::SyntheticSystemGenerator gen(sc);
  const thermal::GridDims dims{grid, grid};

  std::vector<Variant> variants;
  {
    Variant v;
    v.name = "paper-minimal (linear axes, no boundary model)";
    v.config.solver.dims = dims;
    v.config.geometric_axes = false;
    v.config.position_points = 0;
    v.config.model_config.use_images = false;
    v.config.model_config.source_subsamples = 1;
    v.config.model_config.receiver_probes = 1;
    variants.push_back(v);
  }
  {
    Variant v;
    v.name = "+ geometric self-table axes";
    v.config.solver.dims = dims;
    v.config.position_points = 0;
    v.config.model_config.use_images = false;
    v.config.model_config.source_subsamples = 1;
    v.config.model_config.receiver_probes = 1;
    variants.push_back(v);
  }
  {
    Variant v;
    v.name = "+ measured position correction";
    v.config.solver.dims = dims;
    v.config.model_config.use_images = false;
    v.config.model_config.source_subsamples = 1;
    v.config.model_config.receiver_probes = 1;
    variants.push_back(v);
  }
  {
    Variant v;
    v.name = "+ method-of-images boundaries";
    v.config.solver.dims = dims;
    v.config.model_config.source_subsamples = 1;
    v.config.model_config.receiver_probes = 1;
    variants.push_back(v);
  }
  {
    Variant v;
    v.name = "+ 2x2 source subsampling";
    v.config.solver.dims = dims;
    v.config.model_config.source_subsamples = 2;
    v.config.model_config.receiver_probes = 1;
    variants.push_back(v);
  }
  {
    Variant v;
    v.name = "+ 3x3 receiver probes (default)";
    v.config.solver.dims = dims;
    variants.push_back(v);  // all defaults
  }

  // Shared ground-truth references. Floorplans hold pointers into
  // systems_list, so its capacity must be fixed before any floorplan is
  // created (reallocation would dangle them).
  thermal::GridThermalSolver solver(stack, {.dims = dims});
  std::vector<ChipletSystem> systems_list;
  std::vector<Floorplan> floorplans;
  std::vector<double> ref;
  systems_list.reserve(samples);
  floorplans.reserve(samples);
  ref.reserve(samples);
  for (std::size_t i = 0; i < samples; ++i) {
    systems_list.push_back(gen.generate(4000 + i));
    Rng rng(5000 + i);
    floorplans.push_back(
        systems::random_legal_floorplan(systems_list.back(), rng));
    ref.push_back(
        solver.solve(systems_list.back(), floorplans.back()).max_temp_c);
  }

  std::printf("ABLATION: fast-thermal-model ingredients (%zu systems, "
              "%zux%zu grid)\n\n", samples, grid, grid);
  std::printf("%-48s %9s %9s %9s\n", "Variant", "MAE(K)", "RMSE(K)",
              "char(s)");
  std::fflush(stdout);
  bool failed = false;
  for (const auto& variant : variants) {
    try {
      thermal::ThermalCharacterizer charac(stack, variant.config);
      const auto model =
          charac.characterize(sc.interposer_w_mm, sc.interposer_h_mm);
      std::vector<double> pred;
      pred.reserve(ref.size());
      for (std::size_t i = 0; i < ref.size(); ++i) {
        pred.push_back(
            model.evaluate(systems_list[i], floorplans[i]).max_temp_c);
      }
      const auto m = ErrorMetrics::compute(pred, ref);
      std::printf("%-48s %9.4f %9.4f %9.1f\n", variant.name.c_str(), m.mae,
                  m.rmse, charac.report().total_seconds);
    } catch (const std::exception& e) {
      std::printf("%-48s FAILED: %s\n", variant.name.c_str(), e.what());
      failed = true;
    }
    std::fflush(stdout);
  }
  return failed ? 1 : 0;
}
