// Command-line floorplanner: load a chiplet system from a scenario file,
// optimize it with a chosen method, write the floorplan as JSON, and print
// ground-truth scores.
//
//   ./build/rlplanner_cli [scenario.json] [options]
//     --method=rl|rl-rnd|sa-fast|sa-solver|first-fit   (default rl)
//     --epochs=N         RL training epochs            (default 30)
//     --grid=G           RL action grid                (default 16)
//     --budget=SECONDS   SA wall-clock budget          (default 30)
//     --out=FILE         floorplan output path         (default plan.json)
//     --seed=S
//     --envs=N           parallel env replicas for RL  (default 1 = serial)
//     --threads=N        RL rollout and update lanes   (default 0 = auto)
//     --checkpoint=FILE  RL: write a full-state RLPNNv2 checkpoint here
//                        (at the end, plus every --checkpoint-every epochs)
//     --checkpoint-every=K   periodic checkpoint cadence (default 0 = end)
//     --resume=FILE      RL: restore a full-state checkpoint and continue
//                        training bit-exactly where it stopped
//
// The scenario's system is built (builtin, family or inline; schema in
// src/systems/scenario.h); its budgets and envelope are the regress tool's
// business, not the CLI's. With no path, runs on a built-in four-die demo
// system so the tool is self-contained. A numeric flag must parse whole into
// its type (bench/bench_util.h): `--epochs=3x` exits 2 naming the flag.
//
// The output file is self-contained, its numbers round-trip exact:
//
//   {"system": {"name": ..., "interposer_mm": [w, h], "dies": [...],
//               "nets": [...]},                 // an inline scenario system
//    "placements": [{"die": "cpu", "xy_mm": [x, y], "rotated": false}, ...]}
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "rl/planner.h"
#include "rl/session.h"
#include "sa/tap25d.h"
#include "systems/scenario.h"
#include "thermal/characterize.h"
#include "thermal/incremental.h"
#include "util/json.h"
#include "util/timer.h"

using namespace rlplan;

namespace {

ChipletSystem demo_system() {
  ChipletSystem system("demo", 30.0, 30.0,
                       {
                           {"cpu", 9.0, 9.0, 30.0},
                           {"gpu", 10.0, 8.0, 35.0},
                           {"dram", 7.0, 10.0, 6.0},
                           {"io", 5.0, 5.0, 4.0},
                       },
                       {{0, 1, 256}, {0, 2, 128}, {1, 2, 128}, {0, 3, 64}});
  system.validate();
  return system;
}

/// {"system": <inline system>, "placements": [...]}, placed dies only.
util::JsonValue floorplan_to_json(const Floorplan& floorplan) {
  const ChipletSystem& system = floorplan.system();
  util::JsonValue placements = util::JsonValue::make_array();
  for (std::size_t i = 0; i < system.num_chiplets(); ++i) {
    if (!floorplan.is_placed(i)) continue;
    const Placement& p = *floorplan.placement(i);
    util::JsonValue row = util::JsonValue::make_object();
    row.set("die", system.chiplet(i).name);
    row.set("xy_mm", util::JsonValue::Array{p.position.x, p.position.y});
    row.set("rotated", p.rotated);
    placements.push_back(std::move(row));
  }
  util::JsonValue j = util::JsonValue::make_object();
  j.set("system", systems::inline_system_to_json(system));
  j.set("placements", std::move(placements));
  return j;
}

int run_cli(int argc, char** argv) {
  // Every flag is read before any work, so a malformed one exits first.
  const std::string method = bench::flag_str(argc, argv, "method", "rl");
  const int epochs = bench::flag_int<int>(argc, argv, "epochs", 30);
  const auto grid = bench::flag_int<std::size_t>(argc, argv, "grid", 16);
  const double budget = bench::flag_double(argc, argv, "budget", 30.0);
  const std::string out = bench::flag_str(argc, argv, "out", "plan.json");
  const auto seed = bench::flag_int<std::uint64_t>(argc, argv, "seed", 1);
  const auto envs = bench::flag_int<std::size_t>(argc, argv, "envs", 1);
  const auto threads = bench::flag_int<std::size_t>(argc, argv, "threads", 0);
  const std::string checkpoint = bench::flag_str(argc, argv, "checkpoint", "");
  const std::string resume = bench::flag_str(argc, argv, "resume", "");
  const int checkpoint_every =
      bench::flag_int<int>(argc, argv, "checkpoint-every", 0);
  if (envs == 0) {
    std::fprintf(stderr, "error: --envs must be at least 1\n");
    return 2;
  }

  const ChipletSystem system = [&] {
    if (argc > 1 && argv[1][0] != '-') {
      return systems::load_scenario_file(argv[1]).build_system();
    }
    std::printf("no scenario file given; using the built-in demo system\n");
    return demo_system();
  }();
  std::printf("system '%s': %zu chiplets, %.0f W, %ld wires\n",
              system.name().c_str(), system.num_chiplets(),
              system.total_power(), system.total_wires());

  const auto stack = thermal::LayerStack::default_2p5d();
  Timer timer;
  Floorplan best(system);

  if (method == "first-fit") {
    best = rl::first_fit_floorplan(system, {.grid = 64});
  } else if (method == "rl" || method == "rl-rnd") {
    // The quickstart path runs on the TrainingSession engine directly so
    // checkpoint/resume exercise the exact lifecycle tools/train.cpp uses.
    thermal::CharacterizationConfig cc;
    thermal::ThermalCharacterizer charac(stack, cc);
    thermal::FastThermalModel model = charac.characterize(
        system.interposer_width(), system.interposer_height());

    rl::TrainingSessionConfig config;
    config.env.grid = grid;
    config.net.grid = grid;
    config.ppo.adam.lr = 1e-3f;
    config.ppo.use_rnd = method == "rl-rnd";
    config.seed = seed;
    config.num_envs = envs;
    config.num_threads = threads;
    std::vector<rl::SessionTask> tasks;
    tasks.push_back(
        {system.name(), &system,
         std::make_unique<thermal::IncrementalFastModelEvaluator>(
             std::move(model))});
    rl::TrainingSession session(config, std::move(tasks));
    if (!resume.empty()) {
      // load_checkpoint rejects a corrupt file or any session/checkpoint
      // mismatch with a descriptive runtime_error (caught below).
      session.load_checkpoint(resume);
      std::printf("resumed %s at epoch %d\n", resume.c_str(),
                  session.epochs_completed());
    }
    for (int epoch = 0; epoch < epochs; ++epoch) {
      session.train_epoch();
      if (!checkpoint.empty() && checkpoint_every > 0 &&
          (epoch + 1) % checkpoint_every == 0) {
        session.save_checkpoint(checkpoint);
      }
    }
    // Save before the final greedy decode so the checkpoint is a pure
    // function of the training history (resume stays bit-exact vs. an
    // uninterrupted run).
    if (!checkpoint.empty()) {
      session.save_checkpoint(checkpoint);
      std::printf("checkpoint written to %s\n", checkpoint.c_str());
    }
    session.greedy_episode(0);
    best = session.has_best(0)
               ? session.best_floorplan(0)
               : rl::first_fit_floorplan(system, {.grid = grid});
  } else if (method == "sa-fast" || method == "sa-solver") {
    sa::Tap25dConfig config;
    config.anneal.time_budget_s = budget;
    config.anneal.max_evaluations = 100000000;
    config.anneal.cooling = 0.97;
    config.seed = seed;
    sa::Tap25dPlanner planner(config);
    if (method == "sa-fast") {
      thermal::CharacterizationConfig cc;
      thermal::ThermalCharacterizer charac(stack, cc);
      thermal::IncrementalFastModelEvaluator eval(charac.characterize(
          system.interposer_width(), system.interposer_height()));
      best = planner.plan(system, eval).best;
    } else {
      thermal::GridSolverEvaluator eval(stack, {});
      best = planner.plan(system, eval).best;
    }
  } else {
    std::fprintf(stderr, "unknown --method=%s\n", method.c_str());
    return 1;
  }

  // Ground-truth scoring + output.
  thermal::GridThermalSolver truth(stack, {});
  const bump::BumpAssigner assigner;
  const RewardCalculator rc;
  const double wl = assigner.assign(system, best).total_mm;
  const double t = truth.solve(system, best).max_temp_c;
  std::printf("\nmethod %-10s %.1f s | wirelength %.0f mm | peak %.2f C | "
              "reward %.4f\n",
              method.c_str(), timer.seconds(), wl, t, rc.reward(wl, t));

  util::write_json_file(out, floorplan_to_json(best));
  std::printf("floorplan written to %s\n", out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Bad paths, malformed files, and checkpoint mismatches all surface as
  // exceptions from the library; report them instead of std::terminate.
  try {
    return run_cli(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
