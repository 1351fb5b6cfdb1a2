// Command-line floorplanner: read a system file, optimize with a chosen
// method, write the floorplan file, and print ground-truth scores.
//
//   ./build/examples/rlplanner_cli <system-file | scenario.json> [options]
//     --method=rl|rl-rnd|sa-fast|sa-solver|first-fit   (default rl)
//     --epochs=N         RL training epochs            (default 30)
//     --grid=G           RL action grid                (default 16)
//     --budget=SECONDS   SA wall-clock budget          (default 30)
//     --out=FILE         floorplan output path         (default plan.fp)
//     --seed=S
//     --envs=N           parallel env replicas for RL  (default 1 = serial)
//     --threads=N        RL rollout and update lanes   (default 0 = auto)
//     --checkpoint=FILE  RL: write a full-state RLPNNv2 checkpoint here
//                        (at the end, plus every --checkpoint-every epochs)
//     --checkpoint-every=K   periodic checkpoint cadence (default 0 = end)
//     --resume=FILE      RL: restore a full-state checkpoint and continue
//                        training bit-exactly where it stopped
//
// With no arguments, runs on a built-in demo system so the tool is
// self-contained. Example system file (see src/systems/io.h):
//
//   system demo
//   interposer 30 30
//   chiplet cpu 9 9 30
//   chiplet gpu 10 8 35
//   net cpu gpu 256
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "rl/planner.h"
#include "rl/session.h"
#include "sa/tap25d.h"
#include "systems/io.h"
#include "systems/scenario.h"
#include "thermal/characterize.h"
#include "thermal/incremental.h"
#include "util/timer.h"

using namespace rlplan;

namespace {

const char* kDemoSystem = R"(
system demo
interposer 30 30
chiplet cpu 9 9 30
chiplet gpu 10 8 35
chiplet dram 7 10 6
chiplet io 5 5 4
net cpu gpu 256
net cpu dram 128
net gpu dram 128
net cpu io 64
)";

std::string option(int argc, char** argv, const char* name,
                   const std::string& fallback) {
  const std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return fallback;
}

}  // namespace

namespace {

int run_cli(int argc, char** argv) {
  // Load the problem: a line-oriented system file, or — when the path ends
  // in .json — a scenario file (its builtin/family/inline system is built;
  // budgets and envelopes are the regress tool's business, not the CLI's).
  ChipletSystem system = [&] {
    if (argc > 1 && argv[1][0] != '-') {
      const std::string path = argv[1];
      if (path.size() > 5 && path.rfind(".json") == path.size() - 5) {
        return systems::load_scenario_file(path).build_system();
      }
      return systems::read_system_file(path);
    }
    std::printf("no system file given; using the built-in demo system\n");
    std::istringstream demo(kDemoSystem);
    return systems::read_system(demo);
  }();
  std::printf("system '%s': %zu chiplets, %.0f W, %ld wires\n",
              system.name().c_str(), system.num_chiplets(),
              system.total_power(), system.total_wires());

  const std::string method = option(argc, argv, "method", "rl");
  const int epochs = std::stoi(option(argc, argv, "epochs", "30"));
  const auto grid =
      static_cast<std::size_t>(std::stoi(option(argc, argv, "grid", "16")));
  const double budget = std::stod(option(argc, argv, "budget", "30"));
  const std::string out = option(argc, argv, "out", "plan.fp");
  const auto seed =
      static_cast<std::uint64_t>(std::stoll(option(argc, argv, "seed", "1")));
  const int envs_raw = std::stoi(option(argc, argv, "envs", "1"));
  const int threads_raw = std::stoi(option(argc, argv, "threads", "0"));
  if (envs_raw < 1 || threads_raw < 0) {
    std::fprintf(stderr, "error: --envs must be >= 1 and --threads >= 0\n");
    return 1;
  }
  const auto envs = static_cast<std::size_t>(envs_raw);
  const auto threads = static_cast<std::size_t>(threads_raw);

  const auto stack = thermal::LayerStack::default_2p5d();
  Timer timer;
  Floorplan best(system);

  if (method == "first-fit") {
    best = rl::first_fit_floorplan(system, {.grid = 64});
  } else if (method == "rl" || method == "rl-rnd") {
    // The quickstart path runs on the TrainingSession engine directly so
    // checkpoint/resume exercise the exact lifecycle tools/train.cpp uses.
    const std::string checkpoint = option(argc, argv, "checkpoint", "");
    const std::string resume = option(argc, argv, "resume", "");
    const int checkpoint_every =
        std::stoi(option(argc, argv, "checkpoint-every", "0"));

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

  systems::write_floorplan_file(best, out);
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
