// Rollout-collection throughput: steps/sec of the parallel rollout
// subsystem at 1/2/4/8 environment replicas.
//
// Measures the full experience-collection pipeline — batched policy
// forwards, masked sampling, environment stepping, and the episode-end
// reward evaluation (microbump assignment + fast thermal model) — as a
// TrainingSession epoch runs it: parallel::collect_episodes over a VecEnv's
// replicas, with the pool set as the net's executor. The 1-env row
// with 1 thread is the serial baseline; the speedup column is relative to
// it. Every row builds its own evaluator, because replica 0 drives it
// directly and would otherwise inherit the previous row's incremental state.
//
// Flags:
//   --grid=N         action-grid resolution (default 32, the paper's G)
//   --chiplets=N     chiplets per synthetic system (default 8)
//   --episodes=N     episodes per timed measurement (default 48)
//   --threads=N      worker threads (default: = num_envs)
//   --max-envs=N     largest replica count, doubled from 1 (default 8)
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <vector>

#include "bench/bench_util.h"
#include "nn/layers.h"
#include "parallel/collector.h"
#include "parallel/thread_pool.h"
#include "parallel/vec_env.h"
#include "rl/policy_net.h"
#include "rl/rollout.h"
#include "systems/synthetic.h"
#include "thermal/characterize.h"
#include "thermal/evaluator.h"
#include "thermal/incremental.h"
#include "thermal/layer_stack.h"
#include "util/timer.h"

namespace {

struct Row {
  std::size_t num_envs = 0;
  std::size_t threads = 0;
  std::size_t steps = 0;
  double seconds = 0.0;
  double steps_per_sec = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace rlplan;

  const auto grid = bench::flag_int<std::size_t>(argc, argv, "grid", 32);
  const auto chiplets =
      bench::flag_int<std::size_t>(argc, argv, "chiplets", 8);
  const auto episodes =
      bench::flag_int<std::size_t>(argc, argv, "episodes", 48);
  const auto threads_flag =
      bench::flag_int<std::size_t>(argc, argv, "threads", 0);
  const auto max_envs =
      bench::flag_int<std::size_t>(argc, argv, "max-envs", 8);

  systems::SyntheticConfig sc;
  sc.interposer_w_mm = 45.0;
  sc.interposer_h_mm = 45.0;
  sc.min_chiplets = chiplets;
  sc.max_chiplets = chiplets;
  const ChipletSystem system =
      systems::SyntheticSystemGenerator(sc).generate(7, "micro-rollout");

  // The paper's training configuration: a characterized fast thermal model
  // answers the episode-end temperature query.
  const thermal::LayerStack stack = thermal::LayerStack::default_2p5d();
  thermal::CharacterizationConfig cc;
  cc.solver.dims = {24, 24};
  cc.auto_axis_points = 3;
  thermal::ThermalCharacterizer charac(stack, cc);
  const thermal::FastThermalModel model = charac.characterize(
      system.interposer_width(), system.interposer_height());
  std::fprintf(stderr, "[micro_rollout] characterization: %.1f s\n",
               charac.report().total_seconds);

  rl::PolicyNetConfig net_config;
  net_config.channels_in = rl::FloorplanEnv::kChannels;
  net_config.grid = grid;

  rl::EnvConfig env_config;
  env_config.grid = grid;

  std::printf("%8s %8s %10s %10s %12s %9s\n", "envs", "threads", "steps",
              "seconds", "steps/sec", "speedup");

  std::vector<Row> rows;
  for (std::size_t num_envs = 1; num_envs <= max_envs; num_envs *= 2) {
    const std::size_t threads = threads_flag > 0 ? threads_flag : num_envs;

    parallel::ThreadPool pool(threads);
    thermal::IncrementalFastModelEvaluator evaluator(model);
    parallel::VecEnv venv(system, evaluator, RewardCalculator{},
                          bump::BumpAssigner{}, env_config, num_envs,
                          /*seed=*/17);
    Rng net_rng(3);
    rl::PolicyValueNet net(net_config, net_rng);
    net.set_executor([&pool](std::size_t count,
                             const std::function<void(std::size_t)>& fn) {
      pool.parallel_for(count, fn);
    });

    rl::RolloutBuffer warmup;
    parallel::collect_episodes(venv, net, num_envs, warmup, &pool);

    rl::RolloutBuffer buffer;
    const Timer timer;
    const parallel::CollectorStats stats =
        parallel::collect_episodes(venv, net, episodes, buffer, &pool);
    const double seconds = timer.seconds();

    Row row;
    row.num_envs = num_envs;
    row.threads = threads;
    row.steps = stats.steps;
    row.seconds = seconds;
    row.steps_per_sec = seconds > 0.0
                            ? static_cast<double>(stats.steps) / seconds
                            : 0.0;
    rows.push_back(row);

    const double speedup = rows.front().steps_per_sec > 0.0
                               ? row.steps_per_sec / rows.front().steps_per_sec
                               : 0.0;
    std::printf("%8zu %8zu %10zu %10.3f %12.0f %8.2fx\n", row.num_envs,
                row.threads, row.steps, row.seconds, row.steps_per_sec,
                speedup);
  }
  return 0;
}
