// Training-session CLI — the operational front end of rl/session.h.
//
//   train train  --scenarios=a.json,b.json,... [--grid=12] [--envs=1]
//                [--threads=0] [--seed=1] [--epochs=10]
//                [--episodes-per-update=8] [--curriculum=round-robin|sampled]
//                [--rnd] [--metrics=train_metrics.jsonl] [--out=train.ckpt]
//                [--checkpoint-every=0] [--warm-start=CKPT]
//       Trains ONE policy across every listed scenario (curriculum), writing
//       one JSONL metrics record per epoch (tagged with the scenario the
//       epoch trained on) and a full-state RLPNNv2 checkpoint. --warm-start
//       initializes the net weights from an existing checkpoint and trains
//       fresh optimizer/normalizer/RNG state — the fine-tune-onto-a-held-out-
//       scenario workflow. --threads sets the lanes of the session's pool
//       (0 = min(--envs, hardware)): they step the replicas at --envs > 1
//       and run the net's passes and the PPO update at any --envs. No byte
//       of the JSONL or the checkpoint depends on it.
//
//   train resume --from=CKPT --scenarios=... --epochs=N [same flags]
//       Full-state resume: restores weights, Adam moments, RND nets, reward
//       normalizer, and every RNG stream, then trains N MORE epochs. For a
//       fixed seed, train(N) and train(k); resume(N-k) produce byte-identical
//       metrics tails and checkpoints (CI gates on exactly that).
//
//   train eval   --from=CKPT --scenarios=... [--grid=12]
//       Greedy (argmax) episode per scenario under the checkpointed policy;
//       prints one JSON line per scenario.
//
//   train bench  [--json=BENCH_train.json] [--epochs=2]
//                [--min-steps-per-sec=0] [--envs=4]
//       Collection-throughput benchmark of the session engine on synthetic
//       systems: serial vs. parallel replicas, single-scenario vs.
//       curriculum. Exits non-zero when any row's steps/sec falls below the
//       floor (CI perf gate, like micro_thermal's).
//
// JSONL records deliberately carry no wall-clock fields, so metrics streams
// from identical training histories are byte-identical and diffable; timing
// lands on stderr and in the bench JSON instead. Degraded epochs (deadline /
// SIGINT / NaN-guard rollback) gain extra "degraded"/"stop_reason" fields —
// fault-free runs stay byte-identical to older builds.
//
// Robustness: train/resume install a SIGINT/SIGTERM handler that requests a
// cooperative stop; the session finishes (or abandons, on cancel) the current
// epoch, writes a final full-state checkpoint, and exits 0. --deadline-s=S
// imposes the same stop on a wall-clock budget. `resume --from=` accepts a
// newest-first comma-separated candidate list: corrupt files are quarantined
// (renamed *.corrupt) and the newest valid checkpoint wins; a checkpoint
// that does not match the command line (grid, --envs, scenarios, ...) stops
// the resume with that error and renames nothing.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rl/session.h"
#include "robust/robust.h"
#include "serve/cache.h"
#include "serve/runner.h"
#include "systems/scenario.h"
#include "systems/synthetic.h"
#include "thermal/characterize.h"
#include "thermal/incremental.h"
#include "thermal/layer_stack.h"
#include "util/json.h"
#include "util/log.h"
#include "util/timer.h"

namespace {

using namespace rlplan;

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const std::size_t comma = csv.find(',', start);
    const std::string item = csv.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

struct LoadedSuite {
  std::vector<ChipletSystem> systems;  ///< stable storage; tasks point here
  std::vector<rl::SessionTask> tasks;
};

/// Loads the scenarios, characterizing each interposer footprint once at
/// the serve runner's coarse tooling resolution (the engine gates on
/// consistency, not sub-Kelvin accuracy).
LoadedSuite load_tasks(const std::vector<std::string>& paths) {
  serve::CharacterizationCache models(
      thermal::LayerStack::default_2p5d(),
      serve::RunnerConfig::coarse_characterization());
  LoadedSuite suite;
  suite.systems.reserve(paths.size());  // tasks keep pointers: no realloc
  for (const std::string& path : paths) {
    const systems::Scenario scenario = systems::load_scenario_file(path);
    suite.systems.push_back(scenario.build_system());
    const ChipletSystem& system = suite.systems.back();
    const thermal::FastThermalModel& model = models.get(
        system.interposer_width(), system.interposer_height());
    suite.tasks.push_back(
        {scenario.name, &system,
         std::make_unique<thermal::IncrementalFastModelEvaluator>(model)});
  }
  const serve::CharacterizationCacheStats cs = models.stats();
  std::fprintf(stderr, "[train] characterized %llu footprint(s) (%.1f s)\n",
               static_cast<unsigned long long>(cs.misses),
               cs.characterize_seconds);
  return suite;
}

rl::TrainingSessionConfig session_config(int argc, char** argv) {
  rl::TrainingSessionConfig sc;
  const auto grid = bench::flag_int<std::size_t>(argc, argv, "grid", 12);
  sc.env.grid = grid;
  sc.net.grid = grid;
  sc.num_envs = bench::flag_int<std::size_t>(argc, argv, "envs", 1);
  sc.num_threads = bench::flag_int<std::size_t>(argc, argv, "threads", 0);
  sc.seed = bench::flag_int<std::uint64_t>(argc, argv, "seed", 1);
  sc.ppo.episodes_per_update =
      bench::flag_int<int>(argc, argv, "episodes-per-update", 8);
  sc.ppo.use_rnd = bench::flag_present(argc, argv, "rnd");
  const std::string curriculum =
      bench::flag_str(argc, argv, "curriculum", "round-robin");
  if (curriculum == "sampled") {
    sc.curriculum = rl::CurriculumMode::kSampled;
  } else if (curriculum == "round-robin") {
    sc.curriculum = rl::CurriculumMode::kRoundRobin;
  } else {
    throw std::runtime_error("unknown --curriculum=" + curriculum);
  }
  return sc;
}

util::JsonValue stats_to_json(int epoch, const rl::TrainStats& stats,
                              long total_env_steps) {
  util::JsonValue j = util::JsonValue::make_object();
  j.set("epoch", epoch);
  j.set("scenario", stats.scenario);
  j.set("mean_reward", stats.mean_reward);
  j.set("best_reward", stats.best_reward);
  j.set("policy_loss", stats.policy_loss);
  j.set("value_loss", stats.value_loss);
  j.set("entropy", stats.entropy);
  j.set("approx_kl", stats.approx_kl);
  j.set("grad_norm", stats.grad_norm);
  j.set("rnd_error", stats.rnd_error);
  j.set("steps", stats.steps);
  j.set("episodes", stats.episodes);
  j.set("dead_ends", stats.dead_ends);
  j.set("total_env_steps", total_env_steps);
  // Degraded-only fields: fault-free metrics streams stay byte-identical
  // across builds (the CI resume-determinism gate diffs them).
  if (stats.degraded()) {
    j.set("degraded", true);
    j.set("stop_reason", std::string(robust::to_string(stats.stop_reason)));
    j.set("update_skipped", stats.update_skipped);
  }
  return j;
}

void save_checkpoint_with_retry(rl::TrainingSession& session,
                                const std::string& path) {
  robust::retry_with_backoff([&] { session.save_checkpoint(path); });
}

/// Shared train/resume driver: run `epochs` more epochs, stream JSONL,
/// checkpoint on cadence and at the end.
int run_training(rl::TrainingSession& session, int epochs,
                 const std::string& metrics_path,
                 const std::string& checkpoint_path, int checkpoint_every) {
  std::ofstream metrics_file;
  const bool to_stdout = metrics_path == "-";
  if (!to_stdout && !metrics_path.empty()) {
    metrics_file.open(metrics_path);
    if (!metrics_file) {
      std::fprintf(stderr, "[train] cannot open %s\n", metrics_path.c_str());
      return 2;
    }
  }

  const long steps_before = session.total_env_steps();  // nonzero on resume
  robust::StopReason stop = robust::StopReason::kNone;
  const Timer timer;
  for (int i = 0; i < epochs; ++i) {
    const int epoch = session.epochs_completed();  // absolute epoch index
    const rl::TrainStats stats = session.train_epoch();
    stop = stats.stop_reason;
    // A stop with zero steps collected nothing — no epoch to record.
    if (stop == robust::StopReason::kNone || stats.steps > 0) {
      const std::string line =
          stats_to_json(epoch, stats, session.total_env_steps()).dump(0);
      if (to_stdout) {
        std::printf("%s\n", line.c_str());
      } else if (metrics_file.is_open()) {
        metrics_file << line << "\n";
        metrics_file.flush();
      }
    }
    if (stop != robust::StopReason::kNone) {
      std::fprintf(stderr,
                   "[train] stop requested (%s) after %d completed epochs; "
                   "checkpointing best-so-far\n",
                   robust::to_string(stop), session.epochs_completed());
      break;
    }
    if (checkpoint_every > 0 && !checkpoint_path.empty() &&
        (i + 1) % checkpoint_every == 0) {
      save_checkpoint_with_retry(session, checkpoint_path);
    }
  }
  const double train_s = timer.seconds();

  // Checkpoint BEFORE the final greedy decode: the checkpoint is then a pure
  // function of the training history, so train(N) and train(k);resume(N-k)
  // write byte-identical files (the CI resume-determinism gate cmp's them).
  // This also runs on a deadline/signal stop — that final checkpoint is the
  // resumable best-so-far state.
  if (!checkpoint_path.empty()) {
    save_checkpoint_with_retry(session, checkpoint_path);
    std::fprintf(stderr, "[train] checkpoint written to %s\n",
                 checkpoint_path.c_str());
  }
  if (stop == robust::StopReason::kNone) {
    for (std::size_t t = 0; t < session.num_tasks(); ++t) {
      session.greedy_episode(t);  // final greedy decode per scenario
    }
  }
  const long run_steps = session.total_env_steps() - steps_before;
  std::fprintf(stderr,
               "[train] %d epochs, %ld env steps, %.1f s (%.1f steps/s)\n",
               epochs, run_steps, train_s,
               train_s > 0.0 ? static_cast<double>(run_steps) / train_s
                             : 0.0);
  for (std::size_t t = 0; t < session.num_tasks(); ++t) {
    if (!session.has_best(t)) continue;
    const rl::EpisodeMetrics& m = session.best_metrics(t);
    std::fprintf(stderr,
                 "[train] %-24s best: wirelength %.0f mm, peak %.2f C, "
                 "reward %.4f\n",
                 session.task(t).name.c_str(), m.wirelength_mm,
                 m.temperature_c, m.reward);
  }
  return 0;
}

int cmd_train_or_resume(int argc, char** argv, bool resume) {
  const std::string scenarios =
      bench::flag_str(argc, argv, "scenarios", "");
  if (scenarios.empty()) {
    std::fprintf(stderr, "[train] --scenarios=a.json,b.json,... required\n");
    return 2;
  }
  // Every numeric flag is read before any work, so a malformed one exits
  // before characterization.
  const rl::TrainingSessionConfig config = session_config(argc, argv);
  const int epochs = bench::flag_int<int>(argc, argv, "epochs", 10);
  const int checkpoint_every =
      bench::flag_int<int>(argc, argv, "checkpoint-every", 0);
  const double deadline_s =
      bench::flag_double(argc, argv, "deadline-s", 0.0);
  LoadedSuite suite = load_tasks(split_list(scenarios));

  rl::TrainingSession session(config, std::move(suite.tasks));

  // Stop signals: a live cancel token wired to SIGINT/SIGTERM (checkpoint +
  // clean exit on the first signal, default disposition on the second), plus
  // an optional wall-clock budget.
  robust::RunControl control;
  control.cancel = robust::CancelToken::create();
  robust::install_signal_cancel(control.cancel);
  if (deadline_s > 0.0) {
    control.deadline = robust::Deadline::after_seconds(deadline_s);
  }
  session.set_control(control);

  if (resume) {
    const std::string from = bench::flag_str(argc, argv, "from", "");
    if (from.empty()) {
      std::fprintf(stderr, "[train] resume requires --from=CKPT\n");
      return 2;
    }
    const std::vector<std::string> candidates = split_list(from);
    if (candidates.size() > 1) {
      // Newest-first candidate list: scan to the newest valid checkpoint,
      // quarantining (renaming *.corrupt) any that fail validation.
      const std::string used =
          rl::load_newest_valid_checkpoint(session, candidates);
      std::fprintf(stderr,
                   "[train] resumed %s (newest valid of %zu candidates) at "
                   "epoch %d\n",
                   used.c_str(), candidates.size(),
                   session.epochs_completed());
    } else {
      session.load_checkpoint(from);
      std::fprintf(stderr, "[train] resumed %s at epoch %d\n", from.c_str(),
                   session.epochs_completed());
    }
  } else {
    const std::string warm = bench::flag_str(argc, argv, "warm-start", "");
    if (!warm.empty()) {
      session.load_checkpoint(warm, /*warm_start=*/true);
      std::fprintf(stderr, "[train] warm-started weights from %s\n",
                   warm.c_str());
    }
  }

  return run_training(
      session, epochs,
      bench::flag_str(argc, argv, "metrics", "train_metrics.jsonl"),
      bench::flag_str(argc, argv, "out", "train.ckpt"), checkpoint_every);
}

int cmd_eval(int argc, char** argv) {
  const std::string scenarios = bench::flag_str(argc, argv, "scenarios", "");
  const std::string from = bench::flag_str(argc, argv, "from", "");
  if (scenarios.empty() || from.empty()) {
    std::fprintf(stderr, "[train] eval requires --from=CKPT and "
                 "--scenarios=...\n");
    return 2;
  }
  const rl::TrainingSessionConfig config = session_config(argc, argv);
  LoadedSuite suite = load_tasks(split_list(scenarios));
  rl::TrainingSession session(config, std::move(suite.tasks));
  // Greedy evaluation only needs the policy weights.
  session.load_checkpoint(from, /*warm_start=*/true);

  for (std::size_t t = 0; t < session.num_tasks(); ++t) {
    const rl::EpisodeMetrics m = session.greedy_episode(t);
    util::JsonValue j = util::JsonValue::make_object();
    j.set("scenario", session.task(t).name);
    j.set("valid", m.valid);
    j.set("wirelength_mm", m.wirelength_mm);
    j.set("temperature_c", m.temperature_c);
    j.set("reward", m.reward);
    std::printf("%s\n", j.dump(0).c_str());
  }
  return 0;
}

// --- bench -------------------------------------------------------------------

struct BenchRow {
  std::string mode;
  std::size_t tasks = 0;
  std::size_t envs = 0;
  long steps = 0;
  double seconds = 0.0;
  double steps_per_sec = 0.0;
};

BenchRow bench_run(const std::string& mode,
                   const std::vector<const ChipletSystem*>& systems,
                   const thermal::FastThermalModel& model,
                   std::size_t num_envs, int epochs) {
  rl::TrainingSessionConfig sc;
  sc.env.grid = 12;
  sc.net.grid = 12;
  sc.ppo.episodes_per_update = 8;
  sc.num_envs = num_envs;
  sc.seed = 11;
  std::vector<rl::SessionTask> tasks;
  for (std::size_t i = 0; i < systems.size(); ++i) {
    tasks.push_back(
        {"bench" + std::to_string(i), systems[i],
         std::make_unique<thermal::IncrementalFastModelEvaluator>(model)});
  }
  rl::TrainingSession session(sc, std::move(tasks));
  session.train_epoch();  // warmup epoch (excluded from the timed window)

  const long steps_before = session.total_env_steps();
  const Timer timer;
  for (int e = 0; e < epochs; ++e) session.train_epoch();
  BenchRow row;
  row.mode = mode;
  row.tasks = systems.size();
  row.envs = num_envs;
  row.seconds = timer.seconds();
  row.steps = session.total_env_steps() - steps_before;
  row.steps_per_sec = row.seconds > 0.0
                          ? static_cast<double>(row.steps) / row.seconds
                          : 0.0;
  std::printf("%-22s %5zu tasks %5zu envs %8ld steps %8.2f s %10.1f/s\n",
              mode.c_str(), row.tasks, row.envs, row.steps, row.seconds,
              row.steps_per_sec);
  return row;
}

int cmd_bench(int argc, char** argv) {
  const std::string json_path =
      bench::flag_str(argc, argv, "json", "BENCH_train.json");
  const int epochs = bench::flag_int<int>(argc, argv, "epochs", 2);
  const double floor =
      bench::flag_double(argc, argv, "min-steps-per-sec", 0.0);
  const auto envs = bench::flag_int<std::size_t>(argc, argv, "envs", 4);

  // Three small synthetic systems on one footprint: one characterization
  // shared by every row.
  systems::SyntheticConfig syc;
  syc.interposer_w_mm = 36.0;
  syc.interposer_h_mm = 36.0;
  syc.min_chiplets = 5;
  syc.max_chiplets = 5;
  const systems::SyntheticSystemGenerator gen(syc);
  std::vector<ChipletSystem> systems;
  systems.reserve(3);
  for (std::uint64_t s = 0; s < 3; ++s) {
    systems.push_back(gen.generate(s + 1, "bench" + std::to_string(s)));
  }

  const thermal::LayerStack stack = thermal::LayerStack::default_2p5d();
  thermal::CharacterizationConfig cc;
  cc.solver.dims = {24, 24};
  cc.auto_axis_points = 3;
  thermal::ThermalCharacterizer charac(stack, cc);
  const thermal::FastThermalModel model =
      charac.characterize(syc.interposer_w_mm, syc.interposer_h_mm);
  std::fprintf(stderr, "[train] bench characterization: %.1f s\n",
               charac.report().total_seconds);

  std::vector<BenchRow> rows;
  rows.push_back(bench_run("serial_single", {&systems[0]}, model, 1, epochs));
  rows.push_back(bench_run("parallel_single", {&systems[0]}, model, envs,
                           epochs));
  rows.push_back(bench_run(
      "serial_curriculum",
      {&systems[0], &systems[1], &systems[2]}, model, 1,
      std::max(epochs, 3)));

  util::JsonValue report = util::JsonValue::make_object();
  report.set("bench", "train_session");
  report.set("epochs", epochs);
  util::JsonValue jrows = util::JsonValue::make_array();
  bool breach = false;
  for (const BenchRow& row : rows) {
    util::JsonValue j = util::JsonValue::make_object();
    j.set("mode", row.mode);
    j.set("tasks", row.tasks);
    j.set("envs", row.envs);
    j.set("steps", row.steps);
    j.set("seconds", row.seconds);
    j.set("steps_per_sec", row.steps_per_sec);
    jrows.push_back(std::move(j));
    if (floor > 0.0 && row.steps_per_sec < floor) {
      std::fprintf(stderr,
                   "[train] BENCH FAIL: %s %.1f steps/s below floor %.1f\n",
                   row.mode.c_str(), row.steps_per_sec, floor);
      breach = true;
    }
  }
  report.set("rows", std::move(jrows));
  report.set("min_steps_per_sec", floor);
  report.set("pass", !breach);
  util::write_json_file(json_path, report);
  std::fprintf(stderr, "[train] wrote %s\n", json_path.c_str());
  return breach ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 && argv[1][0] != '-' ? argv[1] : "";
  // Telemetry side channel: --metrics already means "training JSONL" here,
  // so the metrics registry export rides on --obs-metrics instead. Both
  // flags turn telemetry on; neither changes any training output.
  const std::string trace_path =
      rlplan::bench::flag_str(argc, argv, "trace", "");
  const std::string obs_metrics_path =
      rlplan::bench::flag_str(argc, argv, "obs-metrics", "");
  if (!trace_path.empty() || !obs_metrics_path.empty()) {
    rlplan::obs::set_enabled(true);
    rlplan::set_log_prefix(true);
  }
  const auto write_telemetry = [&] {
    if (!trace_path.empty()) {
      rlplan::obs::write_chrome_trace(trace_path);
      std::fprintf(stderr, "[train] wrote trace to %s\n", trace_path.c_str());
    }
    if (!obs_metrics_path.empty()) {
      rlplan::obs::MetricsRegistry::instance().write_jsonl(obs_metrics_path);
      std::fprintf(stderr, "[train] wrote metrics to %s\n",
                   obs_metrics_path.c_str());
    }
  };
  try {
    int rc = 2;
    if (cmd == "train") {
      rc = cmd_train_or_resume(argc, argv, false);
    } else if (cmd == "resume") {
      rc = cmd_train_or_resume(argc, argv, true);
    } else if (cmd == "eval") {
      rc = cmd_eval(argc, argv);
    } else if (cmd == "bench") {
      rc = cmd_bench(argc, argv);
    }
    if (!cmd.empty()) {
      write_telemetry();
      return rc;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[train] %s\n", e.what());
    return 2;
  }
  std::fprintf(stderr,
               "usage: train <train|resume|eval|bench> [flags]\n"
               "  train train  --scenarios=a.json,b.json [--epochs=10] "
               "[--grid=12] [--envs=1] [--seed=1]\n"
               "               [--curriculum=round-robin|sampled] [--rnd] "
               "[--metrics=FILE|-] [--out=CKPT]\n"
               "               [--checkpoint-every=K] [--warm-start=CKPT] "
               "[--deadline-s=S]\n"
               "  train resume --from=CKPT[,OLDER,...] --scenarios=... "
               "--epochs=N\n"
               "               (candidate list newest first: corrupt files "
               "are quarantined, newest valid wins)\n"
               "  train eval   --from=CKPT --scenarios=...\n"
               "  train bench  [--json=BENCH_train.json] "
               "[--min-steps-per-sec=F] [--envs=4]\n"
               "  any command: [--trace=trace.json] "
               "[--obs-metrics=obs.jsonl] (telemetry side channel)\n");
  return 2;
}
