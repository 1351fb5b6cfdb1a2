// Micro-benchmarks of the thermal substrate.
//
// Four parts:
//  1. A hand-rolled comparison of single-die moves on the fast model at
//     4/8/16/32 chiplets (the reward hot path both optimizers sit on):
//     incremental move+query at the dispatched SIMD level and at forced
//     scalar, against a full re-evaluation per move by the test-only oracle
//     (tests/fast_model_oracle.h, a plain scalar evaluation). Printed
//     as a table and emitted as machine-readable BENCH_thermal.json so
//     later PRs can track the perf trajectory. Flags: --moves=N,
//     --json=PATH, --smoke (tiny move counts, skip the google-benchmark
//     suite — the CI smoke step uses this), --min-move-speedup=X (gate:
//     dispatched incremental vs oracle re-evaluation at >= 16 dies).
//  2. A whole-floorplan batch comparison: K candidate floorplans scored with
//     one FastThermalModel::evaluate_batch() call (the SoA kernel, fanned
//     over a ThreadPool when --batch-threads > 1) versus K oracle
//     evaluations. Each row reports rates over all repeats and over the
//     fastest repeat (best_*). Flags: --batch=K (64), --batch-repeats=N,
//     --batch-threads=N (default: hardware), --min-batch-speedup=X (gate,
//     on the all-repeats speedup).
//  3. Population rounds at 8/16/32 chiplets: SA-style rounds of K = 16
//     candidates (displace / swap / rotate off a current floorplan that
//     half the rounds advance), each round scored by one
//     IncrementalFastModelEvaluator::max_temperature_batch() call (exact
//     deltas on its batch state) against one single-threaded
//     evaluate_batch() call, best of --batch-repeats. Any bit difference
//     between the two exits 1. Flag: --min-population-speedup=X (gate, on
//     rows of >= 16 chiplets).
//  4. The google-benchmark suite covering the cost model behind Table II's
//     speed column: full grid solves at several resolutions, the
//     conductance stencil fill alone, fast-model evaluation, and microbump
//     assignment over an SA move tape (memoizing long-lived assigner vs a
//     fresh one per call).
//
// Every run also checks the numerics contract (thermal/soa_snapshot.h): a
// fresh incremental state equals a SoaSnapshot at the same level exactly,
// and every path stays within 1e-9 C of the oracle.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bump/assigner.h"
#include "parallel/thread_pool.h"
#include "systems/synthetic.h"
#include "tests/fast_model_oracle.h"
#include "thermal/characterize.h"
#include "thermal/grid_solver.h"
#include "thermal/incremental.h"
#include "thermal/soa_snapshot.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace rlplan;

namespace {

const ChipletSystem& test_system() {
  static const ChipletSystem sys = [] {
    systems::SyntheticConfig sc;
    sc.min_chiplets = 6;
    sc.max_chiplets = 6;
    return systems::SyntheticSystemGenerator(sc).generate(42, "bench6");
  }();
  return sys;
}

const Floorplan& test_floorplan() {
  static const Floorplan fp = [] {
    Rng rng(7);
    return systems::random_legal_floorplan(test_system(), rng);
  }();
  return fp;
}

const thermal::LayerStack& stack() {
  static const thermal::LayerStack s = thermal::LayerStack::default_2p5d();
  return s;
}

void BM_GridSolve(benchmark::State& state) {
  const auto g = static_cast<std::size_t>(state.range(0));
  thermal::GridSolverConfig config{.dims = {g, g}};
  config.warm_start = false;
  thermal::GridThermalSolver solver(stack(), config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solver.solve(test_system(), test_floorplan()).max_temp_c);
  }
  state.SetLabel(std::to_string(g) + "x" + std::to_string(g) + " grid");
}
BENCHMARK(BM_GridSolve)->Arg(24)->Arg(32)->Arg(48)->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_GridSolveWarmStart(benchmark::State& state) {
  thermal::GridThermalSolver solver(stack(), {.dims = {48, 48}});
  solver.solve(test_system(), test_floorplan());  // prime the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        solver.solve(test_system(), test_floorplan()).max_temp_c);
  }
}
BENCHMARK(BM_GridSolveWarmStart)->Unit(benchmark::kMillisecond);

void BM_MatrixAssembly(benchmark::State& state) {
  const auto g = static_cast<std::size_t>(state.range(0));
  thermal::ThermalGridModel model(stack(), test_system(), {g, g});
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.build_stencil(test_floorplan()).diag.data());
  }
}
BENCHMARK(BM_MatrixAssembly)->Arg(32)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_FastModelEvaluate(benchmark::State& state) {
  static const thermal::FastThermalModel model = [] {
    thermal::CharacterizationConfig cc;
    cc.solver.dims = {32, 32};
    cc.auto_axis_points = 6;
    thermal::ThermalCharacterizer charac(stack(), cc);
    return charac.characterize(50.0, 50.0);
  }();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.evaluate(test_system(), test_floorplan()).max_temp_c);
  }
}
BENCHMARK(BM_FastModelEvaluate)->Unit(benchmark::kMicrosecond);

/// Generator config of the shipped family_sweep32 (seed 37) and
/// family_sweep64 (seed 41) scenarios; power does not enter microbump
/// assignment.
systems::FamilyConfig sweep_family(std::size_t dies) {
  systems::FamilyConfig fc;
  fc.chiplets = dies;
  fc.interposer_w_mm = fc.interposer_h_mm = dies > 32 ? 120.0 : 90.0;
  fc.min_dim_mm = 3.0;
  fc.max_dim_mm = 8.0;
  fc.extra_net_prob = dies > 32 ? 0.05 : 0.1;
  return fc;
}

/// A seeded SA-style candidate stream on a sweep_family() system. Each
/// candidate displaces, rotates or swaps dies of the current
/// floorplan; 45% of candidates become the next current floorplan (about
/// SA's accept ratio on these systems), the rest are discarded as SA
/// discards a rejected candidate. Candidates point at `system`, so the tape
/// is neither copied nor moved.
struct BumpTape {
  explicit BumpTape(std::size_t dies)
      : system(systems::generate_family(sweep_family(dies), dies > 32 ? 41 : 37,
                                        "sweep" + std::to_string(dies))) {
    Rng rng(7 + dies);
    Floorplan current = systems::random_legal_floorplan(system, rng);
    const double side = system.interposer_width();
    for (int c = 0; c < 1024; ++c) {
      Floorplan next = current;
      const std::size_t i = rng.uniform_int(std::uint64_t{dies});
      const Placement p = *current.placement(i);
      const double u = rng.uniform();
      if (u < 0.6) {
        const double d = 0.1 * side;
        next.place(i,
                   {std::clamp(p.position.x + rng.uniform(-d, d), 0.0, side),
                    std::clamp(p.position.y + rng.uniform(-d, d), 0.0, side)},
                   p.rotated);
      } else if (u < 0.8) {
        next.place(i, p.position, !p.rotated);
      } else {
        const std::size_t j =
            (i + 1 + rng.uniform_int(std::uint64_t{dies - 1})) % dies;
        const Placement q = *current.placement(j);
        next.place(i, q.position, p.rotated);
        next.place(j, p.position, q.rotated);
      }
      candidates.push_back(next);
      if (rng.uniform() < 0.45) current = std::move(next);
    }
  }
  BumpTape(const BumpTape&) = delete;
  BumpTape& operator=(const BumpTape&) = delete;

  const ChipletSystem system;
  std::vector<Floorplan> candidates;
};

/// Microbump assignment over an SA move tape at 32 and 64 dies: with one
/// long-lived assigner, as SA calls it (the current floorplan is one of its
/// two recorded assignments, so a call walks only the nets the candidate's
/// move changes), and with a fresh assigner per call (every net walked and
/// recorded, like an RL episode end).
void BM_BumpAssignmentTape(benchmark::State& state) {
  static const BumpTape tape32(32);
  static const BumpTape tape64(64);
  const BumpTape& tape = state.range(0) > 32 ? tape64 : tape32;
  const bool fresh = state.range(1) != 0;
  const bump::BumpAssigner long_lived;
  std::size_t k = 0;
  for (auto _ : state) {
    const Floorplan& fp = tape.candidates[k];
    k = k + 1 == tape.candidates.size() ? 0 : k + 1;
    if (fresh) {
      benchmark::DoNotOptimize(
          bump::BumpAssigner().assign(tape.system, fp).total_mm);
    } else {
      benchmark::DoNotOptimize(long_lived.assign(tape.system, fp).total_mm);
    }
  }
  state.SetLabel(std::to_string(state.range(0)) + " dies, " +
                 (fresh ? "fresh assigner per call" : "long-lived assigner"));
}
BENCHMARK(BM_BumpAssignmentTape)
    ->Args({32, 0})
    ->Args({32, 1})
    ->Args({64, 0})
    ->Args({64, 1})
    ->Unit(benchmark::kMicrosecond);

// ------------------------------------------------ incremental vs batch ----

constexpr double kBenchInterposer = 80.0;

/// Characterization-free synthetic model (smooth analytic tables) so the
/// incremental comparison — and the CI smoke run — starts instantly.
thermal::FastThermalModel synthetic_model() {
  std::vector<double> dims;
  for (double d = 2.0; d <= 22.0; d += 4.0) dims.push_back(d);
  std::vector<std::vector<double>> self_vals(dims.size(),
                                             std::vector<double>(dims.size()));
  std::vector<std::vector<double>> droop_vals(
      dims.size(), std::vector<double>(dims.size()));
  for (std::size_t i = 0; i < dims.size(); ++i) {
    for (std::size_t j = 0; j < dims.size(); ++j) {
      self_vals[i][j] = 3.0 / (1.0 + 0.04 * dims[i] * dims[j]);
      droop_vals[i][j] = 0.6;
    }
  }
  const double floor = 0.02;
  std::vector<double> distances, mutual_vals;
  for (double d = 0.0; d <= 120.0; d += 1.5) {
    distances.push_back(d);
    mutual_vals.push_back(floor + 0.8 * std::exp(-d / 10.0));
  }
  thermal::FastThermalModel model(
      thermal::SelfResistanceTable(dims, dims, self_vals),
      thermal::MutualResistanceTable(distances, mutual_vals), 45.0, {});
  model.set_image_params(kBenchInterposer, kBenchInterposer, floor);
  model.set_self_droop(thermal::BilinearTable2D(dims, dims, droop_vals));
  return model;
}

/// An n-chiplet synthetic system on the bench interposer, at most 45%
/// utilized.
ChipletSystem bench_system(std::size_t n, std::uint64_t seed,
                           const std::string& name) {
  systems::SyntheticConfig sc;
  sc.min_chiplets = n;
  sc.max_chiplets = n;
  sc.interposer_w_mm = kBenchInterposer;
  sc.interposer_h_mm = kBenchInterposer;
  sc.max_utilization = 0.45;
  return systems::SyntheticSystemGenerator(sc).generate(seed, name);
}

struct MoveRow {
  std::size_t chiplets = 0;
  double batch_evals_per_sec = 0.0;        // oracle full re-evaluation
  double incr_evals_per_sec = 0.0;         // dispatched incremental
  double scalar_incr_evals_per_sec = 0.0;  // forced-scalar incremental
  double speedup = 0.0;       // dispatched incremental vs oracle
  double move_speedup = 0.0;  // dispatched vs forced-scalar incremental
  double move_ns = 0.0;         // ns per dispatched incremental move+query
  double scalar_move_ns = 0.0;  // ns per forced-scalar move+query
  double max_abs_diff_c = 0.0;     // dispatched incremental vs oracle
  double max_scalar_diff_c = 0.0;  // forced-scalar incremental vs oracle
  double anchor_diff_c = 0.0;  // fresh state vs same-level snapshot
};

/// Largest |fresh incremental state - SoaSnapshot| over the dispatched and
/// forced-scalar levels on `fp`: the numerics contract's exact anchor, so
/// anything but 0 is a broken invariant.
double anchor_diff(const thermal::FastThermalModel& model,
                   const ChipletSystem& sys, const Floorplan& fp) {
  double worst = 0.0;
  for (const util::SimdLevel level :
       {thermal::soa_dispatch_level(), util::SimdLevel::kScalar}) {
    thermal::IncrementalThermalState state(model, sys);
    state.set_simd_level(level);
    state.sync(fp);
    thermal::SoaSnapshot snapshot(model, sys);
    snapshot.set_simd_level(level);
    snapshot.refresh(fp);
    thermal::FastThermalResult r;
    snapshot.evaluate(r);
    worst = std::max(worst, std::abs(state.max_temperature_c() - r.max_temp_c));
  }
  return worst;
}

MoveRow run_move_comparison(const thermal::FastThermalModel& model,
                            std::size_t n, std::size_t moves) {
  const ChipletSystem sys = bench_system(n, 1234 + n, "bench-incr");
  Rng rng(99 + n);
  const Floorplan initial = systems::random_legal_floorplan(sys, rng);

  // One shared single-die move tape so every engine does identical work.
  struct Move {
    std::size_t die;
    Point pos;
  };
  std::vector<Move> tape;
  tape.reserve(moves);
  for (std::size_t t = 0; t < moves; ++t) {
    const std::size_t die = t % n;
    const Rect r = initial.rect_of(die);
    tape.push_back({die,
                    {rng.uniform(0.0, kBenchInterposer - r.w),
                     rng.uniform(0.0, kBenchInterposer - r.h)}});
  }

  MoveRow row;
  row.chiplets = n;
  row.anchor_diff_c = anchor_diff(model, sys, initial);
  std::vector<double> oracle_temps;
  oracle_temps.reserve(tape.size());
  {
    thermal::oracle::OracleEvaluator eval(model);
    Floorplan fp = initial;
    eval.max_temperature(sys, fp);  // prime (matches the incremental sync)
    const Timer timer;
    for (const Move& m : tape) {
      fp.place(m.die, m.pos, false);
      oracle_temps.push_back(eval.max_temperature(sys, fp));
    }
    row.batch_evals_per_sec = static_cast<double>(moves) / timer.seconds();
  }
  // The incremental engine over the identical tape at both levels: forced
  // scalar and the runtime-dispatched kernels.
  const auto run_incremental = [&](util::SimdLevel level, double& evals_per_sec,
                                   double& max_diff) {
    thermal::IncrementalFastModelEvaluator eval(model);
    eval.set_simd_level(level);
    Floorplan fp = initial;
    eval.incremental_max_temperature(sys, fp);  // build the coupling cache
    eval.commit();
    const Timer timer;
    std::size_t t = 0;
    for (const Move& m : tape) {
      fp.place(m.die, m.pos, false);
      const double temp = eval.incremental_max_temperature(sys, fp);
      eval.commit();
      max_diff = std::max(max_diff, std::abs(temp - oracle_temps[t++]));
    }
    evals_per_sec = static_cast<double>(moves) / timer.seconds();
  };
  run_incremental(util::SimdLevel::kScalar, row.scalar_incr_evals_per_sec,
                  row.max_scalar_diff_c);
  run_incremental(thermal::soa_dispatch_level(), row.incr_evals_per_sec,
                  row.max_abs_diff_c);
  row.speedup = row.incr_evals_per_sec / row.batch_evals_per_sec;
  row.move_speedup = row.incr_evals_per_sec / row.scalar_incr_evals_per_sec;
  row.move_ns = 1e9 / row.incr_evals_per_sec;
  row.scalar_move_ns = 1e9 / row.scalar_incr_evals_per_sec;
  return row;
}

// ---------------------------------------------------- batch vs single ----

struct BatchRow {
  std::size_t chiplets = 0;
  std::size_t batch = 0;
  // Means over all repeats, and the fastest single repeat: on a shared host
  // the best-of-repeats figure is the steadier one.
  double single_evals_per_sec = 0.0;
  double batch_evals_per_sec = 0.0;
  double speedup = 0.0;
  double single_best_evals_per_sec = 0.0;
  double batch_best_evals_per_sec = 0.0;
  double best_speedup = 0.0;
  double max_abs_diff_c = 0.0;
};

/// K random legal candidate floorplans scored via repeated oracle
/// evaluations versus one evaluate_batch() call per repeat — the
/// SA-population / PPO-batch query shape. Also cross-checks the SoA results
/// against the oracle (documented tolerance: 1e-9 C).
BatchRow run_batch_comparison(const thermal::FastThermalModel& model,
                              std::size_t n, std::size_t batch,
                              std::size_t repeats,
                              std::size_t threads) {
  const ChipletSystem sys = bench_system(n, 4321 + n, "bench-batch");
  Rng rng(55 + n);
  std::vector<Floorplan> candidates;
  candidates.reserve(batch);
  for (std::size_t i = 0; i < batch; ++i) {
    candidates.push_back(systems::random_legal_floorplan(sys, rng));
  }

  BatchRow row;
  row.chiplets = n;
  row.batch = batch;

  // Times each repeat of `fn`; sets the mean and best-repeat rates.
  const auto time_repeats = [&](const auto& fn, double& mean_per_sec,
                                double& best_per_sec) {
    double total_s = 0.0;
    double best_s = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < repeats; ++r) {
      const Timer timer;
      fn();
      const double s = timer.seconds();
      total_s += s;
      best_s = std::min(best_s, s);
    }
    const auto evals = static_cast<double>(batch);
    mean_per_sec = evals * static_cast<double>(repeats) / total_s;
    best_per_sec = evals / best_s;
  };

  std::vector<double> single_temps(batch);
  time_repeats(
      [&] {
        for (std::size_t i = 0; i < batch; ++i) {
          single_temps[i] =
              thermal::oracle::evaluate(model, sys, candidates[i]).max_temp_c;
        }
      },
      row.single_evals_per_sec, row.single_best_evals_per_sec);
  {
    parallel::ThreadPool pool(threads);
    parallel::ThreadPool* pool_ptr = pool.size() > 0 ? &pool : nullptr;
    std::vector<thermal::FastThermalResult> results;
    time_repeats(
        [&] {
          results = model.evaluate_batch(
              sys, std::span<const Floorplan>(candidates), pool_ptr);
        },
        row.batch_evals_per_sec, row.batch_best_evals_per_sec);
    for (std::size_t i = 0; i < batch; ++i) {
      row.max_abs_diff_c =
          std::max(row.max_abs_diff_c,
                   std::abs(results[i].max_temp_c - single_temps[i]));
    }
  }
  row.speedup = row.batch_evals_per_sec / row.single_evals_per_sec;
  row.best_speedup =
      row.batch_best_evals_per_sec / row.single_best_evals_per_sec;
  return row;
}

// ------------------------------------------------- population rounds ----

constexpr std::size_t kPopulationK = 16;

struct PopulationRow {
  std::size_t chiplets = 0;
  long rounds = 0;
  double batch_us = 0.0;  // per candidate, best repeat: evaluate_batch()
  double delta_us = 0.0;  // per candidate, best repeat: exact deltas
  double speedup = 0.0;   // batch_us / delta_us
  long mismatches = 0;    // candidates whose two scores differ in any bit
};

/// SA-population rounds on one system: every round scored by one
/// IncrementalFastModelEvaluator::max_temperature_batch() call and by one
/// single-threaded FastThermalModel::evaluate_batch() call, each timed over
/// all rounds per repeat; per-candidate times are the best repeat's.
PopulationRow run_population_comparison(const thermal::FastThermalModel& model,
                                        std::size_t n, long rounds,
                                        std::size_t repeats) {
  const ChipletSystem sys = bench_system(n, 777 + n, "bench-pop");
  Rng rng(31 + n);
  Floorplan current = systems::random_legal_floorplan(sys, rng);
  std::vector<std::vector<Floorplan>> tape(static_cast<std::size_t>(rounds));
  for (auto& round : tape) {
    for (std::size_t c = 0; c < kPopulationK; ++c) {
      Floorplan next = current;
      const std::size_t i = rng.uniform_int(std::uint64_t{n});
      const Placement p = *current.placement(i);
      const double u = rng.uniform();
      if (u < 0.6) {  // displace
        const Rect r = current.rect_of(i);
        next.place(i,
                   {rng.uniform(0.0, kBenchInterposer - r.w),
                    rng.uniform(0.0, kBenchInterposer - r.h)},
                   p.rotated);
      } else if (u < 0.85) {  // swap positions, keeping orientations
        const std::size_t j =
            (i + 1 + rng.uniform_int(std::uint64_t{n - 1})) % n;
        const Placement q = *current.placement(j);
        next.place(i, q.position, p.rotated);
        next.place(j, p.position, q.rotated);
      } else {  // rotate in place
        next.place(i, p.position, !p.rotated);
      }
      round.push_back(std::move(next));
    }
    if (rng.uniform() < 0.5) {
      current = round[rng.uniform_int(std::uint64_t{kPopulationK})];
    }
  }

  PopulationRow row;
  row.chiplets = n;
  row.rounds = rounds;
  const auto candidates = static_cast<double>(rounds * kPopulationK);
  std::vector<double> want;
  std::vector<double> got;
  row.batch_us = std::numeric_limits<double>::infinity();
  row.delta_us = std::numeric_limits<double>::infinity();
  for (std::size_t r = 0; r < repeats; ++r) {
    want.clear();
    const Timer batch_timer;
    for (const auto& round : tape) {
      for (const auto& t : model.evaluate_batch(sys, round)) {
        want.push_back(t.max_temp_c);
      }
    }
    row.batch_us =
        std::min(row.batch_us, 1e6 * batch_timer.seconds() / candidates);
    got.clear();
    thermal::IncrementalFastModelEvaluator eval(model);
    const Timer delta_timer;
    for (const auto& round : tape) {
      const std::vector<double> temps = eval.max_temperature_batch(sys, round);
      got.insert(got.end(), temps.begin(), temps.end());
    }
    row.delta_us =
        std::min(row.delta_us, 1e6 * delta_timer.seconds() / candidates);
    for (std::size_t c = 0; c < want.size(); ++c) {
      row.mismatches += got[c] != want[c] ? 1 : 0;
    }
  }
  row.speedup = row.batch_us / row.delta_us;
  return row;
}

void write_json(const std::string& path, const std::vector<MoveRow>& rows,
                const std::vector<BatchRow>& batch_rows,
                const std::vector<PopulationRow>& population_rows,
                std::size_t moves,
                std::size_t batch_threads, bool smoke) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "[micro_thermal] cannot write %s\n", path.c_str());
    return;
  }
  const char* simd = util::simd_level_name(thermal::soa_dispatch_level());
  os << "{\n  \"bench\": \"micro_thermal_incremental\",\n"
     << "  \"moves_per_size\": " << moves << ",\n"
     << "  \"batch_threads\": " << batch_threads << ",\n"
     // Which kernel flavour the numbers were produced with (avx2/neon/
     // scalar) — the runtime dispatch choice, after any RLPLANNER_SIMD
     // override. Snapshot and incremental state install the same table, so
     // "simd" (batch trend) and "incr_simd" (move trend) are one value; CI
     // publishes both.
     << "  \"simd\": \"" << simd << "\",\n"
     << "  \"incr_simd\": \"" << simd << "\",\n"
     << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
     << "  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const MoveRow& r = rows[i];
    char buf[768];
    std::snprintf(buf, sizeof(buf),
                  "    {\"chiplets\": %zu, \"batch_evals_per_sec\": %.1f, "
                  "\"incremental_evals_per_sec\": %.1f, "
                  "\"scalar_incremental_evals_per_sec\": %.1f, "
                  "\"speedup\": %.2f, \"move_speedup\": %.2f, "
                  "\"move_ns\": %.1f, \"scalar_move_ns\": %.1f, "
                  "\"max_abs_diff_c\": %.3e, "
                  "\"max_scalar_diff_c\": %.3e, "
                  "\"anchor_diff_c\": %.3e}%s\n",
                  r.chiplets, r.batch_evals_per_sec, r.incr_evals_per_sec,
                  r.scalar_incr_evals_per_sec, r.speedup, r.move_speedup,
                  r.move_ns, r.scalar_move_ns, r.max_abs_diff_c,
                  r.max_scalar_diff_c, r.anchor_diff_c,
                  i + 1 < rows.size() ? "," : "");
    os << buf;
  }
  os << "  ],\n  \"batch_results\": [\n";
  for (std::size_t i = 0; i < batch_rows.size(); ++i) {
    const BatchRow& r = batch_rows[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "    {\"chiplets\": %zu, \"batch_size\": %zu, "
                  "\"single_evals_per_sec\": %.1f, "
                  "\"batch_evals_per_sec\": %.1f, \"speedup\": %.2f, "
                  "\"single_best_evals_per_sec\": %.1f, "
                  "\"batch_best_evals_per_sec\": %.1f, "
                  "\"best_speedup\": %.2f, "
                  "\"max_abs_diff_c\": %.3e}%s\n",
                  r.chiplets, r.batch, r.single_evals_per_sec,
                  r.batch_evals_per_sec, r.speedup,
                  r.single_best_evals_per_sec, r.batch_best_evals_per_sec,
                  r.best_speedup, r.max_abs_diff_c,
                  i + 1 < batch_rows.size() ? "," : "");
    os << buf;
  }
  os << "  ],\n  \"population_results\": [\n";
  for (std::size_t i = 0; i < population_rows.size(); ++i) {
    const PopulationRow& r = population_rows[i];
    char buf[384];
    std::snprintf(buf, sizeof(buf),
                  "    {\"chiplets\": %zu, \"rounds\": %ld, "
                  "\"candidates_per_round\": %zu, "
                  "\"batch_us_per_candidate\": %.2f, "
                  "\"delta_us_per_candidate\": %.2f, "
                  "\"population_speedup\": %.2f, "
                  "\"bit_mismatches\": %ld}%s\n",
                  r.chiplets, r.rounds, kPopulationK, r.batch_us, r.delta_us,
                  r.speedup, r.mismatches,
                  i + 1 < population_rows.size() ? "," : "");
    os << buf;
  }
  os << "  ]\n}\n";
  std::fprintf(stderr, "[micro_thermal] wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = rlplan::bench::flag_present(argc, argv, "smoke");
  const auto moves = rlplan::bench::flag_int<std::size_t>(
      argc, argv, "moves", smoke ? 32 : 2000);
  const std::string json_path = rlplan::bench::flag_str(
      argc, argv, "json", "BENCH_thermal.json");
  const auto batch =
      rlplan::bench::flag_int<std::size_t>(argc, argv, "batch", 64);
  const auto batch_repeats = rlplan::bench::flag_int<std::size_t>(
      argc, argv, "batch-repeats", smoke ? 3 : 30);
  const auto batch_threads = rlplan::bench::flag_int<std::size_t>(
      argc, argv, "batch-threads", parallel::ThreadPool::hardware_threads());
  // CI gate floors (0 disables each), read up front so a malformed value
  // stops the run before any measurement.
  const double min_move_speedup =
      rlplan::bench::flag_double(argc, argv, "min-move-speedup", 0.0);
  const double min_batch_speedup =
      rlplan::bench::flag_double(argc, argv, "min-batch-speedup", 0.0);
  const double min_population_speedup =
      rlplan::bench::flag_double(argc, argv, "min-population-speedup", 0.0);
  const double min_evals_per_sec =
      rlplan::bench::flag_double(argc, argv, "min-evals-per-sec", 0.0);

  const thermal::FastThermalModel model = synthetic_model();
  std::printf("single-die moves, incremental vs oracle re-evaluation "
              "(default config, %zu moves per size, incr simd=%s)\n",
              moves, util::simd_level_name(thermal::soa_dispatch_level()));
  std::printf("%9s %15s %15s %15s %9s %9s %9s %12s\n", "chiplets",
              "oracle evals/s", "scalar incr/s", "simd incr/s", "vs oracle",
              "move spd", "move ns", "max |diff| C");
  std::vector<MoveRow> rows;
  for (const std::size_t n : {4u, 8u, 16u, 32u}) {
    rows.push_back(run_move_comparison(model, n, moves));
    const MoveRow& r = rows.back();
    std::printf("%9zu %15.1f %15.1f %15.1f %8.2fx %8.2fx %9.0f %12.3e\n",
                r.chiplets, r.batch_evals_per_sec, r.scalar_incr_evals_per_sec,
                r.incr_evals_per_sec, r.speedup, r.move_speedup, r.move_ns,
                r.max_abs_diff_c);
  }

  std::printf("\nwhole-floorplan candidates, evaluate_batch (SoA kernel, "
              "simd=%s, %zu threads) vs repeated oracle evaluations (batch "
              "%zu, %zu repeats)\n",
              util::simd_level_name(thermal::soa_dispatch_level()),
              batch_threads, batch, batch_repeats);
  std::printf("%9s %7s %18s %18s %9s %18s %18s %9s %14s\n", "chiplets",
              "batch", "single evals/s", "batch evals/s", "speedup",
              "best single/s", "best batch/s", "best spd", "max |diff| C");
  std::vector<BatchRow> batch_rows;
  for (const std::size_t n : {8u, 16u, 32u}) {
    batch_rows.push_back(
        run_batch_comparison(model, n, batch, batch_repeats, batch_threads));
    const BatchRow& r = batch_rows.back();
    std::printf("%9zu %7zu %18.1f %18.1f %8.2fx %18.1f %18.1f %8.2fx "
                "%14.3e\n",
                r.chiplets, r.batch, r.single_evals_per_sec,
                r.batch_evals_per_sec, r.speedup, r.single_best_evals_per_sec,
                r.batch_best_evals_per_sec, r.best_speedup, r.max_abs_diff_c);
  }

  const long population_rounds = smoke ? 12 : 200;
  std::printf("\npopulation rounds (K = %zu), exact deltas on the batch "
              "state vs evaluate_batch, one thread (simd=%s, %ld rounds, best "
              "of %zu repeats)\n",
              kPopulationK,
              util::simd_level_name(thermal::soa_dispatch_level()),
              population_rounds, batch_repeats);
  std::printf("%9s %18s %18s %9s %14s\n", "chiplets", "batch us/cand",
              "delta us/cand", "speedup", "bit mismatches");
  std::vector<PopulationRow> population_rows;
  for (const std::size_t n : {8u, 16u, 32u}) {
    population_rows.push_back(
        run_population_comparison(model, n, population_rounds, batch_repeats));
    const PopulationRow& r = population_rows.back();
    std::printf("%9zu %18.2f %18.2f %8.2fx %14ld\n", r.chiplets, r.batch_us,
                r.delta_us, r.speedup, r.mismatches);
  }

  write_json(json_path, rows, batch_rows, population_rows, moves,
             batch_threads, smoke);
  for (const MoveRow& r : rows) {
    // The numerics contract (thermal/soa_snapshot.h): both incremental
    // levels within 1e-9 C of the oracle, and a fresh state exactly equal
    // to the same-level snapshot.
    if (r.max_abs_diff_c > 1e-9 || r.max_scalar_diff_c > 1e-9) {
      std::fprintf(stderr,
                   "[micro_thermal] FAIL: incremental diverged from the "
                   "oracle (%zu chiplets, dispatched %.3e C, forced scalar "
                   "%.3e C)\n",
                   r.chiplets, r.max_abs_diff_c, r.max_scalar_diff_c);
      return 1;
    }
    if (r.anchor_diff_c != 0.0) {
      std::fprintf(stderr,
                   "[micro_thermal] FAIL: fresh incremental state differs "
                   "from the same-level snapshot (%zu chiplets, %.3e C)\n",
                   r.chiplets, r.anchor_diff_c);
      return 1;
    }
  }
  // Move-speedup floor (the CI bench gate for the incremental path):
  // dispatched incremental move+query vs a full oracle re-evaluation per
  // move, applied at the sizes where the kernel dominates the move cost
  // (>= 16 dies).
  if (min_move_speedup > 0.0) {
    for (const MoveRow& r : rows) {
      if (r.chiplets >= 16 && r.speedup < min_move_speedup) {
        std::fprintf(stderr,
                     "[micro_thermal] FAIL: incremental move speedup %.2fx "
                     "over oracle re-evaluation at %zu chiplets below floor "
                     "%.2fx\n",
                     r.speedup, r.chiplets, min_move_speedup);
        return 1;
      }
    }
  }
  for (const BatchRow& r : batch_rows) {
    // The SoA kernel's documented equivalence bar (soa_snapshot.h).
    if (r.max_abs_diff_c > 1e-9) {
      std::fprintf(stderr,
                   "[micro_thermal] FAIL: SoA batch diverged from the oracle "
                   "(%zu chiplets, %.3e C)\n",
                   r.chiplets, r.max_abs_diff_c);
      return 1;
    }
  }
  // Batch-throughput floor (the CI bench gate): applied at the largest size,
  // where the kernel matters most.
  if (min_batch_speedup > 0.0 && !batch_rows.empty() &&
      batch_rows.back().speedup < min_batch_speedup) {
    std::fprintf(stderr,
                 "[micro_thermal] FAIL: batch speedup %.2fx at %zu chiplets "
                 "below floor %.2fx\n",
                 batch_rows.back().speedup, batch_rows.back().chiplets,
                 min_batch_speedup);
    return 1;
  }
  // Population rounds: exact deltas must reproduce evaluate_batch() bit for
  // bit, and beat it by the given factor at >= 16 dies, where a candidate's
  // few moved dies are a small share of the O(n^2) rows.
  for (const PopulationRow& r : population_rows) {
    if (r.mismatches != 0) {
      std::fprintf(stderr,
                   "[micro_thermal] FAIL: %ld population candidates differ "
                   "from evaluate_batch (%zu chiplets)\n",
                   r.mismatches, r.chiplets);
      return 1;
    }
    if (min_population_speedup > 0.0 && r.chiplets >= 16 &&
        r.speedup < min_population_speedup) {
      std::fprintf(stderr,
                   "[micro_thermal] FAIL: population speedup %.2fx at %zu "
                   "chiplets below floor %.2fx\n",
                   r.speedup, r.chiplets, min_population_speedup);
      return 1;
    }
  }
  // Throughput floor on the reward hot path (the CI bench-smoke gate). Set
  // far below healthy numbers so it only trips on an order-of-magnitude
  // regression, not on runner jitter.
  for (const MoveRow& r : rows) {
    if (min_evals_per_sec > 0.0 && r.incr_evals_per_sec < min_evals_per_sec) {
      std::fprintf(stderr,
                   "[micro_thermal] FAIL: %zu-chiplet incremental throughput "
                   "%.1f evals/s below floor %.1f\n",
                   r.chiplets, r.incr_evals_per_sec, min_evals_per_sec);
      return 1;
    }
  }

  if (smoke) return 0;  // tiny-count CI mode: skip the google-benchmark suite
  // Note: our own --moves/--json flags are left in argv; google-benchmark
  // ignores flags it does not recognize unless asked to report them.
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
