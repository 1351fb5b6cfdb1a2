// Differential fuzzing for the fast model's one kernel: over >= 1000 random
// (system, floorplan) cases spanning the synthetic generator families and
// every FastModelConfig variant, every evaluation path must agree with the
// test-only oracle (fast_model_oracle.h, a plain scalar evaluation).
//
// Numerical contract under test (documented in soa_snapshot.h and
// incremental.h):
//  * SoaSnapshot at the dispatched level and at forced scalar, evaluate(),
//    evaluate_batch() (serial and pooled) and incremental states with
//    patched partial sums — all within kTempTolC (1e-9 C, the repo-wide
//    equivalence bar) of the oracle. The kernel interpolates the uniform
//    mutual table in fraction form (base + frac * diff) instead of the
//    oracle's division form, a <= ~2 ulp per-term difference; observed
//    differences are ~1e-13 C.
//  * a fresh IncrementalThermalState (its first query is a full
//    re-reduction) equals a SoaSnapshot at the same level BIT-EXACTLY.
//  * evaluate(), evaluate_batch() serial and evaluate_batch() fanned over a
//    ThreadPool — BIT-EXACT (all are SoaSnapshot at the dispatched level;
//    chunking never changes per-candidate arithmetic).
//  * without images, the scalar pair row equals the raw row the scalar
//    table ran before it had one entry (oracle::raw_pair_row) BIT-EXACTLY.
//
// Nightly long-fuzz hooks: RLPLANNER_FUZZ_SCALE multiplies the case count
// (CI's schedule job runs 20x under ASan); on a mismatch the failing case's
// reproduction seed is appended to $RLPLANNER_FUZZ_FAILURE_FILE so CI can
// upload it as an artifact. CI also runs the fuzz under RLPLANNER_SIMD=scalar,
// where evaluate() and evaluate_batch() take the scalar table too.
#include "thermal/soa_snapshot.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <thread>

#include "core/floorplan.h"
#include "fast_model_oracle.h"
#include "fuzz_util.h"
#include "parallel/thread_pool.h"
#include "systems/synthetic.h"
#include "thermal/evaluator.h"
#include "thermal/incremental.h"
#include "util/rng.h"

namespace rlplan::thermal {
namespace {

using rlplan::testing::fuzz_scale;

constexpr double kInterposer = 60.0;
constexpr double kTempTolC = 1e-9;

void report_failure_seed(const std::string& context) {
  rlplan::testing::report_failure_seed("soa_kernel_test", context);
}

// Characterization-free analytic model (same construction family as
// incremental_thermal_test) so each oracle evaluation costs microseconds.
FastThermalModel make_model(const FastModelConfig& config,
                            bool with_correction, bool with_droop) {
  std::vector<double> dims;
  for (double d = 2.0; d <= 22.0; d += 4.0) dims.push_back(d);
  std::vector<std::vector<double>> self_vals(dims.size(),
                                             std::vector<double>(dims.size()));
  std::vector<std::vector<double>> droop_vals(
      dims.size(), std::vector<double>(dims.size()));
  for (std::size_t i = 0; i < dims.size(); ++i) {
    for (std::size_t j = 0; j < dims.size(); ++j) {
      self_vals[i][j] = 3.0 / (1.0 + 0.04 * dims[i] * dims[j]);
      droop_vals[i][j] = 0.55 + 0.002 * (dims[i] + dims[j]);
    }
  }
  const double floor = 0.02;
  std::vector<double> distances, mutual_vals;
  for (double d = 0.0; d <= 90.0; d += 1.5) {
    distances.push_back(d);
    mutual_vals.push_back(floor + 0.8 * std::exp(-d / 8.0));
  }
  FastThermalModel model(SelfResistanceTable(dims, dims, self_vals),
                         MutualResistanceTable(distances, mutual_vals), 45.0,
                         config);
  model.set_image_params(kInterposer, kInterposer, floor);
  if (with_droop) {
    model.set_self_droop(BilinearTable2D(dims, dims, droop_vals));
  }
  if (with_correction) {
    std::vector<double> axis{0.0, kInterposer / 2.0, kInterposer};
    std::vector<std::vector<double>> corr{
        {1.3, 1.2, 1.3}, {1.2, 1.0, 1.2}, {1.3, 1.2, 1.3}};
    model.set_position_correction(BilinearTable2D(axis, axis, corr));
  }
  return model;
}

struct Variant {
  const char* name;
  FastModelConfig config;
  bool correction;
  bool droop;
};

std::vector<Variant> variants() {
  std::vector<Variant> v;
  v.push_back({"images+droop", FastModelConfig{}, false, true});
  FastModelConfig plain;
  plain.use_images = false;
  v.push_back({"plain", plain, false, false});
  FastModelConfig corrected;  // the position correction scales self terms
  corrected.use_images = false;
  v.push_back({"correction", corrected, true, true});
  FastModelConfig single;
  single.use_images = true;
  single.source_subsamples = 1;
  single.receiver_probes = 1;
  v.push_back({"single-probe", single, false, false});
  return v;
}

/// Random fuzz system: alternates between the free-form generator and the
/// structured family generator so sliver aspects, skewed power maps, and
/// every netlist topology feed the kernel.
ChipletSystem random_system(Rng& rng) {
  if (rng.uniform() < 0.5) {
    systems::SyntheticConfig sc;
    sc.min_chiplets = 2;
    sc.max_chiplets = 9;
    sc.interposer_w_mm = kInterposer;
    sc.interposer_h_mm = kInterposer;
    return systems::SyntheticSystemGenerator(sc).generate(rng.next(), "fuzz");
  }
  systems::FamilyConfig fc;
  fc.chiplets = 2 + rng.uniform_int(std::uint64_t{9});
  fc.interposer_w_mm = kInterposer;
  fc.interposer_h_mm = kInterposer;
  fc.max_aspect = rng.uniform() < 0.3 ? 3.0 : 1.0;
  fc.power_skew = rng.uniform() < 0.3 ? 2.0 : 0.0;
  const systems::NetTopology topologies[] = {
      systems::NetTopology::kRandom, systems::NetTopology::kStar,
      systems::NetTopology::kChain,  systems::NetTopology::kRing,
      systems::NetTopology::kMesh,   systems::NetTopology::kBipartite};
  fc.topology = topologies[rng.uniform_int(std::uint64_t{6})];
  return systems::generate_family(fc, rng.next(), "fuzz-family");
}

/// Random placement state: any in-bounds position is a valid thermal input
/// (overlaps included); ~20% of dies stay unplaced to cover partial
/// episodes.
Floorplan random_floorplan(const ChipletSystem& sys, Rng& rng) {
  Floorplan fp(sys);
  for (std::size_t i = 0; i < sys.num_chiplets(); ++i) {
    if (rng.uniform() < 0.2) continue;
    const bool rotated = rng.uniform() < 0.3;
    const Chiplet& c = sys.chiplet(i);
    const double w = rotated ? c.height : c.width;
    const double h = rotated ? c.width : c.height;
    fp.place(i,
             {rng.uniform(0.0, kInterposer - w),
              rng.uniform(0.0, kInterposer - h)},
             rotated);
  }
  return fp;
}

/// The two kernel levels every case runs at: the process dispatch choice
/// and forced scalar (the same level twice on hosts without SIMD kernels).
std::vector<util::SimdLevel> levels() {
  return {soa_dispatch_level(), util::SimdLevel::kScalar};
}

/// Per-system fixtures, one per level: a snapshot and an incremental state
/// reused across the system's floorplans (its sums get patched).
struct LevelPaths {
  SoaSnapshot snapshot;
  IncrementalThermalState patched;
  LevelPaths(const FastThermalModel& model, const ChipletSystem& sys,
             util::SimdLevel level)
      : snapshot(model, sys), patched(model, sys) {
    snapshot.set_simd_level(level);
    patched.set_simd_level(level);
  }
};

/// Accumulates one path's agreement with the oracle into `ok`.
void expect_near_oracle(const std::vector<double>& temps, double max_temp_c,
                        const FastThermalResult& want, const std::string& what,
                        bool& ok) {
  ok = ok && temps.size() == want.chiplet_temp_c.size();
  ASSERT_EQ(temps.size(), want.chiplet_temp_c.size()) << what;
  for (std::size_t i = 0; i < temps.size(); ++i) {
    EXPECT_NEAR(temps[i], want.chiplet_temp_c[i], kTempTolC)
        << what << ": chiplet " << i;
    ok = ok && std::abs(temps[i] - want.chiplet_temp_c[i]) <= kTempTolC;
  }
  EXPECT_NEAR(max_temp_c, want.max_temp_c, kTempTolC) << what;
  ok = ok && std::abs(max_temp_c - want.max_temp_c) <= kTempTolC;
}

/// One differential case: evaluate(), and per level the snapshot, the
/// patched incremental state and a fresh incremental state, against the
/// oracle (kTempTolC); the fresh state against the same-level snapshot
/// (bit-exact). Returns false on any mismatch.
bool check_case(const FastThermalModel& model, const ChipletSystem& sys,
                const Floorplan& fp, std::vector<LevelPaths>& paths,
                const std::string& context) {
  const FastThermalResult want = oracle::evaluate(model, sys, fp);
  bool ok = true;
  const FastThermalResult eval = model.evaluate(sys, fp);
  expect_near_oracle(eval.chiplet_temp_c, eval.max_temp_c, want,
                     context + " evaluate()", ok);
  for (LevelPaths& path : paths) {
    const util::SimdLevel level = path.snapshot.simd_level();
    const std::string at =
        context + " level=" + util::simd_level_name(level);
    path.snapshot.refresh(fp);
    FastThermalResult soa;
    path.snapshot.evaluate(soa);
    expect_near_oracle(soa.chiplet_temp_c, soa.max_temp_c, want,
                       at + " SoaSnapshot", ok);

    std::vector<double> temps;
    path.patched.sync(fp);
    path.patched.temperatures(temps);
    expect_near_oracle(temps, path.patched.max_temperature_c(), want,
                       at + " patched incremental", ok);

    IncrementalThermalState fresh(model, sys);
    fresh.set_simd_level(level);
    fresh.sync(fp);
    fresh.temperatures(temps);
    for (std::size_t i = 0; i < temps.size(); ++i) {
      EXPECT_EQ(temps[i], soa.chiplet_temp_c[i])
          << at << ": fresh incremental vs snapshot, chiplet " << i;
      ok = ok && temps[i] == soa.chiplet_temp_c[i];
    }
    EXPECT_EQ(fresh.max_temperature_c(), soa.max_temp_c) << at;
    ok = ok && fresh.max_temperature_c() == soa.max_temp_c;
  }
  if (!ok) report_failure_seed(context);
  return ok;
}

/// evaluate_batch() of one system's candidates, serial and pooled, must
/// equal per-candidate evaluate() bit for bit.
bool check_batch(const FastThermalModel& model, const ChipletSystem& sys,
                 const std::vector<Floorplan>& fps, parallel::ThreadPool& pool,
                 const std::string& context) {
  const auto serial = model.evaluate_batch(sys, fps);
  const auto pooled = model.evaluate_batch(sys, fps, &pool);
  bool ok = serial.size() == fps.size() && pooled.size() == fps.size();
  EXPECT_TRUE(ok) << context;
  for (std::size_t c = 0; ok && c < fps.size(); ++c) {
    const FastThermalResult single = model.evaluate(sys, fps[c]);
    EXPECT_EQ(serial[c].chiplet_temp_c, single.chiplet_temp_c)
        << context << " serial batch, candidate " << c;
    EXPECT_EQ(pooled[c].chiplet_temp_c, single.chiplet_temp_c)
        << context << " pooled batch, candidate " << c;
    EXPECT_EQ(pooled[c].max_temp_c, single.max_temp_c) << context;
    ok = serial[c].chiplet_temp_c == single.chiplet_temp_c &&
         pooled[c].chiplet_temp_c == single.chiplet_temp_c &&
         serial[c].max_temp_c == single.max_temp_c &&
         pooled[c].max_temp_c == single.max_temp_c;
  }
  if (!ok) report_failure_seed(context);
  return ok;
}

// The acceptance bar: >= 1000 random (system, floorplan) cases across all
// config variants, each checked on every path at both levels.
TEST(SoaKernel, FuzzedSystemsMatchOracle) {
  SCOPED_TRACE(std::string("dispatched level: ") +
               util::simd_level_name(soa_dispatch_level()));
  const auto vs = variants();
  const int scale = fuzz_scale();
  const int systems_per_variant = 90 * scale;
  parallel::ThreadPool pool(2);
  Rng rng(0x50a50a5ULL);
  int cases = 0;
  for (const Variant& v : vs) {
    const FastThermalModel model = make_model(v.config, v.correction, v.droop);
    for (int s = 0; s < systems_per_variant; ++s) {
      const std::uint64_t sys_seed = rng.next();
      Rng sys_rng(sys_seed);
      const ChipletSystem sys = random_system(sys_rng);
      std::vector<LevelPaths> paths;
      for (const util::SimdLevel level : levels()) {
        paths.emplace_back(model, sys, level);
      }
      std::vector<Floorplan> fps;
      const std::string system_context = std::string("variant=") + v.name +
                                         " system_seed=" +
                                         std::to_string(sys_seed);
      for (int f = 0; f < 3; ++f, ++cases) {
        fps.push_back(random_floorplan(sys, sys_rng));
        const std::string context =
            system_context + " floorplan_index=" + std::to_string(f);
        if (!check_case(model, sys, fps.back(), paths, context)) {
          return;  // the seed is reported; stop before flooding the log
        }
      }
      if (!check_batch(model, sys, fps, pool, system_context + " batch")) {
        return;
      }
    }
  }
  EXPECT_GE(cases, 1000 * scale);
}

// 16x16 sub-sources x 9 images = 2,304 points per source block: more than
// the scalar kernel's 2,048-point pass-1 tile, so its blocks run in chunks.
// Every level must still match the oracle, and a fresh incremental state
// (pair rows: one block per call) the same-level snapshot exactly.
TEST(SoaKernel, SourceBlocksLargerThanScalarTileMatchOracle) {
  FastModelConfig dense;
  dense.source_subsamples = 16;
  dense.receiver_probes = 2;
  const FastThermalModel model = make_model(dense, false, true);
  Rng rng(0xb16b10cULL);
  const ChipletSystem sys("dense", kInterposer, kInterposer,
                          {{"a", 8.0, 6.0, 20.0},
                           {"b", 5.0, 9.0, 12.0},
                           {"c", 7.0, 7.0, 16.0}},
                          {});
  std::vector<LevelPaths> paths;
  for (const util::SimdLevel level : levels()) {
    paths.emplace_back(model, sys, level);
  }
  for (int f = 0; f < 2; ++f) {
    EXPECT_TRUE(check_case(model, sys, random_floorplan(sys, rng), paths,
                           "dense floorplan_index=" + std::to_string(f)));
  }
}

// Models without images run the one pair-row entry over a LUT with a zero
// floor. On a table with no negative knot that gives the bits of the raw row
// the scalar table ran for them before (oracle::raw_pair_row): the clamp
// never fires, v - 0.0 = v and 0.0 + row = row. Random non-negative tables,
// a fifth of their knots exactly zero, rising and falling segments, a
// uniform floor the rows must ignore, probes and sources beyond both ends of
// the table.
TEST(SoaKernel, NoImagesRowEqualsOracleRawRow) {
  const std::vector<double> dims{2.0, 10.0, 22.0};
  const std::vector<std::vector<double>> self_vals(3,
                                                   std::vector<double>(3, 1.0));
  const int cases = 400 * fuzz_scale();
  Rng rng(0x5a3a0ULL);
  for (int c = 0; c < cases; ++c) {
    const std::uint64_t seed = rng.next();
    Rng case_rng(seed);
    const std::size_t knots = 2 + case_rng.uniform_int(std::uint64_t{60});
    const double step = case_rng.uniform(0.25, 3.0);
    std::vector<double> distances, values;
    for (std::size_t k = 0; k < knots; ++k) {
      distances.push_back(static_cast<double>(k) * step);
      values.push_back(case_rng.uniform() < 0.2 ? 0.0 : case_rng.uniform());
    }
    FastModelConfig config;
    config.use_images = false;
    config.source_subsamples = 1 + static_cast<int>(case_rng.uniform_int(
                                       std::uint64_t{16}));
    config.receiver_probes =
        1 + static_cast<int>(case_rng.uniform_int(std::uint64_t{4}));
    FastThermalModel model(SelfResistanceTable(dims, dims, self_vals),
                           MutualResistanceTable(distances, values), 45.0,
                           config);
    // Characterized models carry a uniform floor with or without images;
    // without them the rows must ignore it.
    const double reach = distances.back() + 5.0;
    model.set_image_params(reach, reach, case_rng.uniform(0.0, 0.5));
    SoaModelConsts k;
    k.bind(model);
    std::vector<double> px(k.pc), py(k.pc), sx(k.ss), sy(k.ss);
    for (std::vector<double>* v : {&px, &py, &sx, &sy}) {
      for (double& x : *v) x = case_rng.uniform(-5.0, reach);
    }
    const double power_per_sub = case_rng.uniform(0.01, 10.0);
    std::vector<double> got(k.pc), want(k.pc);
    k.pair_row(soa_kernel_ops_scalar(), px.data(), py.data(), sx.data(),
               sy.data(), power_per_sub, got.data());
    oracle::raw_pair_row(model, px.data(), py.data(), k.pc, sx.data(),
                         sy.data(), k.ss, power_per_sub, want.data());
    const std::string context = "table_seed=" + std::to_string(seed);
    EXPECT_EQ(got, want) << context;
    if (got != want) {
      report_failure_seed(context);
      return;
    }
  }
}

// evaluate() keeps no mutable state: four threads evaluating through one
// shared model must reproduce serial calls exactly.
TEST(SoaKernel, ConcurrentEvaluateMatchesSerial) {
  const FastThermalModel model = make_model(FastModelConfig{}, false, true);
  Rng rng(0xc0c0aULL);
  std::vector<ChipletSystem> systems;
  for (int s = 0; s < 8; ++s) systems.push_back(random_system(rng));
  std::vector<Floorplan> fps;
  std::vector<std::size_t> owner;
  for (std::size_t s = 0; s < systems.size(); ++s) {
    for (int f = 0; f < 4; ++f) {
      fps.push_back(random_floorplan(systems[s], rng));
      owner.push_back(s);
    }
  }
  std::vector<FastThermalResult> serial;
  for (std::size_t c = 0; c < fps.size(); ++c) {
    serial.push_back(model.evaluate(systems[owner[c]], fps[c]));
  }
  constexpr int kThreads = 4;
  std::vector<std::vector<FastThermalResult>> threaded(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      // Every thread walks all candidates, each from a different offset, so
      // the threads evaluate different floorplans at the same time.
      for (std::size_t k = 0; k < fps.size(); ++k) {
        const std::size_t c = (k + static_cast<std::size_t>(t) * 5) % fps.size();
        threaded[t].push_back(model.evaluate(systems[owner[c]], fps[c]));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t k = 0; k < fps.size(); ++k) {
      const std::size_t c = (k + static_cast<std::size_t>(t) * 5) % fps.size();
      EXPECT_EQ(threaded[t][k].chiplet_temp_c, serial[c].chiplet_temp_c)
          << "thread " << t << " candidate " << c;
      EXPECT_EQ(threaded[t][k].max_temp_c, serial[c].max_temp_c);
    }
  }
}

// Requesting an unavailable level must collapse to kScalar — never silently
// substitute a different SIMD flavour (a NEON request on x86 and vice versa).
TEST(SoaKernel, UnavailableSimdLevelFallsBackToScalar) {
  const FastThermalModel model = make_model(FastModelConfig{}, false, false);
  const ChipletSystem sys("s", kInterposer, kInterposer,
                          {{"a", 4.0, 4.0, 5.0}, {"b", 4.0, 4.0, 5.0}}, {});
  SoaSnapshot snap(model, sys);
#if defined(__aarch64__)
  const auto foreign = util::SimdLevel::kAvx2;
#else
  const auto foreign = util::SimdLevel::kNeon;
#endif
  EXPECT_EQ(snap.set_simd_level(foreign), util::SimdLevel::kScalar);
  EXPECT_EQ(snap.simd_level(), util::SimdLevel::kScalar);
  // And the snapshot still evaluates correctly on the fallback.
  Floorplan fp(sys);
  fp.place(0, {5.0, 5.0});
  fp.place(1, {20.0, 8.0});
  snap.refresh(fp);
  FastThermalResult r;
  snap.evaluate(r);
  EXPECT_NEAR(r.max_temp_c, oracle::evaluate(model, sys, fp).max_temp_c,
              kTempTolC);
}

// evaluate_batch must reproduce per-candidate evaluate() exactly, for any
// thread count (chunking never changes per-candidate arithmetic), including
// lane splits that leave lanes uneven.
TEST(SoaKernel, BatchMatchesSerialForAnyThreadCount) {
  const FastThermalModel model = make_model(FastModelConfig{}, false, true);
  Rng rng(0xbead5ULL);
  const ChipletSystem sys = [&] {
    systems::SyntheticConfig sc;
    sc.min_chiplets = 12;
    sc.max_chiplets = 12;
    sc.interposer_w_mm = kInterposer;
    sc.interposer_h_mm = kInterposer;
    return systems::SyntheticSystemGenerator(sc).generate(17, "batch");
  }();
  std::vector<Floorplan> fps;
  for (int i = 0; i < 33; ++i) fps.push_back(random_floorplan(sys, rng));

  const auto serial = model.evaluate_batch(sys, fps);
  ASSERT_EQ(serial.size(), fps.size());
  for (const std::size_t threads : {2u, 5u}) {
    parallel::ThreadPool pool(threads);
    const auto pooled = model.evaluate_batch(sys, fps, &pool);
    ASSERT_EQ(pooled.size(), fps.size());
    for (std::size_t i = 0; i < fps.size(); ++i) {
      EXPECT_EQ(pooled[i].max_temp_c, serial[i].max_temp_c)
          << "threads=" << threads << " candidate " << i;
      for (std::size_t j = 0; j < serial[i].chiplet_temp_c.size(); ++j) {
        EXPECT_EQ(pooled[i].chiplet_temp_c[j], serial[i].chiplet_temp_c[j]);
      }
    }
  }
  for (std::size_t i = 0; i < fps.size(); ++i) {
    EXPECT_EQ(serial[i].chiplet_temp_c,
              model.evaluate(sys, fps[i]).chiplet_temp_c);
    EXPECT_NEAR(serial[i].max_temp_c,
                oracle::evaluate(model, sys, fps[i]).max_temp_c, kTempTolC);
  }
}

// Evaluator-level batch protocol: the default serial fallback (the oracle
// adapter) and the fast model's evaluate_batch() override must agree with
// per-call max_temperature, and with each other within the envelope.
TEST(SoaKernel, EvaluatorBatchMatchesPerCallQueries) {
  const FastThermalModel model = make_model(FastModelConfig{}, false, true);
  Rng rng(0xfeedbeefULL);
  systems::SyntheticConfig sc;
  sc.min_chiplets = 6;
  sc.max_chiplets = 6;
  sc.interposer_w_mm = kInterposer;
  sc.interposer_h_mm = kInterposer;
  const ChipletSystem sys =
      systems::SyntheticSystemGenerator(sc).generate(23, "eval-batch");
  std::vector<Floorplan> fps;
  for (int i = 0; i < 7; ++i) fps.push_back(random_floorplan(sys, rng));

  oracle::OracleEvaluator reference(model);
  IncrementalFastModelEvaluator incremental(model);
  for (auto* eval :
       std::vector<ThermalEvaluator*>{&reference, &incremental}) {
    const long before = eval->num_evaluations();
    const auto batch = eval->max_temperature_batch(sys, fps);
    ASSERT_EQ(batch.size(), fps.size());
    EXPECT_EQ(eval->num_evaluations(),
              before + static_cast<long>(fps.size()));
    for (std::size_t i = 0; i < fps.size(); ++i) {
      EXPECT_EQ(batch[i], eval->max_temperature(sys, fps[i]))
          << eval->name() << " candidate " << i;
      EXPECT_NEAR(batch[i], oracle::evaluate(model, sys, fps[i]).max_temp_c,
                  kTempTolC)
          << eval->name() << " candidate " << i;
    }
  }
}

// Zero-power and unplaced dies exercise the kernel's source-skip paths; a
// die with no power still reads its own temperature from neighbours.
TEST(SoaKernel, ZeroPowerAndUnplacedDies) {
  const FastThermalModel model = make_model(FastModelConfig{}, false, true);
  const ChipletSystem sys(
      "skip-paths", kInterposer, kInterposer,
      {{"hot", 8.0, 8.0, 30.0}, {"dark", 6.0, 6.0, 0.0},
       {"warm", 7.0, 5.0, 12.0}, {"ghost", 5.0, 5.0, 9.0}},
      {});
  Floorplan fp(sys);
  fp.place(0, {5.0, 5.0});
  fp.place(1, {20.0, 8.0});
  fp.place(2, {35.0, 30.0});
  // chiplet 3 stays unplaced.

  const auto want = oracle::evaluate(model, sys, fp);
  SoaSnapshot snapshot(model, sys);
  snapshot.refresh(fp);
  FastThermalResult soa;
  snapshot.evaluate(soa);
  EXPECT_EQ(snapshot.num_sources(), 2u);  // zero-power die is not a source
  for (std::size_t i = 0; i < sys.num_chiplets(); ++i) {
    EXPECT_NEAR(soa.chiplet_temp_c[i], want.chiplet_temp_c[i], kTempTolC);
  }
  EXPECT_EQ(soa.chiplet_temp_c[3], model.ambient_c());  // unplaced: ambient
  EXPECT_GT(soa.chiplet_temp_c[1], model.ambient_c());  // heated by others

  // Empty placement: everything ambient.
  Floorplan empty(sys);
  snapshot.refresh(empty);
  snapshot.evaluate(soa);
  EXPECT_EQ(soa.max_temp_c, model.ambient_c());
}

TEST(SoaKernel, RejectsEmptyModelAndMismatchedFloorplan) {
  EXPECT_THROW(
      {
        const ChipletSystem sys("s", 10.0, 10.0, {{"a", 2.0, 2.0, 1.0}}, {});
        SoaSnapshot snap(FastThermalModel{}, sys);
      },
      std::invalid_argument);

  const FastThermalModel model = make_model(FastModelConfig{}, false, false);
  const ChipletSystem sys("s", kInterposer, kInterposer,
                          {{"a", 4.0, 4.0, 5.0}, {"b", 4.0, 4.0, 5.0}}, {});
  const ChipletSystem other("o", kInterposer, kInterposer,
                            {{"a", 4.0, 4.0, 5.0}}, {});
  SoaSnapshot snap(model, sys);
  EXPECT_THROW(snap.refresh(Floorplan(other)), std::invalid_argument);
  const FastThermalModel no_tables;
  EXPECT_THROW(no_tables.evaluate_batch(sys, {}), std::logic_error);
}

// Regression: a 2-knot mutual table — the smallest the construction
// contract allows — must bind and evaluate through the normal uniform path
// (a single interpolation segment; the coordinate cap is derived from the
// knot count).
TEST(SoaKernel, MinimumSizeMutualTableEvaluates) {
  const std::vector<double> dims{2.0, 10.0, 22.0};
  std::vector<std::vector<double>> self_vals(dims.size(),
                                             std::vector<double>(dims.size()));
  for (std::size_t i = 0; i < dims.size(); ++i) {
    for (std::size_t j = 0; j < dims.size(); ++j) {
      self_vals[i][j] = 2.0 / (1.0 + 0.05 * dims[i] * dims[j]);
    }
  }
  for (const bool images : {true, false}) {
    FastModelConfig config;
    config.use_images = images;
    FastThermalModel model(SelfResistanceTable(dims, dims, self_vals),
                           MutualResistanceTable({0.0, 90.0}, {0.7, 0.04}),
                           45.0, config);
    model.set_image_params(kInterposer, kInterposer, 0.04);
    const ChipletSystem sys("tiny-table", kInterposer, kInterposer,
                            {{"a", 8.0, 8.0, 20.0},
                             {"b", 6.0, 4.0, 10.0},
                             {"c", 5.0, 5.0, 0.0}},
                            {});
    Floorplan fp(sys);
    fp.place(0, {4.0, 4.0});
    fp.place(1, {30.0, 12.0});
    fp.place(2, {18.0, 40.0});

    SoaSnapshot snapshot(model, sys);
    snapshot.refresh(fp);
    FastThermalResult soa;
    snapshot.evaluate(soa);
    const auto want = oracle::evaluate(model, sys, fp);
    for (std::size_t i = 0; i < sys.num_chiplets(); ++i) {
      EXPECT_NEAR(soa.chiplet_temp_c[i], want.chiplet_temp_c[i], kTempTolC)
          << "images=" << images << " chiplet " << i;
    }
    EXPECT_NEAR(soa.max_temp_c, want.max_temp_c, kTempTolC)
        << "images=" << images;
  }
}

// The lane split behind evaluate_batch: for any (candidates, lanes) the
// per-lane ranges must tile [0, b) exactly with sizes differing by at most
// one — including counts where the old b * c / lanes form overflows
// std::size_t.
TEST(SoaKernel, BatchLaneRangePartitionsExactly) {
  const auto check_partition = [](std::size_t b, std::size_t lanes) {
    SCOPED_TRACE("b=" + std::to_string(b) + " lanes=" + std::to_string(lanes));
    const std::size_t quotient = b / lanes;
    const std::size_t remainder = b % lanes;
    std::size_t prev_hi = 0;
    for (std::size_t c = 0; c < lanes; ++c) {
      const auto [lo, hi] = batch_lane_range(b, lanes, c);
      EXPECT_EQ(lo, prev_hi);  // contiguous: lane c starts where c-1 ended
      EXPECT_EQ(hi - lo, quotient + (c < remainder ? 1 : 0));
      prev_hi = hi;
    }
    EXPECT_EQ(prev_hi, b);  // the last lane ends exactly at b
  };
  for (const auto& [b, lanes] :
       std::vector<std::pair<std::size_t, std::size_t>>{
           {0, 1}, {0, 7}, {1, 1}, {1, 8}, {5, 3}, {7, 7}, {33, 5},
           {64, 64}, {65, 64}, {1000, 7}, {1000, 1}}) {
    check_partition(b, lanes);
  }
  // Adversarial: near-SIZE_MAX batch counts. The naive split computes
  // b * c / lanes, which wraps for any c >= 2 here; the quotient form must
  // still produce an exact partition.
  const std::size_t big = std::numeric_limits<std::size_t>::max() - 3;
  for (const std::size_t lanes : {std::size_t{2}, std::size_t{5}}) {
    check_partition(big, lanes);
  }
}

// Regression: hand-built knots with a non-zero first knot used to resample
// into a 4,096-point table that failed its own uniformity check (knots
// front + i * step round in proportion to |front|, not to the step), so the
// model silently kept a non-uniform table: the incremental engine fell back
// to scalar while the snapshot took another path. The resample must come
// out uniform, every path must dispatch, and results must match the oracle.
TEST(SoaKernel, OffsetKnotTableResamplesUniformAndDispatches) {
  const std::vector<double> dims{2.0, 10.0, 22.0};
  std::vector<std::vector<double>> self_vals(dims.size(),
                                             std::vector<double>(dims.size()));
  for (std::size_t i = 0; i < dims.size(); ++i) {
    for (std::size_t j = 0; j < dims.size(); ++j) {
      self_vals[i][j] = 2.0 / (1.0 + 0.05 * dims[i] * dims[j]);
    }
  }
  const FastThermalModel model(
      SelfResistanceTable(dims, dims, self_vals),
      MutualResistanceTable({10.0, 10.001, 20.0}, {0.7, 0.69, 0.2}), 45.0,
      FastModelConfig{});
  EXPECT_EQ(model.mutual_table().distances().size(), 4096u);
  ASSERT_TRUE(model.mutual_table().is_uniform());

  const ChipletSystem sys("offset-knots", kInterposer, kInterposer,
                          {{"a", 8.0, 8.0, 20.0}, {"b", 6.0, 4.0, 10.0}}, {});
  Floorplan fp(sys);
  fp.place(0, {4.0, 4.0});
  fp.place(1, {17.0, 9.0});
  SoaSnapshot snapshot(model, sys);
  IncrementalThermalState state(model, sys);
  EXPECT_EQ(snapshot.simd_level(), soa_dispatch_level());
  EXPECT_EQ(state.simd_level(), soa_dispatch_level());
  snapshot.refresh(fp);
  FastThermalResult soa;
  snapshot.evaluate(soa);
  state.sync(fp);
  EXPECT_EQ(state.max_temperature_c(), soa.max_temp_c);
  EXPECT_NEAR(soa.max_temp_c, oracle::evaluate(model, sys, fp).max_temp_c,
              kTempTolC);
}

}  // namespace
}  // namespace rlplan::thermal
