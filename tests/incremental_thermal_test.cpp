// Equivalence fuzzing for the incremental thermal engine: random
// place/move/remove/undo/commit sequences must match batch
// FastThermalModel::evaluate() on every chiplet temperature, across the
// FastModelConfig variants (images on/off, position correction, droop).
//
// Two differential axes, one per execution tier (thermal/incremental.h):
// the forced-scalar state must be BIT-EXACT against batch (EXPECT_EQ on
// every double), and a dispatched state with the journaled partial-sum
// query forced on — so the patching machinery exercises even on
// scalar-only hosts — must stay within the repo-wide 1e-9 C envelope of
// the forced-scalar state after every mutation.
#include "thermal/incremental.h"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "core/floorplan.h"
#include "fuzz_util.h"
#include "rl/env.h"
#include "systems/synthetic.h"
#include "thermal/evaluator.h"
#include "util/rng.h"
#include "util/simd.h"

namespace rlplan::thermal {
namespace {

using rlplan::testing::fuzz_scale;

constexpr double kInterposer = 50.0;

/// One-line reproduction seed for the nightly failure artifact: each fuzz
/// sequence runs from its own derived seed, so a red nightly case replays at
/// any RLPLANNER_FUZZ_SCALE with just this line.
void report_failure_seed(const std::string& context) {
  rlplan::testing::report_failure_seed("incremental_thermal_test", context);
}

// Synthetic characterization-free model: smooth analytic tables so the fuzz
// loop costs microseconds per batch reference evaluation.
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
  for (double d = 0.0; d <= 75.0; d += 1.5) {
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
    // Hotter near the edges, coolest at the center.
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
  FastModelConfig corrected;
  corrected.use_images = false;
  corrected.correct_mutual = true;
  v.push_back({"correction", corrected, true, true});
  FastModelConfig paper_min;
  paper_min.use_images = true;
  paper_min.source_subsamples = 1;
  paper_min.receiver_probes = 1;
  paper_min.image_reflectivity = 0.6;
  v.push_back({"single-probe", paper_min, false, false});
  return v;
}

ChipletSystem random_system(Rng& rng, std::size_t min_n = 2,
                            std::size_t max_n = 8) {
  systems::SyntheticConfig sc;
  sc.min_chiplets = min_n;
  sc.max_chiplets = max_n;
  sc.interposer_w_mm = kInterposer;
  sc.interposer_h_mm = kInterposer;
  return systems::SyntheticSystemGenerator(sc).generate(rng.next(), "fuzz");
}

Placement random_placement(const ChipletSystem& sys, std::size_t i, Rng& rng) {
  const bool rotated = rng.uniform() < 0.3;
  const Chiplet& c = sys.chiplet(i);
  const double w = rotated ? c.height : c.width;
  const double h = rotated ? c.width : c.height;
  // The thermal model has no legality notion: any in-bounds position is a
  // valid fuzz input, overlaps included.
  return {{rng.uniform(0.0, kInterposer - w), rng.uniform(0.0, kInterposer - h)},
          rotated};
}

void expect_state_matches_batch(const IncrementalThermalState& state,
                                const FastThermalModel& model,
                                const ChipletSystem& sys, const Floorplan& fp,
                                const char* context, bool exact = false) {
  const auto batch = model.evaluate(sys, fp);
  std::vector<double> temps;
  state.temperatures(temps);
  ASSERT_EQ(temps.size(), batch.chiplet_temp_c.size());
  for (std::size_t i = 0; i < temps.size(); ++i) {
    if (exact) {
      ASSERT_EQ(temps[i], batch.chiplet_temp_c[i])
          << context << ": chiplet " << i;
    } else {
      ASSERT_NEAR(temps[i], batch.chiplet_temp_c[i], 1e-9)
          << context << ": chiplet " << i;
    }
  }
  if (exact) {
    ASSERT_EQ(state.max_temperature_c(), batch.max_temp_c) << context;
  } else {
    ASSERT_NEAR(state.max_temperature_c(), batch.max_temp_c, 1e-9) << context;
  }
}

/// The dispatched-tier contract: within 1e-9 C of the forced-scalar state
/// holding the identical placement, on every chiplet and the peak.
void expect_states_agree(const IncrementalThermalState& dispatched,
                         const IncrementalThermalState& scalar,
                         const char* context) {
  std::vector<double> a, b;
  dispatched.temperatures(a);
  scalar.temperatures(b);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a[i], b[i], 1e-9) << context << ": chiplet " << i;
  }
  ASSERT_NEAR(dispatched.max_temperature_c(), scalar.max_temperature_c(), 1e-9)
      << context;
}

// The acceptance bar: >= 1000 random mutation sequences across all variants.
// Two states ride the identical op stream: the forced-scalar one is checked
// BIT-EXACT against the batch evaluator, the default-dispatch one (with the
// journaled partial-sum query forced on, so the patching machinery runs even
// where dispatch collapses to scalar) within 1e-9 C of the scalar state.
TEST(IncrementalThermal, FuzzedMutationSequencesMatchBatch) {
  const auto vs = variants();
  const int scale = fuzz_scale();
  Rng rng(0xfeedULL);
  int sequences = 0;
  for (const Variant& v : vs) {
    const FastThermalModel model = make_model(v.config, v.correction, v.droop);
    for (int seq = 0; seq < 260 * scale; ++seq, ++sequences) {
      // Every sequence runs from its own derived seed so a nightly failure
      // is replayable in isolation, independent of the iteration scale.
      const std::uint64_t seq_seed = rng.next();
      Rng seq_rng(seq_seed);
      const ChipletSystem sys = random_system(seq_rng);
      const std::size_t n = sys.num_chiplets();
      IncrementalThermalState state(model, sys);
      state.set_simd_level(util::SimdLevel::kScalar);
      IncrementalThermalState dispatched(model, sys);
      dispatched.set_patched_query(true);
      Floorplan fp(sys);             // mirrors the state's placement
      Floorplan committed_fp(sys);   // snapshot at the last commit()
      const int ops =
          4 + static_cast<int>(seq_rng.uniform_int(std::uint64_t{8}));
      for (int op = 0; op < ops; ++op) {
        const double u = seq_rng.uniform();
        const std::size_t die = seq_rng.uniform_int(std::uint64_t{n});
        if (u < 0.45) {  // place or move
          const Placement p = random_placement(sys, die, seq_rng);
          state.place(die, p);
          dispatched.place(die, p);
          fp.place(die, p.position, p.rotated);
        } else if (u < 0.65) {  // remove
          state.remove(die);
          dispatched.remove(die);
          fp.unplace(die);
        } else if (u < 0.8) {  // undo to the last commit
          state.undo();
          dispatched.undo();
          fp = committed_fp;
        } else {  // commit
          state.commit();
          dispatched.commit();
          committed_fp = fp;
        }
        expect_state_matches_batch(state, model, sys, fp, v.name,
                                   /*exact=*/true);
        expect_states_agree(dispatched, state, v.name);
        if (::testing::Test::HasFatalFailure()) {
          report_failure_seed(std::string("variant=") + v.name +
                              " sequence_seed=" + std::to_string(seq_seed) +
                              " op=" + std::to_string(op));
          return;
        }
      }
    }
  }
  EXPECT_GE(sequences, 1000 * scale);
}

// Tight agreement on a hand-checkable case: the forced-scalar query sums the
// identical pairwise doubles the batch evaluator sums, in the same order, so
// the agreement is exact — not just close. The default-dispatch state (which
// may run SIMD pair-row kernels and the patched-sum query) stays inside the
// 1e-9 C envelope on the same placement.
TEST(IncrementalThermal, ExactAgreementOnDenseSystem) {
  const FastThermalModel model = make_model(FastModelConfig{}, false, true);
  Rng rng(7);
  const ChipletSystem sys = random_system(rng, 6, 6);
  Floorplan fp(sys);
  IncrementalThermalState state(model, sys);
  state.set_simd_level(util::SimdLevel::kScalar);
  IncrementalThermalState dispatched(model, sys);
  for (std::size_t i = 0; i < sys.num_chiplets(); ++i) {
    const Placement p = random_placement(sys, i, rng);
    state.place(i, p);
    dispatched.place(i, p);
    fp.place(i, p.position, p.rotated);
  }
  const auto batch = model.evaluate(sys, fp);
  for (std::size_t i = 0; i < sys.num_chiplets(); ++i) {
    EXPECT_EQ(state.chiplet_temperature_c(i), batch.chiplet_temp_c[i]);
    EXPECT_NEAR(dispatched.chiplet_temperature_c(i), batch.chiplet_temp_c[i],
                1e-9);
  }
  EXPECT_EQ(state.max_temperature_c(), batch.max_temp_c);
  EXPECT_NEAR(dispatched.max_temperature_c(), batch.max_temp_c, 1e-9);
}

// The journaled partial sums behind the patched query: rollback restores the
// snapshot verbatim, so a query after undo() reproduces the pre-mutation
// temperatures BIT-EXACTLY — not merely within tolerance — and a long
// committed move stream crosses the kResumInterval re-reduction boundary
// without drifting outside the envelope.
TEST(IncrementalThermal, JournaledSumsCommitRollbackBitExact) {
  const FastThermalModel model = make_model(FastModelConfig{}, false, true);
  Rng rng(0x9e37ULL);
  const ChipletSystem sys = random_system(rng, 6, 6);
  const std::size_t n = sys.num_chiplets();
  Floorplan fp(sys);
  IncrementalThermalState state(model, sys);
  state.set_patched_query(true);  // exercise the sum machinery on any host
  for (std::size_t i = 0; i < n; ++i) {
    const Placement p = random_placement(sys, i, rng);
    state.place(i, p);
    fp.place(i, p.position, p.rotated);
  }
  std::vector<double> before;
  state.temperatures(before);  // materializes the partial sums
  const double max_before = state.max_temperature_c();
  EXPECT_GE(state.sum_resums(), 1);
  state.commit();

  // Rejected-move rounds: mutate (patching the sums), query, roll back; the
  // journal must restore the exact pre-move answer every time.
  for (int round = 0; round < 24; ++round) {
    const std::size_t die = rng.uniform_int(std::uint64_t{n});
    if (round % 4 == 3) {
      state.remove(die);
    } else {
      state.place(die, random_placement(sys, die, rng));
    }
    (void)state.max_temperature_c();  // query the mutated state
    state.undo();
    std::vector<double> after;
    state.temperatures(after);
    ASSERT_EQ(after.size(), before.size());
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(after[i], before[i]) << "round " << round << " chiplet " << i;
    }
    ASSERT_EQ(state.max_temperature_c(), max_before) << "round " << round;
  }
  EXPECT_GT(state.sum_patches(), 0);

  // Accepted-move stream long enough to force at least one periodic full
  // re-reduction; every step must still match the batch evaluator.
  const long resums_before =
      state.sum_resums();
  for (int move = 0; move < IncrementalThermalState::kResumInterval + 8;
       ++move) {
    const std::size_t die = rng.uniform_int(std::uint64_t{n});
    const Placement p = random_placement(sys, die, rng);
    state.place(die, p);
    fp.place(die, p.position, p.rotated);
    state.commit();
    expect_state_matches_batch(state, model, sys, fp, "committed-stream");
  }
  EXPECT_GT(state.sum_resums(), resums_before);
}

TEST(IncrementalThermal, RemoveAndUndoCostNoKernelWork) {
  const FastThermalModel model = make_model(FastModelConfig{}, false, true);
  Rng rng(11);
  const ChipletSystem sys = random_system(rng, 5, 5);
  const std::size_t n = sys.num_chiplets();
  IncrementalThermalState state(model, sys);
  Floorplan fp(sys);
  for (std::size_t i = 0; i < n; ++i) {
    const Placement p = random_placement(sys, i, rng);
    state.place(i, p);
    fp.place(i, p.position, p.rotated);
  }
  state.commit();

  long before = state.pair_updates();
  state.remove(2);
  EXPECT_EQ(state.pair_updates(), before);  // remove: bookkeeping only
  state.undo();  // snapshot restore: no kernel recomputation
  EXPECT_EQ(state.pair_updates(), before);
  expect_state_matches_batch(state, model, sys, fp, "undo-of-remove");

  // A rejected SA displace: the move pays its 2*(n-1) directed pair
  // updates, the rollback pays none.
  state.place(2, random_placement(sys, 2, rng));
  EXPECT_EQ(state.pair_updates(), before + 2 * static_cast<long>(n - 1));
  before = state.pair_updates();
  state.undo();
  EXPECT_EQ(state.pair_updates(), before);
  expect_state_matches_batch(state, model, sys, fp, "undo-of-move");
}

// Evaluator-level protocol, driven the way TAP-2.5D SA drives it: sync via
// diff, then commit or rollback.
TEST(IncrementalThermal, EvaluatorCommitRollbackMatchesBatch) {
  const FastThermalModel model = make_model(FastModelConfig{}, false, true);
  IncrementalFastModelEvaluator eval(model);
  FastModelEvaluator reference(model);
  Rng rng(0xabcdULL);
  const ChipletSystem sys = random_system(rng, 4, 7);
  Floorplan current(sys);
  for (std::size_t i = 0; i < sys.num_chiplets(); ++i) {
    const Placement p = random_placement(sys, i, rng);
    current.place(i, p.position, p.rotated);
  }
  ASSERT_NEAR(eval.incremental_max_temperature(sys, current),
              reference.max_temperature(sys, current), 1e-9);
  eval.commit();
  for (int move = 0; move < 200; ++move) {
    Floorplan cand = current;
    const std::size_t die = rng.uniform_int(std::uint64_t{sys.num_chiplets()});
    const Placement p = random_placement(sys, die, rng);
    cand.place(die, p.position, p.rotated);
    const double t_incr = eval.incremental_max_temperature(sys, cand);
    ASSERT_NEAR(t_incr, reference.max_temperature(sys, cand), 1e-9)
        << "move " << move;
    if (rng.uniform() < 0.5) {
      eval.commit();
      current = cand;
    } else {
      eval.rollback();
      // The next query must see the rolled-back state, not the candidate.
      ASSERT_NEAR(eval.incremental_max_temperature(sys, current),
                  reference.max_temperature(sys, current), 1e-9);
      eval.commit();
    }
  }
  EXPECT_GT(eval.incremental_queries(), 0);
}

// A fresh session on a different system must not read stale caches.
TEST(IncrementalThermal, SessionRebindsAcrossSystems) {
  const FastThermalModel model = make_model(FastModelConfig{}, false, true);
  IncrementalFastModelEvaluator eval(model);
  FastModelEvaluator reference(model);
  Rng rng(0x5151ULL);
  for (int k = 0; k < 5; ++k) {
    const ChipletSystem sys = random_system(rng);
    Floorplan fp(sys);
    for (std::size_t i = 0; i < sys.num_chiplets(); ++i) {
      const Placement p = random_placement(sys, i, rng);
      fp.place(i, p.position, p.rotated);
    }
    ASSERT_NEAR(eval.incremental_max_temperature(sys, fp),
                reference.max_temperature(sys, fp), 1e-9);
  }
}

// Two systems at one recycled address with identical placements: the
// session must rebind on content, not on a lossy fingerprint. These two die
// sets collided exactly under the former float-polynomial fingerprint
// (12.96004072000802 for both), and the recycled evaluator kept the first
// system's die sizes and powers.
TEST(IncrementalThermal, RecycledAddressRebindsOnExactContent) {
  const FastThermalModel model = make_model(FastModelConfig{}, false, true);
  const std::vector<InterChipletNet> nets{{0, 1, 8}};
  std::optional<ChipletSystem> sys;
  sys.emplace("first", 40.0, 40.0,
              std::vector<Chiplet>{{"a", 2.0, 2.0, 4.0}, {"b", 5.0, 5.0, 10.0}},
              nets);
  const ChipletSystem* address = &*sys;
  const auto place = [](const ChipletSystem& s) {
    Floorplan fp(s);
    fp.place(0, {6.0, 6.0});
    fp.place(1, {20.0, 20.0});
    return fp;
  };
  IncrementalFastModelEvaluator recycled(model);
  const double first = recycled.incremental_max_temperature(*sys, place(*sys));

  sys.emplace("second", 40.0, 40.0,
              std::vector<Chiplet>{{"a", 4.0, 7.0, 1.0}, {"b", 5.0, 5.0, 10.0}},
              nets);
  ASSERT_EQ(&*sys, address);
  IncrementalFastModelEvaluator fresh(model);
  const double want = fresh.incremental_max_temperature(*sys, place(*sys));
  EXPECT_EQ(recycled.incremental_max_temperature(*sys, place(*sys)), want);
  EXPECT_NE(want, first);
}

// End-to-end through the RL env: the per-step notify_place stream plus the
// episode-end incremental query must equal a batch evaluator's reward.
TEST(IncrementalThermal, EnvEpisodeMatchesBatchEvaluator) {
  const FastThermalModel model = make_model(FastModelConfig{}, false, true);
  Rng rng(0x77ULL);
  const ChipletSystem sys = random_system(rng, 4, 6);

  rl::EnvConfig config;
  config.grid = 16;
  const auto run_episode = [&](ThermalEvaluator& eval) {
    rl::FloorplanEnv env(sys, eval, RewardCalculator{}, bump::BumpAssigner{},
                         config);
    Rng action_rng(99);
    env.reset();
    while (!env.done()) {
      const auto& mask = env.action_mask();
      std::size_t action = action_rng.uniform_int(std::uint64_t{mask.size()});
      while (mask[action] == 0) action = (action + 1) % mask.size();
      env.step(action);
    }
    return env.last_metrics();
  };

  FastModelEvaluator batch(model);
  IncrementalFastModelEvaluator incr(model);
  const auto m_batch = run_episode(batch);
  const auto m_incr = run_episode(incr);
  ASSERT_TRUE(m_batch.valid);
  ASSERT_TRUE(m_incr.valid);
  EXPECT_NEAR(m_incr.temperature_c, m_batch.temperature_c, 1e-9);
  EXPECT_NEAR(m_incr.reward, m_batch.reward, 1e-9);
  EXPECT_GT(incr.incremental_queries(), 0);
}

TEST(IncrementalThermal, RejectsOversizedAndEmpty) {
  const FastThermalModel model = make_model(FastModelConfig{}, false, false);
  Rng rng(3);
  const ChipletSystem sys = random_system(rng, 3, 3);
  EXPECT_THROW(IncrementalThermalState(FastThermalModel{}, sys),
               std::invalid_argument);
  IncrementalThermalState state(model, sys);
  EXPECT_THROW(state.place(99, Placement{}), std::out_of_range);
  EXPECT_EQ(state.num_placed(), 0u);
  EXPECT_NEAR(state.max_temperature_c(), model.ambient_c(), 1e-12);
}

}  // namespace
}  // namespace rlplan::thermal
