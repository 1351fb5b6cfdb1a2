// Equivalence fuzzing for the incremental thermal engine: random
// place/move/remove/undo/commit sequences must match the test-only oracle
// (fast_model_oracle.h, a plain scalar evaluation) on every chiplet
// temperature, across the FastModelConfig variants (images on/off, position
// correction, droop).
//
// Two states ride every op stream, one forced to the scalar kernel table
// and one at the dispatched level; each must stay within the repo-wide
// 1e-9 C envelope of the oracle after every mutation. The same-level anchor
// (thermal/incremental.h) is checked too: whenever a query ran a full
// re-reduction of the partial sums — a fresh state's first query, or every
// kResumInterval patches — the state must equal a SoaSnapshot at the same
// level BIT-EXACTLY.
#include "thermal/incremental.h"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "core/floorplan.h"
#include "fast_model_oracle.h"
#include "fuzz_util.h"
#include "rl/env.h"
#include "systems/synthetic.h"
#include "thermal/evaluator.h"
#include "thermal/soa_snapshot.h"
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
// loop costs microseconds per oracle evaluation.
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
  FastModelConfig corrected;  // the position correction scales self terms
  corrected.use_images = false;
  v.push_back({"correction", corrected, true, true});
  FastModelConfig paper_min;
  paper_min.use_images = true;
  paper_min.source_subsamples = 1;
  paper_min.receiver_probes = 1;
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

/// The two kernel levels every state runs at: the process dispatch choice
/// and forced scalar (the same level twice on hosts without SIMD kernels).
std::vector<util::SimdLevel> levels() {
  return {soa_dispatch_level(), util::SimdLevel::kScalar};
}

/// Queries `state` (mirroring `fp`) and checks it within 1e-9 C of the
/// oracle; when the query ran a full re-reduction, also bit for bit against
/// a SoaSnapshot at the state's level. Returns whether it was anchored.
bool expect_state_matches(const IncrementalThermalState& state,
                          const FastThermalModel& model,
                          const ChipletSystem& sys, const Floorplan& fp,
                          const std::string& context) {
  const long resums = state.sum_resums();
  std::vector<double> temps;
  state.temperatures(temps);
  const bool anchored = state.sum_resums() != resums;
  const std::string at =
      context + " level=" + util::simd_level_name(state.simd_level());
  const auto want = oracle::evaluate(model, sys, fp);
  EXPECT_EQ(temps.size(), want.chiplet_temp_c.size()) << at;
  for (std::size_t i = 0; i < temps.size(); ++i) {
    EXPECT_NEAR(temps[i], want.chiplet_temp_c[i], 1e-9)
        << at << ": chiplet " << i;
  }
  EXPECT_NEAR(state.max_temperature_c(), want.max_temp_c, 1e-9) << at;
  if (anchored) {
    SoaSnapshot snapshot(model, sys);
    EXPECT_EQ(snapshot.set_simd_level(state.simd_level()),
              state.simd_level());
    snapshot.refresh(fp);
    FastThermalResult soa;
    snapshot.evaluate(soa);
    EXPECT_EQ(temps, soa.chiplet_temp_c) << at << ": anchor vs snapshot";
    EXPECT_EQ(state.max_temperature_c(), soa.max_temp_c) << at;
  }
  return anchored;
}

// The acceptance bar: >= 1000 random mutation sequences across all variants,
// each driving one state per level through the identical op stream.
TEST(IncrementalThermal, FuzzedMutationSequencesMatchOracle) {
  const auto vs = variants();
  const int scale = fuzz_scale();
  Rng rng(0xfeedULL);
  int sequences = 0;
  long anchors = 0;
  for (const Variant& v : vs) {
    const FastThermalModel model = make_model(v.config, v.correction, v.droop);
    for (int seq = 0; seq < 260 * scale; ++seq, ++sequences) {
      // Every sequence runs from its own derived seed so a nightly failure
      // is replayable in isolation, independent of the iteration scale.
      const std::uint64_t seq_seed = rng.next();
      Rng seq_rng(seq_seed);
      const ChipletSystem sys = random_system(seq_rng);
      const std::size_t n = sys.num_chiplets();
      std::vector<IncrementalThermalState> states;
      for (const util::SimdLevel level : levels()) {
        states.emplace_back(model, sys);
        states.back().set_simd_level(level);
      }
      Floorplan fp(sys);             // mirrors the states' placement
      Floorplan committed_fp(sys);   // snapshot at the last commit()
      const int ops =
          4 + static_cast<int>(seq_rng.uniform_int(std::uint64_t{8}));
      for (int op = 0; op < ops; ++op) {
        const double u = seq_rng.uniform();
        const std::size_t die = seq_rng.uniform_int(std::uint64_t{n});
        if (u < 0.45) {  // place or move
          const Placement p = random_placement(sys, die, seq_rng);
          for (auto& state : states) state.place(die, p);
          fp.place(die, p.position, p.rotated);
        } else if (u < 0.65) {  // remove
          for (auto& state : states) state.remove(die);
          fp.unplace(die);
        } else if (u < 0.8) {  // undo to the last commit
          for (auto& state : states) state.undo();
          fp = committed_fp;
        } else {  // commit
          for (auto& state : states) state.commit();
          committed_fp = fp;
        }
        for (const auto& state : states) {
          anchors += expect_state_matches(state, model, sys, fp, v.name);
        }
        if (::testing::Test::HasFailure()) {
          report_failure_seed(std::string("variant=") + v.name +
                              " sequence_seed=" + std::to_string(seq_seed) +
                              " op=" + std::to_string(op));
          return;
        }
      }
    }
  }
  EXPECT_GE(sequences, 1000 * scale);
  EXPECT_GT(anchors, 0);
}

// The anchor on a fresh state: its first query is a full re-reduction, so
// at each level it equals a same-level SoaSnapshot bit for bit (and both
// sit within 1e-9 C of the oracle).
TEST(IncrementalThermal, FreshStateEqualsSnapshotAtSameLevel) {
  const FastThermalModel model = make_model(FastModelConfig{}, false, true);
  Rng rng(7);
  const ChipletSystem sys = random_system(rng, 6, 6);
  Floorplan fp(sys);
  for (std::size_t i = 0; i < sys.num_chiplets(); ++i) {
    const Placement p = random_placement(sys, i, rng);
    fp.place(i, p.position, p.rotated);
  }
  for (const util::SimdLevel level : levels()) {
    IncrementalThermalState state(model, sys);
    state.set_simd_level(level);
    state.sync(fp);
    EXPECT_TRUE(expect_state_matches(state, model, sys, fp, "fresh"));
  }
}

// The journaled partial sums behind the query: rollback restores the
// snapshot verbatim, so a query after undo() reproduces the pre-mutation
// temperatures BIT-EXACTLY — not merely within tolerance — and a long
// committed move stream crosses the kResumInterval re-reduction boundary,
// where the state lands back on the same-level snapshot bit for bit.
TEST(IncrementalThermal, JournaledSumsCommitRollbackBitExact) {
  const FastThermalModel model = make_model(FastModelConfig{}, false, true);
  for (const util::SimdLevel level : levels()) {
    Rng rng(0x9e37ULL);
    const ChipletSystem sys = random_system(rng, 6, 6);
    const std::size_t n = sys.num_chiplets();
    Floorplan fp(sys);
    IncrementalThermalState state(model, sys);
    state.set_simd_level(level);
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

    // Rejected-move rounds: mutate (patching the sums), query, roll back;
    // the journal must restore the exact pre-move answer every time.
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
    // re-reduction; every step must match the oracle, and the re-reduced
    // step the same-level snapshot.
    const long resums_before = state.sum_resums();
    int anchors = 0;
    for (int move = 0; move < IncrementalThermalState::kResumInterval + 8;
         ++move) {
      const std::size_t die = rng.uniform_int(std::uint64_t{n});
      const Placement p = random_placement(sys, die, rng);
      state.place(die, p);
      fp.place(die, p.position, p.rotated);
      state.commit();
      anchors += expect_state_matches(state, model, sys, fp,
                                      "committed-stream");
    }
    EXPECT_GT(state.sum_resums(), resums_before);
    EXPECT_GE(anchors, 1);
  }
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
  expect_state_matches(state, model, sys, fp, "undo-of-remove");

  // A rejected SA displace: the move pays its 2*(n-1) directed pair
  // updates, the rollback pays none.
  state.place(2, random_placement(sys, 2, rng));
  EXPECT_EQ(state.pair_updates(), before + 2 * static_cast<long>(n - 1));
  before = state.pair_updates();
  state.undo();
  EXPECT_EQ(state.pair_updates(), before);
  expect_state_matches(state, model, sys, fp, "undo-of-move");
}

// Evaluator-level protocol, driven the way TAP-2.5D SA drives it: sync via
// diff, then commit or rollback.
TEST(IncrementalThermal, EvaluatorCommitRollbackMatchesOracle) {
  const FastThermalModel model = make_model(FastModelConfig{}, false, true);
  IncrementalFastModelEvaluator eval(model);
  oracle::OracleEvaluator reference(model);
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

/// A family system of `n` dies on the fuzz interposer: mostly non-square
/// dies (a rotation changes their footprint), and in about a third of the
/// systems a few dies carry no power (receivers that are no source).
ChipletSystem family_system(Rng& rng, std::size_t n) {
  systems::FamilyConfig fc;
  fc.chiplets = n;
  fc.interposer_w_mm = fc.interposer_h_mm = kInterposer;
  fc.min_dim_mm = 2.0;
  fc.max_dim_mm = n > 16 ? 4.0 : 8.0;
  fc.max_aspect = rng.uniform() < 0.8 ? 2.5 : 1.0;
  const ChipletSystem drawn = systems::generate_family(fc, rng.next(), "pop");
  std::vector<Chiplet> chiplets = drawn.chiplets();
  if (rng.uniform() < 0.35) {
    for (Chiplet& c : chiplets) {
      if (rng.uniform() < 0.3) c.power = 0.0;
    }
  }
  return ChipletSystem(drawn.name(), kInterposer, kInterposer,
                       std::move(chiplets), drawn.nets());
}

/// Peak temperature of `fp` from a SoaSnapshot at `level`.
double snapshot_max(const FastThermalModel& model, const ChipletSystem& sys,
                    const Floorplan& fp, util::SimdLevel level) {
  SoaSnapshot snapshot(model, sys);
  snapshot.set_simd_level(level);
  snapshot.refresh(fp);
  FastThermalResult r;
  snapshot.evaluate(r);
  return r.max_temp_c;
}

/// One SA move off `current`: displace one die, swap two dies' positions
/// (keeping orientations) or rotate one die in place. Unplaced dies stay
/// unplaced; the thermal model needs no legality.
Floorplan sa_move(const ChipletSystem& sys, const Floorplan& current,
                  Rng& rng) {
  Floorplan next = current;
  const std::size_t n = sys.num_chiplets();
  const std::size_t i = rng.uniform_int(std::uint64_t{n});
  const auto& pi = current.placement(i);
  if (!pi) return next;
  const double u = rng.uniform();
  if (u < 0.5) {
    const Placement p = random_placement(sys, i, rng);
    next.place(i, p.position, pi->rotated);
  } else if (u < 0.75) {
    const std::size_t j = (i + 1 + rng.uniform_int(std::uint64_t{n - 1})) % n;
    const auto& pj = current.placement(j);
    if (!pj) return next;
    next.place(i, pj->position, pi->rotated);
    next.place(j, pi->position, pj->rotated);
  } else {
    next.place(i, pi->position, !pi->rotated);
  }
  return next;
}

/// A floorplan with every die drawn afresh; with `partial`, about a quarter
/// of the dies stay unplaced.
Floorplan random_floorplan(const ChipletSystem& sys, Rng& rng, bool partial) {
  Floorplan fp(sys);
  for (std::size_t i = 0; i < sys.num_chiplets(); ++i) {
    const Placement p = random_placement(sys, i, rng);
    if (!partial || rng.uniform() < 0.75) fp.place(i, p.position, p.rotated);
  }
  return fp;
}

// Population batches scored as deltas on the evaluator's private batch
// state: SA-style rounds of K = 1..16 candidates (displace / swap / rotate
// off a current floorplan that half the rounds advance), plus candidates
// equal to the current floorplan, candidates differing in every die, rounds
// with no majority for any die and partially placed floorplans, on family
// systems of 2-64 dies with two systems alternating on each evaluator. Every
// candidate must equal a same-level SoaSnapshot BIT-EXACTLY, on an
// evaluator pinned to scalar and on one at the dispatched level.
TEST(IncrementalThermal, PopulationBatchEqualsSnapshot) {
  const int scale = fuzz_scale();
  Rng rng(0x9091ULL);
  long candidates = 0;
  for (const Variant& v : variants()) {
    const FastThermalModel model = make_model(v.config, v.correction, v.droop);
    for (int seq = 0; seq < 8 * scale; ++seq) {
      const std::uint64_t seq_seed = rng.next();
      Rng seq_rng(seq_seed);
      // About one sequence in four pairs a 64-die system with one of 17-64
      // dies, for fewer and smaller rounds (the snapshot that checks them
      // costs O(n^2) per candidate); the others run 2-16 dies.
      const bool large = seq_rng.uniform() < 0.25;
      const auto die_count = [&] {
        return large ? 17 + seq_rng.uniform_int(std::uint64_t{48})
                     : 2 + seq_rng.uniform_int(std::uint64_t{15});
      };
      const ChipletSystem pair[2] = {
          family_system(seq_rng, large ? 64 : die_count()),
          family_system(seq_rng, die_count())};
      Floorplan current[2] = {random_floorplan(pair[0], seq_rng, false),
                              random_floorplan(pair[1], seq_rng, false)};
      IncrementalFastModelEvaluator evals[2] = {
          IncrementalFastModelEvaluator(model),
          IncrementalFastModelEvaluator(model)};
      evals[0].set_simd_level(util::SimdLevel::kScalar);
      const util::SimdLevel eval_levels[2] = {util::SimdLevel::kScalar,
                                              soa_dispatch_level()};
      const int rounds = large ? 4 : 8;
      for (int round = 0; round < rounds; ++round) {
        const std::size_t s = round % 2;
        const ChipletSystem& sys = pair[s];
        const auto k =
            1 + seq_rng.uniform_int(std::uint64_t{large ? 8u : 16u});
        std::vector<Floorplan> cands;
        const double kind = seq_rng.uniform();
        for (std::size_t c = 0; c < k; ++c) {
          if (kind < 0.1) {  // no majority for any die
            cands.push_back(random_floorplan(sys, seq_rng, false));
          } else if (kind < 0.2) {  // partially placed candidates
            cands.push_back(random_floorplan(sys, seq_rng, true));
          } else {
            const double u = seq_rng.uniform();
            cands.push_back(u < 0.1   ? current[s]
                            : u < 0.15 ? random_floorplan(sys, seq_rng, false)
                                       : sa_move(sys, current[s], seq_rng));
          }
        }
        for (std::size_t e = 0; e < 2; ++e) {
          const long before = evals[e].num_evaluations();
          const std::vector<double> temps =
              evals[e].max_temperature_batch(sys, cands);
          ASSERT_EQ(temps.size(), cands.size());
          EXPECT_EQ(evals[e].num_evaluations(),
                    before + static_cast<long>(k));
          for (std::size_t c = 0; c < k; ++c, ++candidates) {
            EXPECT_EQ(temps[c],
                      snapshot_max(model, sys, cands[c], eval_levels[e]))
                << v.name << " level="
                << util::simd_level_name(eval_levels[e]) << " round "
                << round << " candidate " << c;
          }
        }
        if (::testing::Test::HasFailure()) {
          report_failure_seed(std::string("variant=") + v.name +
                              " population_seed=" + std::to_string(seq_seed) +
                              " round=" + std::to_string(round));
          return;
        }
        if (seq_rng.uniform() < 0.5) {
          current[s] = cands[seq_rng.uniform_int(std::uint64_t{k})];
        }
      }
      // The batch path never syncs the incremental session.
      EXPECT_EQ(evals[0].state(), nullptr);
    }
  }
  EXPECT_GE(candidates, 1000L * scale);
}

// The batch path keeps its own state: a max_temperature_batch() call in the
// middle of a K = 1 protocol stream, with a move pending, changes neither
// the session's bits nor its kernel work, and counts every candidate.
TEST(IncrementalThermal, BatchLeavesProtocolSessionUntouched) {
  const FastThermalModel model = make_model(FastModelConfig{}, false, true);
  Rng rng(0x5e55ULL);
  const ChipletSystem sys = family_system(rng, 9);
  IncrementalFastModelEvaluator with_batch(model);
  IncrementalFastModelEvaluator without(model);
  Floorplan current = random_floorplan(sys, rng, false);
  for (auto* eval : {&with_batch, &without}) {
    eval->incremental_max_temperature(sys, current);
    eval->commit();
  }
  for (int move = 0; move < 40; ++move) {
    const Floorplan cand = sa_move(sys, current, rng);
    std::vector<Floorplan> batch;
    for (int c = 0; c < 12; ++c) batch.push_back(sa_move(sys, current, rng));
    EXPECT_EQ(with_batch.incremental_max_temperature(sys, cand),
              without.incremental_max_temperature(sys, cand));
    const long before = with_batch.num_evaluations();
    with_batch.max_temperature_batch(sys, batch);
    EXPECT_EQ(with_batch.num_evaluations(),
              before + static_cast<long>(batch.size()));
    const bool accept = rng.uniform() < 0.5;
    for (auto* eval : {&with_batch, &without}) {
      if (accept) {
        eval->commit();
      } else {
        eval->rollback();
      }
    }
    if (accept) current = cand;
    ASSERT_EQ(with_batch.incremental_max_temperature(sys, current),
              without.incremental_max_temperature(sys, current))
        << "move " << move;
    for (auto* eval : {&with_batch, &without}) eval->commit();
    ASSERT_EQ(with_batch.state()->pair_updates(),
              without.state()->pair_updates());
    ASSERT_EQ(with_batch.state()->sum_patches(),
              without.state()->sum_patches());
  }
  EXPECT_EQ(with_batch.incremental_queries(), without.incremental_queries());
  EXPECT_EQ(with_batch.full_evaluations(), 0);
}

// A fresh session on a different system must not read stale caches.
TEST(IncrementalThermal, SessionRebindsAcrossSystems) {
  const FastThermalModel model = make_model(FastModelConfig{}, false, true);
  IncrementalFastModelEvaluator eval(model);
  oracle::OracleEvaluator reference(model);
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
// episode-end incremental query must match the oracle evaluator's reward.
TEST(IncrementalThermal, EnvEpisodeMatchesOracleEvaluator) {
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

  oracle::OracleEvaluator reference(model);
  IncrementalFastModelEvaluator incr(model);
  const auto m_ref = run_episode(reference);
  const auto m_incr = run_episode(incr);
  ASSERT_TRUE(m_ref.valid);
  ASSERT_TRUE(m_incr.valid);
  EXPECT_NEAR(m_incr.temperature_c, m_ref.temperature_c, 1e-9);
  EXPECT_NEAR(m_incr.reward, m_ref.reward, 1e-9);
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
