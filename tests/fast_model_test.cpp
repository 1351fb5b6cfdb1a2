#include "thermal/fast_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fast_model_oracle.h"
#include "fuzz_util.h"
#include "robust/robust.h"
#include "systems/synthetic.h"
#include "thermal/characterize.h"
#include "thermal/grid_solver.h"
#include "util/stats.h"
#include "util/rng.h"
#include "util/timer.h"

namespace rlplan::thermal {
namespace {

// Shared small-grid characterization for the whole test suite (expensive).
class FastModelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    stack_ = new LayerStack(LayerStack::default_2p5d());
    CharacterizationConfig cc;
    cc.solver.dims = {32, 32};
    cc.auto_axis_points = 6;
    ThermalCharacterizer charac(*stack_, cc);
    model_ = new FastThermalModel(charac.characterize(40.0, 40.0));
  }
  static void TearDownTestSuite() {
    delete model_;
    delete stack_;
    model_ = nullptr;
    stack_ = nullptr;
  }
  static LayerStack* stack_;
  static FastThermalModel* model_;
};

LayerStack* FastModelTest::stack_ = nullptr;
FastThermalModel* FastModelTest::model_ = nullptr;

ChipletSystem two_die_system(double p0, double p1) {
  return ChipletSystem(
      "t", 40.0, 40.0,
      {{"a", 8.0, 8.0, p0}, {"b", 8.0, 8.0, p1}}, {});
}

TEST_F(FastModelTest, TablesAreNonEmpty) {
  EXPECT_FALSE(model_->empty());
  EXPECT_FALSE(model_->self_table().empty());
  EXPECT_FALSE(model_->mutual_table().empty());
  EXPECT_FALSE(model_->self_droop().empty());
}

TEST_F(FastModelTest, SelfResistanceDecreasesWithDieArea) {
  // Larger dies spread the same power over more area -> lower R_self.
  const auto& t = model_->self_table();
  EXPECT_GT(t.lookup(3.0, 3.0), t.lookup(10.0, 10.0));
  EXPECT_GT(t.lookup(10.0, 10.0), t.lookup(20.0, 20.0));
}

TEST_F(FastModelTest, MutualResistanceDecreasesWithDistance) {
  const auto& t = model_->mutual_table();
  EXPECT_GT(t.lookup(2.0), t.lookup(10.0));
  EXPECT_GT(t.lookup(10.0), t.lookup(25.0));
  EXPECT_GT(t.lookup(25.0), 0.0);  // package floor keeps it positive
}

TEST_F(FastModelTest, ZeroPowerGivesAmbient) {
  const auto sys = two_die_system(0.0, 0.0);
  Floorplan fp(sys);
  fp.place(0, {4.0, 16.0});
  fp.place(1, {28.0, 16.0});
  const auto r = model_->evaluate(sys, fp);
  EXPECT_NEAR(r.max_temp_c, model_->ambient_c(), 1e-9);
}

TEST_F(FastModelTest, HotterNeighborRaisesTemperature) {
  // Keep the receiver away from package corners in both configurations so
  // boundary self-heating does not mask the neighbour-coupling difference.
  const auto sys = two_die_system(30.0, 10.0);
  Floorplan near_fp(sys);
  near_fp.place(0, {4.0, 16.0});
  near_fp.place(1, {13.0, 16.0});  // centers 9 mm apart
  Floorplan far_fp(sys);
  far_fp.place(0, {4.0, 16.0});
  far_fp.place(1, {26.0, 16.0});  // centers 22 mm apart
  const double t_near = model_->evaluate(sys, near_fp).chiplet_temp_c[1];
  const double t_far = model_->evaluate(sys, far_fp).chiplet_temp_c[1];
  EXPECT_GT(t_near, t_far + 0.5);
}

TEST_F(FastModelTest, LinearInPower) {
  const auto sys1 = two_die_system(10.0, 0.0);
  const auto sys2 = two_die_system(20.0, 0.0);
  Floorplan fp1(sys1);
  fp1.place(0, {16.0, 16.0});
  fp1.place(1, {0.0, 0.0});
  Floorplan fp2(sys2);
  fp2.place(0, {16.0, 16.0});
  fp2.place(1, {0.0, 0.0});
  const double rise1 =
      model_->evaluate(sys1, fp1).chiplet_temp_c[0] - model_->ambient_c();
  const double rise2 =
      model_->evaluate(sys2, fp2).chiplet_temp_c[0] - model_->ambient_c();
  EXPECT_NEAR(rise2, 2.0 * rise1, 1e-6);
}

TEST_F(FastModelTest, UnplacedChipletsReadAmbient) {
  const auto sys = two_die_system(30.0, 10.0);
  Floorplan fp(sys);
  fp.place(0, {16.0, 16.0});
  const auto r = model_->evaluate(sys, fp);
  EXPECT_DOUBLE_EQ(r.chiplet_temp_c[1], model_->ambient_c());
  EXPECT_GT(r.chiplet_temp_c[0], model_->ambient_c());
}

TEST_F(FastModelTest, AgreesWithGroundTruthOnRandomSystems) {
  // The headline Table II property at small scale: MAE within a few K.
  systems::SyntheticConfig sc;
  sc.interposer_w_mm = 40.0;
  sc.interposer_h_mm = 40.0;
  sc.min_power_w = 4.0;
  sc.max_power_w = 25.0;
  const systems::SyntheticSystemGenerator gen(sc);
  GridThermalSolver solver(*stack_, {.dims = {32, 32}});
  std::vector<double> pred, ref;
  for (int i = 0; i < 6; ++i) {
    const auto sys = gen.generate(500 + i);
    Rng rng(900 + i);
    const auto fp = systems::random_legal_floorplan(sys, rng);
    ref.push_back(solver.solve(sys, fp).max_temp_c);
    pred.push_back(model_->evaluate(sys, fp).max_temp_c);
  }
  const auto m = ErrorMetrics::compute(pred, ref);
  EXPECT_LT(m.mae, 3.0) << "fast model diverged from ground truth";
}

// evaluate() on the characterized tables, with images and without them (the
// paper's plain sum, run through the same pair-row entry over a zero floor),
// stays within 1e-9 C of the test-only oracle. CI also runs this suite on
// aarch64, where FMA is baseline.
TEST_F(FastModelTest, EvaluateMatchesOracleWithAndWithoutImages) {
  FastModelConfig plain_config = model_->config();
  plain_config.use_images = false;
  const FastThermalModel& images = *model_;
  const FastThermalModel plain(images.self_table(), images.mutual_table(),
                               images.ambient_c(), plain_config);
  systems::SyntheticConfig sc;
  sc.interposer_w_mm = 40.0;
  sc.interposer_h_mm = 40.0;
  const systems::SyntheticSystemGenerator gen(sc);
  for (const FastThermalModel* model : {&images, &plain}) {
    for (int i = 0; i < 4; ++i) {
      const auto sys = gen.generate(700 + i);
      Rng rng(800 + i);
      const auto fp = systems::random_legal_floorplan(sys, rng);
      const FastThermalResult got = model->evaluate(sys, fp);
      const FastThermalResult want = oracle::evaluate(*model, sys, fp);
      ASSERT_EQ(got.chiplet_temp_c.size(), want.chiplet_temp_c.size());
      for (std::size_t c = 0; c < got.chiplet_temp_c.size(); ++c) {
        EXPECT_NEAR(got.chiplet_temp_c[c], want.chiplet_temp_c[c], 1e-9)
            << "images=" << model->config().use_images << " system " << i
            << " chiplet " << c;
      }
    }
  }
}

TEST_F(FastModelTest, FasterThanGroundTruth) {
  const auto sys = two_die_system(20.0, 15.0);
  Floorplan fp(sys);
  fp.place(0, {4.0, 16.0});
  fp.place(1, {28.0, 16.0});
  GridThermalSolver solver(*stack_, {.dims = {32, 32}});
  Timer t1;
  solver.solve(sys, fp);
  const double slow = t1.seconds();
  Timer t2;
  for (int i = 0; i < 10; ++i) model_->evaluate(sys, fp);
  const double fast = t2.seconds() / 10.0;
  EXPECT_GT(slow / fast, 20.0) << "expected a large speedup";
}

TEST_F(FastModelTest, SaveLoadRoundtrip) {
  const auto path =
      (std::filesystem::temp_directory_path() / "rlplan_fast_model.txt")
          .string();
  model_->save(path);
  const auto loaded = FastThermalModel::load(path);
  const auto sys = two_die_system(22.0, 13.0);
  Floorplan fp(sys);
  fp.place(0, {5.0, 7.0});
  fp.place(1, {25.0, 20.0});
  const auto a = model_->evaluate(sys, fp);
  const auto b = loaded.evaluate(sys, fp);
  ASSERT_EQ(a.chiplet_temp_c.size(), b.chiplet_temp_c.size());
  for (std::size_t i = 0; i < a.chiplet_temp_c.size(); ++i) {
    EXPECT_NEAR(a.chiplet_temp_c[i], b.chiplet_temp_c[i], 1e-9);
  }
  std::filesystem::remove(path);
}

// Older files carry fields the model no longer has: v3 an image
// reflectivity after the use_images flag, v2 also a correct_mutual flag after
// receiver_probes. Loading either must fail loudly rather than misread the
// fields after them.
TEST_F(FastModelTest, RejectsV3AndV2ModelFiles) {
  const auto path =
      (std::filesystem::temp_directory_path() / "rlplan_fast_model_old.txt")
          .string();
  model_->save(path);
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  ASSERT_GE(lines.size(), 2u);
  ASSERT_EQ(lines[0], "fast_thermal_model v4");
  std::istringstream fields(lines[1]);
  std::vector<std::string> v3;
  for (std::string t; fields >> t;) v3.push_back(t);
  ASSERT_GE(v3.size(), 4u);
  v3.insert(v3.begin() + 4, "1");
  std::vector<std::string> v2 = v3;
  v2.insert(v2.begin() + 3, "0");
  for (const auto& [version, tokens] :
       {std::pair{"v3", v3}, std::pair{"v2", v2}}) {
    {
      std::ofstream out(path);
      out << "fast_thermal_model " << version << '\n';
      for (const std::string& t : tokens) out << t << ' ';
      out << '\n';
      for (std::size_t i = 2; i < lines.size(); ++i) out << lines[i] << '\n';
    }
    EXPECT_THROW(FastThermalModel::load(path), std::runtime_error) << version;
  }
  std::filesystem::remove(path);
}

// Every fault of a model file is a robust::CorruptArtifactError, found
// before the counts in the file size an allocation: a self table claiming
// 4000 x 4000 knots in an 80-byte file, a count of 2^62, an axis the
// table constructor rejects, and a saved model whose header carries a probe
// or sub-source count outside [1, 16] (46341 probes per axis overflowed
// probe_count(); smaller large counts sized per-die arrays by their square)
// or a negative mutual knot.
TEST_F(FastModelTest, CorruptModelFilesAreCorruptArtifacts) {
  const auto path =
      (std::filesystem::temp_directory_path() / "rlplan_fast_model_bad.txt")
          .string();
  const std::string header =
      "fast_thermal_model v4\n45 1 1 1 40 40 0 0 0\n";
  const std::string mutual = "mutual_resistance_table v1\n2\n0 10\n1 0.5\n";
  for (const std::string& self :
       {std::string("self_resistance_table v1\n4000 4000\n"),
        std::string("self_resistance_table v1\n2 4611686018427387904\n"),
        std::string("self_resistance_table v1\n2 2\n5 1\n1 2\n1 1\n1 1\n")}) {
    {
      std::ofstream out(path);
      out << header << self << mutual;
    }
    EXPECT_THROW(FastThermalModel::load(path), robust::CorruptArtifactError)
        << self;
  }
  model_->save(path);
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
  }
  ASSERT_GE(lines.size(), 2u);
  std::vector<std::string> fields;
  std::istringstream header_fields(lines[1]);
  for (std::string t; header_fields >> t;) fields.push_back(t);
  ASSERT_GE(fields.size(), 3u);
  // Field 1 is source_subsamples, field 2 receiver_probes.
  for (const auto& [field, value] :
       {std::pair{1, "100000"}, std::pair{1, "17"}, std::pair{2, "46341"},
        std::pair{2, "0"}, std::pair{2, "-1"}}) {
    std::vector<std::string> bad = fields;
    bad[static_cast<std::size_t>(field)] = value;
    {
      std::ofstream out(path);
      out << lines[0] << '\n';
      for (const std::string& t : bad) out << t << ' ';
      out << '\n';
      for (std::size_t i = 2; i < lines.size(); ++i) out << lines[i] << '\n';
    }
    EXPECT_THROW(FastThermalModel::load(path), robust::CorruptArtifactError)
        << "field " << field << " = " << value;
  }
  // A negative mutual knot: R_mutual is a rise per watt, and a model without
  // images would read such a table as chiplets colder than ambient.
  const auto mutual_at =
      std::find(lines.begin(), lines.end(), "mutual_resistance_table v1");
  ASSERT_LT(mutual_at + 3, lines.end());
  std::string& values = lines[static_cast<std::size_t>(
      mutual_at + 3 - lines.begin())];
  values = "-0.25 " + values.substr(values.find(' ') + 1);
  {
    std::ofstream out(path);
    for (const std::string& line : lines) out << line << '\n';
  }
  EXPECT_THROW(FastThermalModel::load(path), robust::CorruptArtifactError)
      << "negative mutual knot";
  std::filesystem::remove(path);
}

// A saved model truncated at seeded offsets or with a byte flipped (the
// count scaled by RLPLANNER_FUZZ_SCALE) loads or throws a
// std::runtime_error — never another exception type.
TEST_F(FastModelTest, DamagedModelFilesLoadOrThrow) {
  const auto path =
      (std::filesystem::temp_directory_path() / "rlplan_fast_model_fuzz.txt")
          .string();
  model_->save(path);
  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(text.empty());
  const int cases = 60 * rlplan::testing::fuzz_scale();
  for (int k = 0; k < cases; ++k) {
    const std::uint64_t seed =
        0xFA57ULL * 1000003ULL + static_cast<std::uint64_t>(k);
    Rng rng(seed);
    std::string bad = text;
    if (k % 2 == 0) {
      bad.resize(rng.uniform_int(std::uint64_t{text.size()}));
    } else {
      const std::size_t at = rng.uniform_int(std::uint64_t{text.size()});
      const auto mask = static_cast<unsigned char>(
          1 + rng.uniform_int(std::uint64_t{255}));
      bad[at] = static_cast<char>(static_cast<unsigned char>(bad[at]) ^ mask);
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << bad;
    }
    try {
      FastThermalModel::load(path);
    } catch (const std::runtime_error&) {
    } catch (...) {
      const std::string context =
          "DamagedModelFilesLoadOrThrow seed=" + std::to_string(seed);
      rlplan::testing::report_failure_seed("fast_model_test", context);
      FAIL() << context << ": threw something other than runtime_error";
    }
  }
  std::filesystem::remove(path);
}

TEST_F(FastModelTest, EmptyModelThrows) {
  const FastThermalModel empty;
  const auto sys = two_die_system(1.0, 1.0);
  Floorplan fp(sys);
  fp.place(0, {0.0, 0.0});
  fp.place(1, {20.0, 20.0});
  EXPECT_THROW(empty.evaluate(sys, fp), std::logic_error);
}

// Both per-axis counts must lie in [1, FastModelConfig::kMaxSubsamples];
// the error names the field.
TEST(FastModelConfig, RejectsBadSubsamples) {
  SelfResistanceTable self({1.0, 2.0}, {1.0, 2.0}, {{1.0, 1.0}, {1.0, 1.0}});
  MutualResistanceTable mutual({0.0, 1.0}, {1.0, 0.5});
  for (const int bad : {-1, 0, 17, 46341}) {
    for (const bool probes : {false, true}) {
      FastModelConfig config;
      (probes ? config.receiver_probes : config.source_subsamples) = bad;
      const std::string field =
          probes ? "receiver_probes" : "source_subsamples";
      try {
        FastThermalModel(self, mutual, 45.0, config);
        ADD_FAILURE() << field << " = " << bad << " accepted";
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
            << e.what();
      }
    }
  }
  for (const int good : {1, FastModelConfig::kMaxSubsamples}) {
    FastModelConfig config;
    config.source_subsamples = config.receiver_probes = good;
    EXPECT_EQ(FastThermalModel(self, mutual, 45.0, config).probe_count(),
              good * good);
  }
}

TEST(Characterizer, LinspaceAndGeomspace) {
  const auto lin = linspace(0.0, 10.0, 5);
  ASSERT_EQ(lin.size(), 5u);
  EXPECT_DOUBLE_EQ(lin[0], 0.0);
  EXPECT_DOUBLE_EQ(lin[2], 5.0);
  EXPECT_DOUBLE_EQ(lin[4], 10.0);

  const auto geo = geomspace(1.0, 16.0, 5);
  ASSERT_EQ(geo.size(), 5u);
  EXPECT_DOUBLE_EQ(geo[0], 1.0);
  EXPECT_NEAR(geo[2], 4.0, 1e-9);
  EXPECT_DOUBLE_EQ(geo[4], 16.0);

  EXPECT_THROW(linspace(5.0, 1.0, 3), std::invalid_argument);
  EXPECT_THROW(geomspace(0.0, 1.0, 3), std::invalid_argument);
  EXPECT_THROW(linspace(0.0, 1.0, 1), std::invalid_argument);
}

}  // namespace
}  // namespace rlplan::thermal
