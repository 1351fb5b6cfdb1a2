#include "thermal/resistance_table.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "fuzz_util.h"
#include "util/rng.h"

namespace rlplan::thermal {
namespace {

SelfResistanceTable make_self() {
  // R(w, h) = w + 10 h over a small grid (exactly bilinear).
  const std::vector<double> widths{2.0, 6.0, 10.0};
  const std::vector<double> heights{3.0, 9.0};
  std::vector<std::vector<double>> values(3, std::vector<double>(2));
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      values[i][j] = widths[i] + 10.0 * heights[j];
    }
  }
  return SelfResistanceTable(widths, heights, values);
}

TEST(SelfTable, ExactAtNodes) {
  const auto table = make_self();
  EXPECT_DOUBLE_EQ(table.lookup(2.0, 3.0), 32.0);
  EXPECT_DOUBLE_EQ(table.lookup(10.0, 9.0), 100.0);
}

TEST(SelfTable, BilinearIsExactForBilinearFunction) {
  const auto table = make_self();
  for (double w : {2.5, 4.0, 7.7, 9.9}) {
    for (double h : {3.1, 5.5, 8.9}) {
      EXPECT_NEAR(table.lookup(w, h), w + 10.0 * h, 1e-12);
    }
  }
}

TEST(SelfTable, ClampsOutsideRange) {
  const auto table = make_self();
  EXPECT_DOUBLE_EQ(table.lookup(0.5, 3.0), table.lookup(2.0, 3.0));
  EXPECT_DOUBLE_EQ(table.lookup(99.0, 9.0), table.lookup(10.0, 9.0));
  EXPECT_DOUBLE_EQ(table.lookup(6.0, -1.0), table.lookup(6.0, 3.0));
  EXPECT_DOUBLE_EQ(table.lookup(6.0, 100.0), table.lookup(6.0, 9.0));
}

TEST(SelfTable, RejectsMalformedAxes) {
  EXPECT_THROW(SelfResistanceTable({1.0}, {1.0, 2.0}, {{1.0, 2.0}}),
               std::invalid_argument);
  EXPECT_THROW(
      SelfResistanceTable({2.0, 1.0}, {1.0, 2.0},
                          {{1.0, 2.0}, {3.0, 4.0}}),
      std::invalid_argument);
  EXPECT_THROW(
      SelfResistanceTable({1.0, 2.0}, {1.0, 2.0}, {{1.0, 2.0}}),
      std::invalid_argument);
}

TEST(SelfTable, LookupOnEmptyThrows) {
  const SelfResistanceTable empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_THROW(empty.lookup(1.0, 1.0), std::logic_error);
}

TEST(SelfTable, SaveLoadRoundtrip) {
  const auto table = make_self();
  std::stringstream ss;
  table.save(ss);
  const auto loaded = SelfResistanceTable::load(ss);
  EXPECT_EQ(loaded.widths(), table.widths());
  EXPECT_EQ(loaded.heights(), table.heights());
  for (double w : {2.0, 5.5, 10.0}) {
    for (double h : {3.0, 6.2, 9.0}) {
      EXPECT_DOUBLE_EQ(loaded.lookup(w, h), table.lookup(w, h));
    }
  }
}

TEST(SelfTable, LoadRejectsBadHeader) {
  std::stringstream ss("not_a_table v1\n");
  EXPECT_THROW(SelfResistanceTable::load(ss), std::runtime_error);
}

MutualResistanceTable make_mutual() {
  return MutualResistanceTable({0.0, 10.0, 20.0, 40.0},
                               {1.0, 0.5, 0.3, 0.2});
}

TEST(MutualTable, ExactAtNodes) {
  const auto table = make_mutual();
  EXPECT_DOUBLE_EQ(table.lookup(0.0), 1.0);
  EXPECT_DOUBLE_EQ(table.lookup(20.0), 0.3);
}

TEST(MutualTable, LinearBetweenNodes) {
  const auto table = make_mutual();
  EXPECT_DOUBLE_EQ(table.lookup(5.0), 0.75);
  EXPECT_DOUBLE_EQ(table.lookup(30.0), 0.25);
}

TEST(MutualTable, ClampsAtEnds) {
  const auto table = make_mutual();
  EXPECT_DOUBLE_EQ(table.lookup(-5.0), 1.0);
  EXPECT_DOUBLE_EQ(table.lookup(100.0), 0.2);
}

TEST(MutualTable, RejectsMalformed) {
  EXPECT_THROW(MutualResistanceTable({1.0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(MutualResistanceTable({2.0, 1.0}, {1.0, 1.0}),
               std::invalid_argument);
  EXPECT_THROW(MutualResistanceTable({1.0, 2.0}, {1.0}),
               std::invalid_argument);
  // R_mutual is a rise per watt: a negative or NaN knot is malformed.
  EXPECT_THROW(MutualResistanceTable({1.0, 2.0}, {0.5, -1e-3}),
               std::invalid_argument);
  EXPECT_THROW(
      MutualResistanceTable({1.0, 2.0},
                            {std::numeric_limits<double>::quiet_NaN(), 0.5}),
      std::invalid_argument);
  EXPECT_NO_THROW(MutualResistanceTable({1.0, 2.0}, {0.5, 0.0}));
}

TEST(MutualTable, SaveLoadRoundtrip) {
  const auto table = make_mutual();
  std::stringstream ss;
  table.save(ss);
  const auto loaded = MutualResistanceTable::load(ss);
  for (double d : {0.0, 7.3, 15.0, 40.0, 50.0}) {
    EXPECT_DOUBLE_EQ(loaded.lookup(d), table.lookup(d));
  }
}

// Regression: knots built as front + i * step round in proportion to
// |front|, so a uniformity tolerance relative to the step alone rejected the
// resample of any table with an offset first knot and a fine step.
TEST(MutualTable, ResampleOfOffsetKnotsIsUniform) {
  const MutualResistanceTable table({10.0, 10.001, 20.0}, {0.7, 0.69, 0.2});
  ASSERT_FALSE(table.is_uniform());
  const auto resampled = table.resampled_uniform();
  EXPECT_EQ(resampled.distances().size(), 4096u);
  EXPECT_TRUE(resampled.is_uniform());
  EXPECT_GT(resampled.inv_step(), 0.0);
}

// Fuzz over hand-built non-uniform tables with offset (and negative) first
// knots, including gaps fine enough to hit the 4,096-point resample cap:
// the resample and its save -> load round trip must both be uniform, and
// the resample must keep the original range.
TEST(MutualTable, FuzzedResamplesAreUniform) {
  const int tables = 100 * rlplan::testing::fuzz_scale();
  Rng rng(0x7ab1e5ULL);
  for (int t = 0; t < tables; ++t) {
    const std::uint64_t seed = rng.next();
    Rng table_rng(seed);
    const std::size_t knots = 3 + table_rng.uniform_int(std::uint64_t{10});
    // Magnitudes up to 1e3 mm with steps down to 1e-4 mm: the first knot's
    // rounding dominates the step's there.
    double d = table_rng.uniform() < 0.2 ? -table_rng.uniform(0.0, 50.0)
                                         : table_rng.uniform(0.0, 1000.0);
    const double fine_gap = std::pow(10.0, table_rng.uniform(-4.0, 0.0));
    std::vector<double> distances, values;
    for (std::size_t k = 0; k < knots; ++k) {
      distances.push_back(d);
      values.push_back(table_rng.uniform(0.0, 1.0));
      d += k == 0 ? fine_gap : table_rng.uniform(fine_gap, 20.0);
    }
    const MutualResistanceTable table(distances, values);
    const auto resampled = table.resampled_uniform();
    const std::string context = "table_seed=" + std::to_string(seed);
    const bool resampled_ok =
        resampled.is_uniform() &&
        resampled.distances().front() == distances.front() &&
        resampled.distances().back() == distances.back();
    EXPECT_TRUE(resampled_ok) << context;
    std::stringstream ss;
    resampled.save(ss);
    const bool loaded_ok = MutualResistanceTable::load(ss).is_uniform();
    EXPECT_TRUE(loaded_ok) << context;
    if (!resampled_ok || !loaded_ok) {
      rlplan::testing::report_failure_seed("resistance_table_test", context);
      return;
    }
  }
}

}  // namespace
}  // namespace rlplan::thermal
