// Unit coverage for the quantile/summary helpers in util/stats.h (the
// obs-layer snapshot math rides on these).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "util/stats.h"

namespace rlplan {
namespace {

TEST(Quantile, ExactSmallN) {
  // R-7 (numpy default): h = q * (n - 1), linear interpolation.
  const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 1.75);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile(v, 0.9), 3.7);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
}

TEST(Quantile, InputOrderIrrelevant) {
  const std::vector<double> shuffled = {3.0, 1.0, 4.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(shuffled, 0.5), 2.5);
}

TEST(Quantile, SingleElement) {
  const std::vector<double> v = {42.0};
  for (const double q : {0.0, 0.1, 0.5, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(quantile(v, q), 42.0);
  }
}

TEST(Quantile, RejectsBadInput) {
  const std::vector<double> empty;
  EXPECT_THROW(quantile(empty, 0.5), std::invalid_argument);

  const std::vector<double> with_nan = {
      1.0, std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW(quantile(with_nan, 0.5), std::invalid_argument);

  const std::vector<double> v = {1.0, 2.0};
  EXPECT_THROW(quantile(v, -0.1), std::invalid_argument);
  EXPECT_THROW(quantile(v, 1.1), std::invalid_argument);
  EXPECT_THROW(quantile(v, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(HistogramQuantile, InterpolatesWithinBucket) {
  // Buckets: (0,1], (1,2], (2,4], (4,inf) with one sample each (no overflow).
  const std::vector<double> bounds = {1.0, 2.0, 4.0};
  const std::vector<std::uint64_t> counts = {1, 1, 1, 0};
  // rank = 1.5 of 3 lands mid-way through the (1,2] bucket.
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, counts, 0.5), 1.5);
  // q=1 is the very end of the last occupied bucket.
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, counts, 1.0), 4.0);
}

TEST(HistogramQuantile, FirstBucketStartsAtZero) {
  const std::vector<double> bounds = {1.0, 2.0, 4.0};
  const std::vector<std::uint64_t> counts = {2, 0, 0, 0};
  // rank = 1 of 2: half-way through (0,1].
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, counts, 0.5), 0.5);
}

TEST(HistogramQuantile, OverflowClampsToLastBound) {
  const std::vector<double> bounds = {1.0, 2.0, 4.0};
  const std::vector<std::uint64_t> counts = {0, 0, 0, 5};
  // All mass beyond the last bound: the estimate saturates at that bound.
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, counts, 0.5), 4.0);
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, counts, 0.99), 4.0);
}

TEST(HistogramQuantile, EmptyHistogramIsZero) {
  const std::vector<double> bounds = {1.0, 2.0};
  const std::vector<std::uint64_t> counts = {0, 0, 0};
  EXPECT_DOUBLE_EQ(histogram_quantile(bounds, counts, 0.5), 0.0);
}

TEST(HistogramQuantile, RejectsBadShapes) {
  const std::vector<double> bounds = {1.0, 2.0};
  const std::vector<std::uint64_t> ok = {1, 1, 1};
  EXPECT_THROW(histogram_quantile(bounds, ok, -0.5), std::invalid_argument);
  const std::vector<std::uint64_t> short_counts = {1, 1};
  EXPECT_THROW(histogram_quantile(bounds, short_counts, 0.5),
               std::invalid_argument);
  const std::vector<double> no_bounds;
  const std::vector<std::uint64_t> one = {1};
  EXPECT_THROW(histogram_quantile(no_bounds, one, 0.5), std::invalid_argument);
}

}  // namespace
}  // namespace rlplan
