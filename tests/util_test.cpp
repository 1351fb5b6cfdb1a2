#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "util/rng.h"
#include "util/stats.h"
#include "util/timer.h"

namespace rlplan {
namespace {

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntBounds) {
  Rng rng(3);
  bool saw_zero = false, saw_max = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(std::uint64_t{7});
    EXPECT_LT(v, 7u);
    if (v == 0) saw_zero = true;
    if (v == 6) saw_max = true;
  }
  EXPECT_TRUE(saw_zero);
  EXPECT_TRUE(saw_max);
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(std::int64_t{-2}, std::int64_t{3});
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.03);
  EXPECT_NEAR(s.stddev(), 1.0, 0.03);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(42);
  Rng child = a.split();
  // The child stream should not replicate the parent stream.
  Rng b(42);
  b.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (child.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyIsSafe) {
  const RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  RunningStats a, b, all;
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    const double x = rng.uniform(-5, 5);
    a.add(x);
    all.add(x);
  }
  for (int i = 0; i < 57; ++i) {
    const double x = rng.normal(2.0, 3.0);
    b.add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(ErrorMetrics, KnownValues) {
  const std::vector<double> pred{1.0, 2.0, 3.0};
  const std::vector<double> ref{1.5, 2.0, 2.0};
  const auto m = ErrorMetrics::compute(pred, ref);
  EXPECT_NEAR(m.mse, (0.25 + 0.0 + 1.0) / 3.0, 1e-12);
  EXPECT_NEAR(m.rmse, std::sqrt(m.mse), 1e-12);
  EXPECT_NEAR(m.mae, 0.5, 1e-12);
  // MAPE: (0.5/1.5 + 0 + 1/2)/3 * 100
  EXPECT_NEAR(m.mape, 100.0 * (0.5 / 1.5 + 0.5) / 3.0, 1e-9);
}

TEST(ErrorMetrics, PerfectPrediction) {
  const std::vector<double> v{3.0, 4.0, 5.0};
  const auto m = ErrorMetrics::compute(v, v);
  EXPECT_DOUBLE_EQ(m.mse, 0.0);
  EXPECT_DOUBLE_EQ(m.mae, 0.0);
  EXPECT_DOUBLE_EQ(m.mape, 0.0);
}

TEST(ErrorMetrics, EmptyInput) {
  const auto m = ErrorMetrics::compute({}, {});
  EXPECT_EQ(m.n, 0u);
  EXPECT_DOUBLE_EQ(m.mse, 0.0);
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  // Just verify it is monotone and non-negative.
  const double a = t.seconds();
  const double b = t.seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  t.reset();
  EXPECT_LT(t.seconds(), 1.0);
}

}  // namespace
}  // namespace rlplan
