#include "rl/rnd.h"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

namespace rlplan::rl {
namespace {

nn::Tensor random_state(Rng& rng, std::size_t c = 3, std::size_t g = 8) {
  nn::Tensor t({c, g, g});
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(0.0, 1.0));
  }
  return t;
}

// Regression: grid 0 passed the multiple-of-4 check, and scoring a state
// then crashed inside the encoder's convolutions.
TEST(Rnd, RejectsGridZero) {
  Rng rng(10);
  EXPECT_THROW(
      {
        RndBonus rnd(3, 0, {}, rng);
        rnd.raw_error(nn::Tensor({3, 0, 0}));
      },
      std::invalid_argument);
  EXPECT_THROW(make_rnd_encoder(3, 0, {}, rng, "rnd"), std::invalid_argument);
  // A multiple of 4 whose square wraps (a --grid=-4 flag after the size_t
  // cast).
  const std::size_t wrapping = std::numeric_limits<std::size_t>::max() - 3;
  EXPECT_THROW(RndBonus(3, wrapping, {}, rng), std::invalid_argument);
  EXPECT_THROW(make_rnd_encoder(3, wrapping, {}, rng, "rnd"),
               std::invalid_argument);
}

TEST(Rnd, PredictionErrorPositiveForFreshStates) {
  Rng rng(1);
  RndBonus rnd(3, 8, {}, rng);
  Rng sr(2);
  const auto s = random_state(sr);
  EXPECT_GT(rnd.raw_error(s), 0.0);
}

TEST(Rnd, TrainingReducesErrorOnSeenStates) {
  Rng rng(3);
  RndConfig config;
  config.predictor_lr = 3e-3f;
  RndBonus rnd(3, 8, config, rng);
  Rng sr(4);
  std::vector<nn::Tensor> states;
  for (int i = 0; i < 12; ++i) states.push_back(random_state(sr));
  std::vector<const nn::Tensor*> ptrs;
  for (const auto& s : states) ptrs.push_back(&s);

  const double before = rnd.raw_error(states[0]);
  Rng tr(5);
  for (int epoch = 0; epoch < 30; ++epoch) rnd.train(ptrs, tr);
  const double after = rnd.raw_error(states[0]);
  EXPECT_LT(after, before * 0.8)
      << "predictor failed to distill the target on seen states";
}

TEST(Rnd, NovelStatesScoreHigherThanTrainedStates) {
  Rng rng(6);
  RndConfig config;
  config.predictor_lr = 3e-3f;
  RndBonus rnd(3, 8, config, rng);
  Rng sr(7);
  std::vector<nn::Tensor> seen;
  for (int i = 0; i < 10; ++i) seen.push_back(random_state(sr));
  std::vector<const nn::Tensor*> ptrs;
  for (const auto& s : seen) ptrs.push_back(&s);
  Rng tr(8);
  for (int epoch = 0; epoch < 40; ++epoch) rnd.train(ptrs, tr);

  double seen_err = 0.0;
  for (const auto& s : seen) seen_err += rnd.raw_error(s);
  seen_err /= static_cast<double>(seen.size());

  // Novel states drawn from a shifted distribution.
  Rng nr(1234);
  double novel_err = 0.0;
  for (int i = 0; i < 10; ++i) {
    auto s = random_state(nr);
    s.scale_(-1.0f);  // outside the seen distribution
    novel_err += rnd.raw_error(s);
  }
  novel_err /= 10.0;
  EXPECT_GT(novel_err, seen_err);
}

TEST(Rnd, BonusIsNormalizedAndClipped) {
  Rng rng(9);
  RndConfig config;
  config.bonus_clip = 2.0f;
  RndBonus rnd(3, 8, config, rng);
  Rng sr(10);
  for (int i = 0; i < 50; ++i) {
    const float b = rnd.bonus(random_state(sr));
    EXPECT_GE(b, 0.0f);
    EXPECT_LE(b, 2.0f);
  }
}

TEST(Rnd, TargetNetworkIsFrozen) {
  Rng rng(11);
  RndBonus rnd(3, 8, {}, rng);
  Rng sr(12);
  const auto s = random_state(sr);
  // Training must change the predictor error but the target embedding is
  // fixed: repeated raw_error calls without training are identical.
  const double e1 = rnd.raw_error(s);
  const double e2 = rnd.raw_error(s);
  EXPECT_DOUBLE_EQ(e1, e2);
}

TEST(Rnd, EmptyTrainBatchIsSafe) {
  Rng rng(13);
  RndBonus rnd(3, 8, {}, rng);
  Rng tr(14);
  EXPECT_DOUBLE_EQ(rnd.train({}, tr), 0.0);
}

TEST(Rnd, EncoderRejectsBadGrid) {
  Rng rng(15);
  EXPECT_THROW(make_rnd_encoder(3, 10, {}, rng, "x"), std::invalid_argument);
}

}  // namespace
}  // namespace rlplan::rl
