#include "nn/layers.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>

#include "nn_oracle.h"
#include "rl/policy_net.h"

namespace rlplan::nn {
namespace {

TEST(Linear, ForwardKnownValues) {
  Rng rng(1);
  Linear lin(2, 2, rng);
  // Overwrite weights deterministically: y = [x0 + 2 x1 + 0.5, 3 x0 - 1].
  lin.weight().value.at(0, 0) = 1.0f;
  lin.weight().value.at(0, 1) = 2.0f;
  lin.weight().value.at(1, 0) = 3.0f;
  lin.weight().value.at(1, 1) = 0.0f;
  lin.bias().value[0] = 0.5f;
  lin.bias().value[1] = -1.0f;
  const Tensor x({1, 2}, {2.0f, 3.0f});
  const Tensor y = lin.forward(x);
  EXPECT_FLOAT_EQ(y.at(0, 0), 8.5f);
  EXPECT_FLOAT_EQ(y.at(0, 1), 5.0f);
}

TEST(Linear, BatchForward) {
  Rng rng(2);
  Linear lin(3, 4, rng);
  const Tensor x({5, 3});
  const Tensor y = lin.forward(x);
  EXPECT_EQ(y.dim(0), 5u);
  EXPECT_EQ(y.dim(1), 4u);
}

TEST(Linear, ForwardRejectsBadShape) {
  Rng rng(3);
  Linear lin(3, 4, rng);
  EXPECT_THROW(lin.forward(Tensor({5, 2})), std::invalid_argument);
  EXPECT_THROW(lin.forward(Tensor({3})), std::invalid_argument);
}

TEST(Linear, BackwardShapes) {
  Rng rng(4);
  Linear lin(3, 4, rng);
  lin.forward(Tensor({2, 3}));
  const Tensor dx = lin.backward(Tensor({2, 4}));
  EXPECT_EQ(dx.dim(0), 2u);
  EXPECT_EQ(dx.dim(1), 3u);
}

// Empty batches are legal throughout the layer stack: forward produces the
// 0-row output shape, backward produces a 0-row input grad and accumulates
// nothing. (PPO minibatch slicing can legitimately produce an empty tail.)
TEST(Linear, ZeroBatchForwardBackwardAreNoOps) {
  Rng rng(14);
  Linear lin(3, 4, rng);
  const Tensor y = lin.forward(Tensor({0, 3}));
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{0, 4}));
  const Tensor dx = lin.backward(Tensor({0, 4}));
  EXPECT_EQ(dx.shape(), (std::vector<std::size_t>{0, 3}));
  for (Parameter* p : lin.parameters()) {
    for (std::size_t i = 0; i < p->grad.numel(); ++i) {
      EXPECT_EQ(p->grad[i], 0.0f) << p->name;
    }
  }
}

TEST(Conv2d, ZeroBatchForwardBackwardAreNoOps) {
  Rng rng(15);
  Conv2d conv(2, 3, 3, 1, 1, rng);
  const Tensor y = conv.forward(Tensor({0, 2, 6, 6}));
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{0, 3, 6, 6}));
  const Tensor dx = conv.backward(Tensor({0, 3, 6, 6}));
  EXPECT_EQ(dx.shape(), (std::vector<std::size_t>{0, 2, 6, 6}));
  for (Parameter* p : conv.parameters()) {
    for (std::size_t i = 0; i < p->grad.numel(); ++i) {
      EXPECT_EQ(p->grad[i], 0.0f) << p->name;
    }
  }
}

// Regression: Flatten::forward derived the inner size as numel() / dim(0),
// which divides by zero on an empty batch. It is now the product of the
// non-batch dims.
TEST(Flatten, ZeroBatchRoundTrip) {
  Flatten flat;
  const Tensor y = flat.forward(Tensor({0, 3, 4, 4}));
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{0, 48}));
  const Tensor back = flat.backward(y);
  EXPECT_EQ(back.shape(), (std::vector<std::size_t>{0, 3, 4, 4}));
}

// Regression: an input smaller than the kernel window made out_size() wrap
// around, so forward wrote far outside its output (a heap-buffer-overflow
// under ASan). It is now rejected; padding counts toward the window.
TEST(Conv2d, RejectsInputSmallerThanKernel) {
  Rng rng(16);
  Conv2d conv(1, 1, /*kernel=*/5, /*stride=*/1, /*padding=*/0, rng);
  EXPECT_THROW(conv.forward(Tensor({1, 1, 3, 3})), std::invalid_argument);
  EXPECT_THROW(conv.forward(Tensor({1, 1, 5, 4})), std::invalid_argument);
  EXPECT_EQ(conv.forward(Tensor({1, 1, 5, 5})).shape(),
            (std::vector<std::size_t>{1, 1, 1, 1}));
  Conv2d padded(1, 1, 5, 1, /*padding=*/1, rng);
  EXPECT_EQ(padded.forward(Tensor({1, 1, 3, 3})).shape(),
            (std::vector<std::size_t>{1, 1, 1, 1}));
}

// Regression: grid 0 passed the multiple-of-4 check and the forward pass then
// crashed in conv2, whose out_size(0) wrapped to 2^63.
TEST(PolicyValueNet, RejectsGridZero) {
  Rng rng(17);
  rl::PolicyNetConfig config;
  config.grid = 0;
  EXPECT_THROW(
      {
        rl::PolicyValueNet net(config, rng);
        net.forward(Tensor({1, config.channels_in, 0, 0}));
      },
      std::invalid_argument);
  // A multiple of 4 whose square wraps (a --grid=-4 flag after the size_t
  // cast) must fail at construction, before any layer is sized from it.
  config.grid = std::numeric_limits<std::size_t>::max() - 3;
  EXPECT_THROW(rl::PolicyValueNet(config, rng), std::invalid_argument);
}

TEST(Conv2d, OutputShapeStride1) {
  Rng rng(5);
  Conv2d conv(2, 4, 3, 1, 1, rng);
  const Tensor y = conv.forward(Tensor({1, 2, 8, 8}));
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{1, 4, 8, 8}));
}

TEST(Conv2d, OutputShapeStride2) {
  Rng rng(6);
  Conv2d conv(3, 8, 3, 2, 1, rng);
  const Tensor y = conv.forward(Tensor({2, 3, 16, 16}));
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 8, 8, 8}));
}

TEST(Conv2d, IdentityKernelReproducesInput) {
  Rng rng(7);
  Conv2d conv(1, 1, 3, 1, 1, rng);
  conv.parameters()[0]->value.fill(0.0f);
  conv.parameters()[1]->value.fill(0.0f);
  // Center tap = 1 -> identity.
  Tensor& w = conv.parameters()[0]->value;
  w.at(0, 0, 1, 1) = 1.0f;
  Tensor x({1, 1, 4, 4});
  for (std::size_t i = 0; i < x.numel(); ++i) x[i] = static_cast<float>(i);
  const Tensor y = conv.forward(x);
  for (std::size_t i = 0; i < x.numel(); ++i) EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(Conv2d, PaddingZerosAtBorder) {
  Rng rng(8);
  Conv2d conv(1, 1, 3, 1, 1, rng);
  conv.parameters()[0]->value.fill(1.0f);  // sum of 3x3 neighbourhood
  conv.parameters()[1]->value.fill(0.0f);
  Tensor x = Tensor::full({1, 1, 3, 3}, 1.0f);
  const Tensor y = conv.forward(x);
  EXPECT_FLOAT_EQ(y.at(0, 0, 1, 1), 9.0f);  // full neighbourhood
  EXPECT_FLOAT_EQ(y.at(0, 0, 0, 0), 4.0f);  // corner: 2x2 valid
}

TEST(ReLU, ForwardBackward) {
  oracle::ReLU relu;
  const Tensor x({1, 4}, {-1.0f, 0.0f, 2.0f, -3.0f});
  const Tensor y = relu.forward(x);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_FLOAT_EQ(y[2], 2.0f);
  const Tensor dy = Tensor::full({1, 4}, 1.0f);
  const Tensor dx = relu.backward(dy);
  EXPECT_FLOAT_EQ(dx[0], 0.0f);  // blocked: input < 0
  EXPECT_FLOAT_EQ(dx[1], 0.0f);  // blocked at exactly 0
  EXPECT_FLOAT_EQ(dx[2], 1.0f);
}

// The epilogue's edge cases against the standalone module it replaced: a
// NaN sum passes forward and passes its gradient back, −0.0 passes forward
// and blocks its gradient, as do negative and exactly-zero sums. Sums
// [NaN, −0.0, −2, 0, 3] come from x = 1 and a 1-input layer.
TEST(ReLU, EpilogueMatchesModuleOnNanAndSignedZero) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> w = {1.0f, -0.0f, 1.0f, 0.0f, 1.0f};
  const std::vector<float> b = {nan, -0.0f, -3.0f, 0.0f, 2.0f};
  const auto set = [&](const std::vector<Parameter*>& params) {
    for (std::size_t o = 0; o < 5; ++o) {
      params[0]->value[o] = w[o];
      params[1]->value[o] = b[o];
    }
  };
  const auto bits = [](float v) { return std::bit_cast<std::uint32_t>(v); };
  const auto expect_same = [&](const Tensor& got, const Tensor& want,
                               const char* what) {
    ASSERT_EQ(got.numel(), want.numel()) << what;
    for (std::size_t i = 0; i < got.numel(); ++i) {
      EXPECT_EQ(bits(got[i]), bits(want[i])) << what << "[" << i << "]";
    }
  };
  Rng rng(14);
  Linear fused(1, 5, rng, "fused", Activation::kReLU);
  Conv2d fused_conv(1, 5, 1, 1, 0, rng, "fused_conv", Activation::kReLU);
  Sequential reference;
  reference.add(std::make_unique<Linear>(1, 5, rng, "plain"));
  reference.add(std::make_unique<oracle::ReLU>());
  set(fused.parameters());
  set(fused_conv.parameters());
  set(reference.parameters());

  const Tensor y = fused.forward(Tensor({1, 1}, {1.0f}));
  Tensor y_conv = fused_conv.forward(Tensor({1, 1, 1, 1}, {1.0f}));
  y_conv.reshape({1, 5});
  const Tensor want = reference.forward(Tensor({1, 1}, {1.0f}));
  EXPECT_TRUE(std::isnan(want[0]));
  EXPECT_TRUE(std::signbit(want[1]));
  expect_same(y, want, "linear y");
  expect_same(y_conv, want, "conv y");

  const Tensor dy = Tensor::full({1, 5}, 1.0f);
  const Tensor dx = fused.backward(dy);
  const Tensor dx_conv = fused_conv.backward(Tensor::full({1, 5, 1, 1}, 1.0f));
  const Tensor want_dx = reference.backward(dy);
  expect_same(dx, want_dx, "linear dx");
  expect_same(dx_conv, want_dx, "conv dx");
  const std::vector<float> want_db = {1.0f, 0.0f, 0.0f, 0.0f, 1.0f};
  for (std::size_t o = 0; o < 5; ++o) {
    EXPECT_EQ(fused.bias().grad[o], want_db[o]) << o;
    EXPECT_EQ(fused_conv.parameters()[1]->grad[o], want_db[o]) << o;
    for (std::size_t k = 0; k < 2; ++k) {
      EXPECT_EQ(bits(fused.parameters()[k]->grad[o]),
                bits(reference.parameters()[k]->grad[o]))
          << "linear param " << k << "[" << o << "]";
      EXPECT_EQ(bits(fused_conv.parameters()[k]->grad[o]),
                bits(reference.parameters()[k]->grad[o]))
          << "conv param " << k << "[" << o << "]";
    }
  }
}

TEST(Tanh, ForwardBackward) {
  oracle::Tanh tanh_layer;
  const Tensor x({1, 2}, {0.0f, 100.0f});
  const Tensor y = tanh_layer.forward(x);
  EXPECT_FLOAT_EQ(y[0], 0.0f);
  EXPECT_NEAR(y[1], 1.0f, 1e-6);
  const Tensor dx = tanh_layer.backward(Tensor::full({1, 2}, 1.0f));
  EXPECT_FLOAT_EQ(dx[0], 1.0f);        // 1 - tanh(0)^2
  EXPECT_NEAR(dx[1], 0.0f, 1e-6);      // saturated
}

TEST(Flatten, RoundTrip) {
  Flatten flat;
  Tensor x({2, 3, 4, 4});
  const Tensor y = flat.forward(x);
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{2, 48}));
  const Tensor back = flat.backward(y);
  EXPECT_EQ(back.shape(), x.shape());
}

TEST(Sequential, ChainsAndCollectsParameters) {
  Rng rng(9);
  Sequential seq;
  seq.add(std::make_unique<Linear>(4, 8, rng));
  seq.add(std::make_unique<oracle::ReLU>());
  seq.add(std::make_unique<Linear>(8, 2, rng));
  EXPECT_EQ(seq.size(), 3u);
  EXPECT_EQ(seq.parameters().size(), 4u);  // two weights + two biases
  const Tensor y = seq.forward(Tensor({3, 4}));
  EXPECT_EQ(y.shape(), (std::vector<std::size_t>{3, 2}));
  const Tensor dx = seq.backward(Tensor({3, 2}));
  EXPECT_EQ(dx.shape(), (std::vector<std::size_t>{3, 4}));
}

TEST(Module, ZeroGradClearsAccumulations) {
  Rng rng(10);
  Linear lin(2, 2, rng);
  lin.forward(Tensor::full({1, 2}, 1.0f));
  lin.backward(Tensor::full({1, 2}, 1.0f));
  bool any_nonzero = false;
  for (const Parameter* p : lin.parameters()) {
    for (std::size_t i = 0; i < p->grad.numel(); ++i) {
      if (p->grad[i] != 0.0f) any_nonzero = true;
    }
  }
  EXPECT_TRUE(any_nonzero);
  lin.zero_grad();
  for (Parameter* p : lin.parameters()) {
    for (std::size_t i = 0; i < p->grad.numel(); ++i) {
      EXPECT_EQ(p->grad[i], 0.0f);
    }
  }
}

TEST(Initialization, DeterministicGivenSeed) {
  Rng rng1(42), rng2(42);
  Linear a(8, 8, rng1), b(8, 8, rng2);
  for (std::size_t i = 0; i < a.weight().value.numel(); ++i) {
    EXPECT_EQ(a.weight().value[i], b.weight().value[i]);
  }
}

TEST(Initialization, KaimingBoundScalesWithFanIn) {
  EXPECT_GT(kaiming_bound(4), kaiming_bound(64));
  EXPECT_FLOAT_EQ(kaiming_bound(6), 1.0f);
}

}  // namespace
}  // namespace rlplan::nn
