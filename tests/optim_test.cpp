#include "nn/optim.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "parallel/thread_pool.h"
#include "util/rng.h"

namespace rlplan::nn {
namespace {

TEST(Adam, MinimizesQuadratic) {
  // Minimize f(w) = sum (w - target)^2 by hand-fed gradients.
  Parameter w("w", {3});
  w.value[0] = 5.0f;
  w.value[1] = -3.0f;
  w.value[2] = 0.5f;
  const float target[3] = {1.0f, 2.0f, -1.0f};

  AdamConfig config;
  config.lr = 0.1f;
  Adam opt({&w}, config);
  for (int step = 0; step < 500; ++step) {
    opt.zero_grad();
    for (int i = 0; i < 3; ++i) {
      w.grad[i] = 2.0f * (w.value[i] - target[i]);
    }
    opt.step();
  }
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(w.value[i], target[i], 1e-2);
  EXPECT_EQ(opt.step_count(), 500);
}

TEST(Adam, FirstStepIsLrSizedRegardlessOfGradScale) {
  // Adam's bias-corrected first update is ~lr * sign(g).
  for (float g : {0.001f, 1.0f, 1000.0f}) {
    Parameter w("w", {1});
    AdamConfig config;
    config.lr = 0.01f;
    Adam opt({&w}, config);
    w.grad[0] = g;
    opt.step();
    EXPECT_NEAR(w.value[0], -0.01f, 1e-4) << "grad scale " << g;
  }
}

TEST(Adam, WeightDecayPullsTowardZero) {
  Parameter w("w", {1});
  w.value[0] = 1.0f;
  AdamConfig config;
  config.lr = 0.05f;
  config.weight_decay = 0.1f;
  Adam opt({&w}, config);
  for (int i = 0; i < 100; ++i) {
    opt.zero_grad();  // zero task gradient: decay only
    opt.step();
  }
  EXPECT_LT(std::abs(w.value[0]), 1.0f);
}

TEST(Adam, SetLr) {
  Parameter w("w", {1});
  Adam opt({&w});
  opt.set_lr(0.5f);
  EXPECT_FLOAT_EQ(opt.lr(), 0.5f);
}

TEST(ClipGradNorm, NoClipBelowThreshold) {
  Parameter w("w", {2});
  w.grad[0] = 0.3f;
  w.grad[1] = 0.4f;  // norm 0.5
  const double norm = clip_grad_norm({&w}, 1.0);
  EXPECT_NEAR(norm, 0.5, 1e-6);
  EXPECT_FLOAT_EQ(w.grad[0], 0.3f);
}

TEST(ClipGradNorm, RescalesAboveThreshold) {
  Parameter w("w", {2});
  w.grad[0] = 3.0f;
  w.grad[1] = 4.0f;  // norm 5
  const double norm = clip_grad_norm({&w}, 1.0);
  EXPECT_NEAR(norm, 5.0, 1e-6);
  EXPECT_NEAR(std::hypot(w.grad[0], w.grad[1]), 1.0, 1e-5);
  // Direction preserved.
  EXPECT_NEAR(w.grad[1] / w.grad[0], 4.0 / 3.0, 1e-5);
}

TEST(ClipGradNorm, GlobalAcrossParameters) {
  Parameter a("a", {1}), b("b", {1});
  a.grad[0] = 3.0f;
  b.grad[0] = 4.0f;
  clip_grad_norm({&a, &b}, 1.0);
  EXPECT_NEAR(std::hypot(a.grad[0], b.grad[0]), 1.0, 1e-5);
}

TEST(ClipGradNorm, ZeroGradientsSafe) {
  Parameter w("w", {3});
  const double norm = clip_grad_norm({&w}, 1.0);
  EXPECT_DOUBLE_EQ(norm, 0.0);
}

/// Parameters of sizes that span one, several and a partial block of Adam's
/// and the clip's element blocks, with random values and gradients.
std::vector<std::unique_ptr<Parameter>> random_parameters(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::unique_ptr<Parameter>> params;
  for (const std::size_t n : {3u, 8192u, 20000u, 8193u, 1u, 700u}) {
    auto p = std::make_unique<Parameter>("p" + std::to_string(n),
                                         std::vector<std::size_t>{n});
    for (std::size_t i = 0; i < n; ++i) {
      p->value[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
      p->grad[i] = static_cast<float>(rng.uniform(-2.0, 2.0));
    }
    params.push_back(std::move(p));
  }
  return params;
}

std::vector<Parameter*> raw(const std::vector<std::unique_ptr<Parameter>>& v) {
  std::vector<Parameter*> out;
  for (const auto& p : v) out.push_back(p.get());
  return out;
}

BatchParallelFor executor_over(parallel::ThreadPool& pool) {
  return [&pool](std::size_t n, const std::function<void(std::size_t)>& fn) {
    pool.parallel_for(n, fn);
  };
}

void expect_same_bits(const Tensor& got, const Tensor& want,
                      const std::string& what) {
  ASSERT_EQ(got.numel(), want.numel()) << what;
  for (std::size_t i = 0; i < got.numel(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
              std::bit_cast<std::uint32_t>(want[i]))
        << what << "[" << i << "]";
  }
}

TEST(Adam, StepOnLanesIsBitIdenticalToSerial) {
  for (const float decay : {0.0f, 0.01f}) {
    const AdamConfig config{.lr = 1e-2f, .weight_decay = decay};
    const auto serial_params = random_parameters(11);
    Adam serial(raw(serial_params), config);
    for (int step = 0; step < 3; ++step) serial.step();
    for (const std::size_t lanes : {2u, 3u, 4u}) {
      SCOPED_TRACE("lanes " + std::to_string(lanes) + " decay " +
                   std::to_string(decay));
      parallel::ThreadPool pool(lanes);
      const auto params = random_parameters(11);
      Adam adam(raw(params), config);
      adam.set_executor(executor_over(pool));
      for (int step = 0; step < 3; ++step) adam.step();
      const Adam::Snapshot got = adam.snapshot();
      const Adam::Snapshot want = serial.snapshot();
      EXPECT_EQ(got.t, want.t);
      for (std::size_t k = 0; k < params.size(); ++k) {
        expect_same_bits(params[k]->value, serial_params[k]->value,
                         params[k]->name + " value");
        expect_same_bits(got.m[k], want.m[k], params[k]->name + " m");
        expect_same_bits(got.v[k], want.v[k], params[k]->name + " v");
      }
    }
  }
}

TEST(ClipGradNorm, OnLanesIsBitIdenticalToSerial) {
  // Below the norm (no rescale) and far above it (every block rescaled).
  for (const double max_norm : {1e6, 0.5}) {
    const auto serial_params = random_parameters(12);
    const double serial_norm = clip_grad_norm(raw(serial_params), max_norm);
    for (const std::size_t lanes : {2u, 3u, 4u}) {
      SCOPED_TRACE("lanes " + std::to_string(lanes) + " max_norm " +
                   std::to_string(max_norm));
      parallel::ThreadPool pool(lanes);
      const auto params = random_parameters(12);
      const double norm =
          clip_grad_norm(raw(params), max_norm, executor_over(pool));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(norm),
                std::bit_cast<std::uint64_t>(serial_norm));
      for (std::size_t k = 0; k < params.size(); ++k) {
        expect_same_bits(params[k]->grad, serial_params[k]->grad,
                         params[k]->name + " grad");
      }
    }
  }
}

}  // namespace
}  // namespace rlplan::nn
