// Finite-difference gradient verification for every trainable layer.
//
// The from-scratch backward passes are the highest-risk code in the RL
// stack; these tests compare analytic gradients against central differences
// on small layers with a randomized linear readout loss.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>

#include "nn/layers.h"
#include "nn_oracle.h"
#include "rl/policy_net.h"

namespace rlplan::nn {
namespace {

/// Loss = sum(readout .* module(x)); returns analytic input grad and fills
/// parameter grads. The readout is fixed random so every output element
/// participates with a distinct weight.
double loss_of(Module& m, const Tensor& x, const Tensor& readout,
               Tensor* dx_out = nullptr) {
  const Tensor y = m.forward(x);
  double loss = 0.0;
  for (std::size_t i = 0; i < y.numel(); ++i) {
    loss += static_cast<double>(readout[i]) * y[i];
  }
  if (dx_out != nullptr) {
    m.zero_grad();
    *dx_out = m.backward(readout);
  }
  return loss;
}

void check_gradients(Module& m, Tensor x, std::uint64_t seed,
                     float tolerance = 2e-2f) {
  Rng rng(seed);
  // Randomize input so ReLU-style kinks are unlikely to sit at 0 exactly.
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  Tensor probe = m.forward(x);
  Tensor readout(probe.shape());
  for (std::size_t i = 0; i < readout.numel(); ++i) {
    readout[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }

  Tensor dx;
  loss_of(m, x, readout, &dx);

  constexpr float kEps = 1e-2f;
  // Parameter gradients (subsample large tensors for speed).
  for (Parameter* p : m.parameters()) {
    const std::size_t stride = std::max<std::size_t>(1, p->value.numel() / 24);
    for (std::size_t i = 0; i < p->value.numel(); i += stride) {
      const float orig = p->value[i];
      const float analytic = p->grad[i];
      p->value[i] = orig + kEps;
      const double up = loss_of(m, x, readout);
      p->value[i] = orig - kEps;
      const double down = loss_of(m, x, readout);
      p->value[i] = orig;
      const auto numeric = static_cast<float>((up - down) / (2.0 * kEps));
      EXPECT_NEAR(analytic, numeric,
                  std::max(tolerance * std::abs(numeric), 5e-3f))
          << p->name << "[" << i << "]";
    }
  }
  // Input gradients.
  const std::size_t stride = std::max<std::size_t>(1, x.numel() / 24);
  for (std::size_t i = 0; i < x.numel(); i += stride) {
    const float orig = x[i];
    const float analytic = dx[i];
    Tensor xp = x;
    xp[i] = orig + kEps;
    const double up = loss_of(m, xp, readout);
    Tensor xm = x;
    xm[i] = orig - kEps;
    const double down = loss_of(m, xm, readout);
    const auto numeric = static_cast<float>((up - down) / (2.0 * kEps));
    EXPECT_NEAR(analytic, numeric,
                std::max(tolerance * std::abs(numeric), 5e-3f))
        << "dx[" << i << "]";
  }
}

TEST(GradCheck, Linear) {
  Rng rng(21);
  Linear lin(5, 4, rng);
  check_gradients(lin, Tensor({3, 5}), 100);
}

TEST(GradCheck, LinearSingleSample) {
  Rng rng(22);
  Linear lin(7, 1, rng);
  check_gradients(lin, Tensor({1, 7}), 101);
}

// Linear backward (the row kernel Conv2d shares) must be bit-identical to the
// naive o-at-a-time reference, including the g == 0 skip semantics (a zero
// gradient leaves its rows untouched rather than adding +0.0f).
TEST(GradCheck, TiledLinearBackwardIsBitIdenticalToNaive) {
  Rng rng(31);
  const std::size_t in = 9;
  for (const std::size_t out :
       {std::size_t{3}, std::size_t{8}, std::size_t{11}}) {
    Linear lin(in, out, rng);
    Tensor x({4, in});
    Tensor g({4, out});
    for (auto& v : x.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    for (auto& v : g.data()) {
      // ~25% exact zeros so all-nonzero blocks, mixed blocks, and the tail
      // all hit the skip path somewhere.
      v = rng.uniform() < 0.25 ? 0.0f
                               : static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    lin.zero_grad();
    lin.forward(x);
    const Tensor dx = lin.backward(g);

    // Naive reference: the pre-tiling loop, one output at a time.
    Tensor ref_dw(lin.weight().value.shape());
    Tensor ref_db(lin.bias().value.shape());
    Tensor ref_dx(x.shape());
    for (std::size_t b = 0; b < 4; ++b) {
      for (std::size_t o = 0; o < out; ++o) {
        const float gv = g.at(b, o);
        if (gv == 0.0f) continue;
        ref_db[o] += gv;
        for (std::size_t i = 0; i < in; ++i) {
          ref_dw.at(o, i) += gv * x.at(b, i);
          ref_dx.at(b, i) += gv * lin.weight().value.at(o, i);
        }
      }
    }
    for (std::size_t i = 0; i < ref_dw.numel(); ++i) {
      ASSERT_EQ(lin.weight().grad[i], ref_dw[i])
          << "out=" << out << " dw[" << i << "]";
    }
    for (std::size_t i = 0; i < ref_db.numel(); ++i) {
      ASSERT_EQ(lin.bias().grad[i], ref_db[i])
          << "out=" << out << " db[" << i << "]";
    }
    for (std::size_t i = 0; i < ref_dx.numel(); ++i) {
      ASSERT_EQ(dx[i], ref_dx[i]) << "out=" << out << " dx[" << i << "]";
    }
  }
}

TEST(GradCheck, Conv2dStride1) {
  Rng rng(23);
  Conv2d conv(2, 3, 3, 1, 1, rng);
  check_gradients(conv, Tensor({2, 2, 5, 5}), 102);
}

TEST(GradCheck, Conv2dStride2) {
  Rng rng(24);
  Conv2d conv(2, 2, 3, 2, 1, rng);
  check_gradients(conv, Tensor({1, 2, 8, 8}), 103);
}

TEST(GradCheck, Conv2dNoPadding) {
  Rng rng(25);
  Conv2d conv(1, 2, 3, 1, 0, rng);
  check_gradients(conv, Tensor({1, 1, 6, 6}), 104);
}

TEST(GradCheck, TanhMlp) {
  Rng rng(26);
  Sequential seq;
  seq.add(std::make_unique<Linear>(6, 8, rng));
  seq.add(std::make_unique<oracle::Tanh>());
  seq.add(std::make_unique<Linear>(8, 3, rng));
  check_gradients(seq, Tensor({2, 6}), 105);
}

TEST(GradCheck, ReluMlp) {
  Rng rng(27);
  Sequential seq;
  seq.add(std::make_unique<Linear>(6, 8, rng));
  seq.add(std::make_unique<oracle::ReLU>());
  seq.add(std::make_unique<Linear>(8, 3, rng));
  // ReLU kinks make finite differences noisier; loosen slightly.
  check_gradients(seq, Tensor({2, 6}), 106, 4e-2f);
}

TEST(GradCheck, ConvNetEndToEnd) {
  Rng rng(28);
  Sequential seq;
  seq.add(std::make_unique<Conv2d>(2, 4, 3, 1, 1, rng));
  seq.add(std::make_unique<oracle::Tanh>());
  seq.add(std::make_unique<Conv2d>(4, 4, 3, 2, 1, rng));
  seq.add(std::make_unique<oracle::Tanh>());
  seq.add(std::make_unique<Flatten>());
  seq.add(std::make_unique<Linear>(4 * 4 * 4, 5, rng));
  check_gradients(seq, Tensor({1, 2, 8, 8}), 107);
}

// Shared-trunk two-head network. Finite differences are unreliable through
// three ReLU layers (bias perturbations shift whole channels across kinks),
// so verify the head-summing backward exactly via linearity: at a fixed
// forward cache, grad(wl, wv) must equal grad(wl, 0) + grad(0, wv).
TEST(GradCheck, PolicyValueNetSharedTrunkLinearity) {
  Rng rng(29);
  rl::PolicyNetConfig config;
  config.channels_in = 3;
  config.grid = 8;
  config.conv1 = 2;
  config.conv2 = 2;
  config.conv3 = 2;
  config.fc = 8;
  rl::PolicyValueNet net(config, rng);

  Tensor x({2, 3, 8, 8});
  Rng xr(55);
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(xr.uniform(-1.0, 1.0));
  }
  auto out = net.forward(x);
  Tensor wl(out.logits.shape()), wv(out.value.shape());
  for (std::size_t i = 0; i < wl.numel(); ++i) {
    wl[i] = static_cast<float>(xr.uniform(-1.0, 1.0));
  }
  for (std::size_t i = 0; i < wv.numel(); ++i) {
    wv[i] = static_cast<float>(xr.uniform(-1.0, 1.0));
  }
  const Tensor zero_logits(out.logits.shape());
  const Tensor zero_value(out.value.shape());

  // Combined heads.
  net.zero_grad();
  net.forward(x);
  net.backward(wl, wv);
  std::vector<std::vector<float>> combined;
  for (Parameter* p : net.parameters()) {
    combined.emplace_back(p->grad.data().begin(), p->grad.data().end());
  }

  // Policy head only.
  net.zero_grad();
  net.forward(x);
  net.backward(wl, zero_value);
  std::vector<std::vector<float>> policy_only;
  for (Parameter* p : net.parameters()) {
    policy_only.emplace_back(p->grad.data().begin(), p->grad.data().end());
  }

  // Value head only.
  net.zero_grad();
  net.forward(x);
  net.backward(zero_logits, wv);
  std::vector<std::vector<float>> value_only;
  for (Parameter* p : net.parameters()) {
    value_only.emplace_back(p->grad.data().begin(), p->grad.data().end());
  }

  const auto params = net.parameters();
  int nonzero = 0;
  for (std::size_t k = 0; k < params.size(); ++k) {
    for (std::size_t i = 0; i < combined[k].size(); ++i) {
      const float sum = policy_only[k][i] + value_only[k][i];
      EXPECT_NEAR(combined[k][i], sum,
                  std::max(1e-4f * std::abs(sum), 1e-5f))
          << params[k]->name << "[" << i << "]";
      if (combined[k][i] != 0.0f) ++nonzero;
    }
  }
  EXPECT_GT(nonzero, 100) << "gradients suspiciously sparse";
}

// The trunk layers themselves are finite-difference checked via a Tanh
// variant of the same topology (no kinks).
TEST(GradCheck, TrunkTopologyWithTanh) {
  Rng rng(30);
  Sequential seq;
  seq.add(std::make_unique<Conv2d>(3, 2, 3, 1, 1, rng));
  seq.add(std::make_unique<oracle::Tanh>());
  seq.add(std::make_unique<Conv2d>(2, 2, 3, 2, 1, rng));
  seq.add(std::make_unique<oracle::Tanh>());
  seq.add(std::make_unique<Conv2d>(2, 2, 3, 2, 1, rng));
  seq.add(std::make_unique<oracle::Tanh>());
  seq.add(std::make_unique<Flatten>());
  seq.add(std::make_unique<Linear>(2 * 2 * 2, 8, rng));
  check_gradients(seq, Tensor({1, 3, 8, 8}), 108);
}

}  // namespace
}  // namespace rlplan::nn
