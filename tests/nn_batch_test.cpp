// Batched forward correctness: a batch-B pass through the conv/linear path
// must equal B independent single-sample passes, with and without an
// executor set on the net.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/layers.h"
#include "nn/tensor.h"
#include "parallel/thread_pool.h"
#include "rl/policy_net.h"
#include "util/rng.h"

namespace rlplan::nn {
namespace {

Tensor random_tensor(std::vector<std::size_t> shape, Rng& rng) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

Tensor slice_sample(const Tensor& batch, std::size_t b) {
  std::vector<std::size_t> shape(batch.shape().begin() + 1,
                                 batch.shape().end());
  const std::size_t stride = shape_numel(shape);
  shape.insert(shape.begin(), 1);
  Tensor out(shape);
  const auto src = batch.data();
  std::copy(src.begin() + static_cast<std::ptrdiff_t>(b * stride),
            src.begin() + static_cast<std::ptrdiff_t>((b + 1) * stride),
            out.data().begin());
  return out;
}

TEST(NnBatch, LinearBatchEqualsSingleForwards) {
  Rng rng(1);
  Linear layer(12, 7, rng);
  const Tensor batch = random_tensor({5, 12}, rng);
  const Tensor batched = layer.forward(batch);
  for (std::size_t b = 0; b < 5; ++b) {
    const Tensor single = layer.forward(slice_sample(batch, b));
    for (std::size_t o = 0; o < 7; ++o) {
      EXPECT_NEAR(batched.at(b, o), single.at(std::size_t{0}, o), 1e-6f);
    }
  }
}

// The register-blocked Linear forward must stay bit-identical to a naive
// o-at-a-time reference: each output is still one accumulator summed
// sequentially over i, so blocking only widens independent chains.
TEST(NnBatch, TiledLinearForwardIsBitIdenticalToNaive) {
  Rng rng(6);
  // Output widths cover sub-block (< 4), exact multiples, and a 4k+r tail.
  for (const std::size_t out : {std::size_t{1}, std::size_t{3}, std::size_t{4},
                                std::size_t{7}, std::size_t{130}}) {
    Linear layer(13, out, rng);
    const Tensor x = random_tensor({5, 13}, rng);
    const Tensor y = layer.forward(x);
    const auto wd = layer.weight().value.data();
    const auto bd = layer.bias().value.data();
    for (std::size_t b = 0; b < 5; ++b) {
      for (std::size_t o = 0; o < out; ++o) {
        float acc = bd[o];
        for (std::size_t i = 0; i < 13; ++i) {
          acc += wd[o * 13 + i] * x.at(b, i);
        }
        ASSERT_EQ(y.at(b, o), acc)
            << "out=" << out << " b=" << b << " o=" << o;
      }
    }
  }
}

TEST(NnBatch, Conv2dBatchEqualsSingleForwards) {
  Rng rng(2);
  Conv2d layer(3, 4, 3, 2, 1, rng);
  const Tensor batch = random_tensor({6, 3, 8, 8}, rng);
  const Tensor batched = layer.forward(batch);
  for (std::size_t b = 0; b < 6; ++b) {
    const Tensor single = layer.forward(slice_sample(batch, b));
    for (std::size_t i = 0; i < single.numel(); ++i) {
      EXPECT_NEAR(batched.data()[b * single.numel() + i], single.data()[i],
                  1e-6f);
    }
  }
}

TEST(NnBatch, PolicyNetBatchEqualsSingleForwards) {
  rl::PolicyNetConfig config;
  config.channels_in = 6;
  config.grid = 8;
  config.conv1 = 4;
  config.conv2 = 4;
  config.conv3 = 4;
  config.fc = 32;
  Rng rng(3);
  rl::PolicyValueNet net(config, rng);

  const std::size_t batch_size = 7;
  const Tensor batch = random_tensor({batch_size, 6, 8, 8}, rng);
  const rl::PolicyValueNet::Output batched = net.forward(batch);
  ASSERT_EQ(batched.logits.shape(),
            (std::vector<std::size_t>{batch_size, 64}));
  ASSERT_EQ(batched.value.shape(), (std::vector<std::size_t>{batch_size, 1}));

  for (std::size_t b = 0; b < batch_size; ++b) {
    const rl::PolicyValueNet::Output single =
        net.forward(slice_sample(batch, b));
    for (std::size_t a = 0; a < 64; ++a) {
      EXPECT_NEAR(batched.logits.at(b, a), single.logits.at(std::size_t{0}, a),
                  1e-6f)
          << "sample " << b << " logit " << a;
    }
    EXPECT_NEAR(batched.value.at(b, 0), single.value.at(std::size_t{0}, 0),
                1e-6f);
  }
}

TEST(NnBatch, ParallelExecutorIsBitIdentical) {
  rl::PolicyNetConfig config;
  config.channels_in = 6;
  config.grid = 8;
  Rng rng(4);
  rl::PolicyValueNet net(config, rng);
  const Tensor batch = random_tensor({8, 6, 8, 8}, rng);

  const rl::PolicyValueNet::Output serial = net.forward(batch);

  parallel::ThreadPool pool(4);
  net.set_executor(
      [&pool](std::size_t n, const std::function<void(std::size_t)>& fn) {
        pool.parallel_for(n, fn);
      });
  const rl::PolicyValueNet::Output threaded = net.forward(batch);
  net.set_executor({});

  ASSERT_TRUE(serial.logits.same_shape(threaded.logits));
  for (std::size_t i = 0; i < serial.logits.numel(); ++i) {
    ASSERT_EQ(serial.logits.data()[i], threaded.logits.data()[i]) << i;
  }
  for (std::size_t i = 0; i < serial.value.numel(); ++i) {
    ASSERT_EQ(serial.value.data()[i], threaded.value.data()[i]) << i;
  }
}

TEST(NnBatch, BackwardAcceptsBatchAfterBatchedForward) {
  // The training path: batched forward then batched backward with the
  // executor set must produce the same gradients as without it (backward
  // partitions by output element, so each gradient element's whole sum stays
  // on one lane in the serial order).
  rl::PolicyNetConfig config;
  config.channels_in = 6;
  config.grid = 8;
  Rng rng(5);
  rl::PolicyValueNet net(config, rng);
  const Tensor batch = random_tensor({4, 6, 8, 8}, rng);
  Tensor grad_logits = random_tensor({4, 64}, rng);
  Tensor grad_value = random_tensor({4, 1}, rng);

  net.zero_grad();
  net.forward(batch);
  net.backward(grad_logits, grad_value);
  std::vector<std::vector<float>> serial_grads;
  for (Parameter* p : net.parameters()) {
    serial_grads.emplace_back(p->grad.data().begin(), p->grad.data().end());
  }

  parallel::ThreadPool pool(3);
  net.set_executor(
      [&pool](std::size_t n, const std::function<void(std::size_t)>& fn) {
        pool.parallel_for(n, fn);
      });
  net.zero_grad();
  net.forward(batch);
  net.backward(grad_logits, grad_value);
  net.set_executor({});

  const auto params = net.parameters();
  ASSERT_EQ(params.size(), serial_grads.size());
  for (std::size_t p = 0; p < params.size(); ++p) {
    const auto got = params[p]->grad.data();
    ASSERT_EQ(got.size(), serial_grads[p].size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], serial_grads[p][i])
          << params[p]->name << "[" << i << "]";
    }
  }
}

}  // namespace
}  // namespace rlplan::nn
