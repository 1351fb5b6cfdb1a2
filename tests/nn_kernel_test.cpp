// Differential tests of nn::Conv2d's lowered kernels against the direct loops
// kept in nn_oracle.h. Every element of y, dW, db and dx must carry the same
// bits as the oracle's (so +0 and -0 count as different): over fuzzed
// shapes, with and without a batch executor, with gradients accumulated
// across two backward calls, and end to end through a grid-16, batch-64
// PolicyValueNet. Linear's backward is anchored separately by nn_grad_test's
// TiledLinearBackwardIsBitIdenticalToNaive.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fuzz_util.h"
#include "nn/layers.h"
#include "nn_oracle.h"
#include "parallel/thread_pool.h"
#include "rl/policy_net.h"
#include "util/rng.h"

namespace rlplan::nn {
namespace {

using rlplan::testing::fuzz_scale;

std::uint32_t bits(float v) { return std::bit_cast<std::uint32_t>(v); }

/// EXPECT_EQs the bits of every element against the oracle's, stopping at
/// the first mismatch so a bad case prints one line.
bool same_bits(const Tensor& got, const Tensor& want,
               const std::string& what) {
  EXPECT_EQ(got.shape(), want.shape()) << what;
  if (got.shape() != want.shape()) return false;
  for (std::size_t i = 0; i < got.numel(); ++i) {
    EXPECT_EQ(bits(got[i]), bits(want[i]))
        << what << "[" << i << "]: " << got[i] << " vs oracle " << want[i];
    if (bits(got[i]) != bits(want[i])) return false;
  }
  return true;
}

/// Uniform in [-1, 1) with ~30% exact zeros, as after a ReLU.
Tensor sparse_tensor(std::vector<std::size_t> shape, Rng& rng) {
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = rng.uniform() < 0.3 ? 0.0f
                               : static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

/// Copies every parameter value of `from` into `to` (same order and shapes).
void copy_parameters(const std::vector<Parameter*>& from,
                     const std::vector<Parameter*>& to) {
  ASSERT_EQ(from.size(), to.size());
  for (std::size_t k = 0; k < from.size(); ++k) {
    ASSERT_EQ(from[k]->value.shape(), to[k]->value.shape()) << from[k]->name;
    to[k]->value = from[k]->value;
  }
}

/// Installs a batch executor over `pool` for its lifetime.
class ScopedBatchExecutor {
 public:
  explicit ScopedBatchExecutor(parallel::ThreadPool& pool)
      : previous_(exchange_batch_parallel_for(
            [&pool](std::size_t n, const std::function<void(std::size_t)>& fn) {
              pool.parallel_for(n, fn);
            })) {}
  ~ScopedBatchExecutor() { set_batch_parallel_for(std::move(previous_)); }
  ScopedBatchExecutor(const ScopedBatchExecutor&) = delete;
  ScopedBatchExecutor& operator=(const ScopedBatchExecutor&) = delete;

 private:
  BatchParallelFor previous_;
};

/// One fuzzed convolution: channels 1-17, kernel 1-5, stride 1-3, padding
/// 0-2, a non-square input from the smallest legal window up, batch 0-5.
/// Two rounds of forward (serial and through a 4-thread executor) and
/// backward, the second accumulating onto the first's gradients.
bool conv_matches_oracle(std::uint64_t seed, parallel::ThreadPool& pool) {
  Rng rng(seed);
  const auto draw = [&rng](std::int64_t lo, std::int64_t hi) {
    return static_cast<std::size_t>(rng.uniform_int(lo, hi));
  };
  const std::size_t in = draw(1, 17);
  const std::size_t out = draw(1, 17);
  const std::size_t kernel = draw(1, 5);
  const std::size_t stride = draw(1, 3);
  const std::size_t padding = draw(0, 2);
  const auto smallest = static_cast<std::int64_t>(
      kernel > 2 * padding ? kernel - 2 * padding : 1);
  const std::size_t h = draw(smallest, smallest + 9);
  const std::size_t w = draw(smallest, smallest + 9);
  const std::size_t batch = draw(0, 5);
  const std::string context =
      "Conv2dMatchesOracle seed=" + std::to_string(seed) + " in=" +
      std::to_string(in) + " out=" + std::to_string(out) + " k=" +
      std::to_string(kernel) + " s=" + std::to_string(stride) + " p=" +
      std::to_string(padding) + " " + std::to_string(h) + "x" +
      std::to_string(w) + " batch=" + std::to_string(batch);

  Conv2d conv(in, out, kernel, stride, padding, rng);
  oracle::Conv2d ref(in, out, kernel, stride, padding);
  copy_parameters(conv.parameters(), ref.parameters());
  bool ok = true;
  for (int round = 0; ok && round < 2; ++round) {
    const std::string tag = context + " round " + std::to_string(round);
    const Tensor x = sparse_tensor({batch, in, h, w}, rng);
    const Tensor want = ref.forward(x);
    Tensor pooled;
    {
      ScopedBatchExecutor executor(pool);
      pooled = conv.forward(x);
    }
    const Tensor y = conv.forward(x);
    ok = same_bits(y, want, tag + " y") &&
         same_bits(pooled, want, tag + " pooled y");
    const Tensor g = sparse_tensor(want.shape(), rng);
    const Tensor dx = conv.backward(g);
    const Tensor want_dx = ref.backward(g);
    ok = ok && same_bits(dx, want_dx, tag + " dx");
    for (std::size_t k = 0; ok && k < 2; ++k) {
      ok = same_bits(conv.parameters()[k]->grad, ref.parameters()[k]->grad,
                     tag + " " + conv.parameters()[k]->name + " grad");
    }
  }
  if (!ok) rlplan::testing::report_failure_seed("nn_kernel_test", context);
  return ok;
}

TEST(NnKernelFuzz, Conv2dMatchesOracle) {
  parallel::ThreadPool pool(4);
  const int cases = 150 * fuzz_scale();
  for (int k = 0; k < cases; ++k) {
    if (!conv_matches_oracle(0xC0417ULL * 1000003ULL + k, pool)) return;
  }
}

/// PolicyValueNet's layer stack with oracle convolutions in place of
/// nn::Conv2d; the Linear layers are the library's.
struct OracleTwin {
  Sequential trunk;
  std::unique_ptr<Linear> policy_head;
  std::unique_ptr<Linear> value_head;

  explicit OracleTwin(const rl::PolicyNetConfig& c) {
    Rng unused(0);
    const std::size_t g4 = c.grid / 4;
    trunk.add(
        std::make_unique<oracle::Conv2d>(c.channels_in, c.conv1, 3, 1, 1));
    trunk.add(std::make_unique<ReLU>());
    trunk.add(std::make_unique<oracle::Conv2d>(c.conv1, c.conv2, 3, 2, 1));
    trunk.add(std::make_unique<ReLU>());
    trunk.add(std::make_unique<oracle::Conv2d>(c.conv2, c.conv3, 3, 2, 1));
    trunk.add(std::make_unique<ReLU>());
    trunk.add(std::make_unique<Flatten>());
    trunk.add(std::make_unique<Linear>(c.conv3 * g4 * g4, c.fc, unused));
    trunk.add(std::make_unique<ReLU>());
    policy_head = std::make_unique<Linear>(c.fc, c.grid * c.grid, unused);
    value_head = std::make_unique<Linear>(c.fc, 1, unused);
  }

  std::vector<Parameter*> parameters() {
    std::vector<Parameter*> params = trunk.parameters();
    for (Parameter* p : policy_head->parameters()) params.push_back(p);
    for (Parameter* p : value_head->parameters()) params.push_back(p);
    return params;
  }
};

TEST(NnKernel, PolicyNetMatchesOracleTwin) {
  rl::PolicyNetConfig config;
  config.grid = 16;
  Rng rng(0x7A1);
  rl::PolicyValueNet net(config, rng);
  OracleTwin twin(config);
  copy_parameters(net.parameters(), twin.parameters());

  const std::size_t batch = 64;
  Tensor states({batch, config.channels_in, config.grid, config.grid});
  for (std::size_t i = 0; i < states.numel(); ++i) {
    states[i] = rng.uniform() < 0.5 ? 0.0f
                                    : static_cast<float>(rng.uniform());
  }
  const Tensor grad_logits =
      sparse_tensor({batch, config.grid * config.grid}, rng);
  const Tensor grad_value = sparse_tensor({batch, 1}, rng);

  net.zero_grad();
  const rl::PolicyValueNet::Output out = net.forward(states);
  net.backward(grad_logits, grad_value);

  const Tensor features = twin.trunk.forward(states);
  const Tensor logits = twin.policy_head->forward(features);
  const Tensor value = twin.value_head->forward(features);
  Tensor d_features = twin.policy_head->backward(grad_logits);
  d_features.add_(twin.value_head->backward(grad_value));
  twin.trunk.backward(d_features);

  EXPECT_TRUE(same_bits(out.logits, logits, "logits"));
  EXPECT_TRUE(same_bits(out.value, value, "value"));
  const auto got = net.parameters();
  const auto want = twin.parameters();
  int nonzero = 0;
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_TRUE(same_bits(got[k]->grad, want[k]->grad, got[k]->name));
    for (std::size_t i = 0; i < got[k]->grad.numel(); ++i) {
      if (got[k]->grad[i] != 0.0f) ++nonzero;
    }
  }
  EXPECT_GT(nonzero, 1000) << "gradients suspiciously sparse";
}

}  // namespace
}  // namespace rlplan::nn
