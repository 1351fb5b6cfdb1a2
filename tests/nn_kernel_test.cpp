// Differential tests of nn::Conv2d's lowered kernels and of the ReLU epilogue
// of Conv2d and Linear against the direct loops and the standalone ReLU kept
// in nn_oracle.h. Every element of y, dW, db and dx must carry the same bits
// as the oracle's (so +0 and -0 count as different): over fuzzed shapes,
// with and without a batch executor, with gradients accumulated across two
// backward calls, and end to end through PolicyValueNet at grid 16, batch 64
// and grid 8, batch 37. The forward and backward passes partitioned over 1-4
// lanes must match too, at odd shapes, batch 1 and batch 65.
// backward_params() must accumulate exactly the parameter gradients of
// backward().
#include <gtest/gtest.h>

#include <algorithm>
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

/// An executor over `pool`'s lanes.
BatchParallelFor executor_over(parallel::ThreadPool& pool) {
  return [&pool](std::size_t n, const std::function<void(std::size_t)>& fn) {
    pool.parallel_for(n, fn);
  };
}

/// Two rounds of forward (serial and through a 4-thread executor) and
/// backward through `lib` and `ref`, which hold the same parameters, the
/// second round accumulating onto the first's gradients; compares y, dx and
/// every parameter gradient bit for bit.
bool same_passes(Module& lib, Module& ref, std::vector<std::size_t> in_shape,
                 Rng& rng, parallel::ThreadPool& pool,
                 const std::string& context) {
  copy_parameters(lib.parameters(), ref.parameters());
  bool ok = true;
  for (int round = 0; ok && round < 2; ++round) {
    const std::string tag = context + " round " + std::to_string(round);
    const Tensor x = sparse_tensor(in_shape, rng);
    const Tensor want = ref.forward(x);
    lib.set_executor(executor_over(pool));
    const Tensor pooled = lib.forward(x);
    lib.set_executor({});
    const Tensor y = lib.forward(x);
    ok = same_bits(y, want, tag + " y") &&
         same_bits(pooled, want, tag + " pooled y");
    const Tensor g = sparse_tensor(want.shape(), rng);
    ok = ok && same_bits(lib.backward(g), ref.backward(g), tag + " dx");
    const auto got = lib.parameters();
    const auto expect = ref.parameters();
    for (std::size_t k = 0; ok && k < got.size(); ++k) {
      ok = same_bits(got[k]->grad, expect[k]->grad,
                     tag + " " + got[k]->name + " grad");
    }
  }
  return ok;
}

/// One fuzzed convolution: channels 1-17, kernel 1-5, stride 1-3, padding
/// 0-2, a non-square input from the smallest legal window up, batch 0-5.
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
  const bool ok = same_passes(conv, ref, {batch, in, h, w}, rng, pool, context);
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

/// One fuzzed Conv2d and one fuzzed Linear with the ReLU epilogue against
/// the oracle layer followed by oracle::ReLU. The conv batch is drawn against
/// the forward's chunk size (whole samples per lowering, ceil(256 / pixels)):
/// one chunk, whole chunks, or a partial last chunk, over pixel counts from 1
/// to past 256 that mostly do not divide 256.
bool epilogue_matches_oracle(std::uint64_t seed, parallel::ThreadPool& pool) {
  Rng rng(seed);
  const auto draw = [&rng](std::int64_t lo, std::int64_t hi) {
    return static_cast<std::size_t>(rng.uniform_int(lo, hi));
  };
  const std::size_t in = draw(1, 9);
  const std::size_t out = draw(1, 9);
  const std::size_t kernel = draw(1, 5);
  const std::size_t stride = draw(1, 3);
  const std::size_t padding = draw(0, 2);
  const auto smallest = static_cast<std::int64_t>(
      kernel > 2 * padding ? kernel - 2 * padding : 1);
  const std::size_t h = draw(smallest, smallest + 19);
  const std::size_t w = draw(smallest, smallest + 19);
  Conv2d conv(in, out, kernel, stride, padding, rng, "conv",
              Activation::kReLU);
  const std::size_t pixels = conv.out_size(h) * conv.out_size(w);
  const std::size_t per_chunk = (256 + pixels - 1) / pixels;
  std::size_t batch = 0;
  switch (seed % 3) {
    case 0: batch = draw(1, static_cast<std::int64_t>(per_chunk)); break;
    case 1: batch = per_chunk * draw(2, 3); break;
    default:  // partial last chunk, when a chunk holds more than one sample
      batch = per_chunk * draw(1, 2) + 1 +
              draw(0, 8) % std::max<std::size_t>(per_chunk - 1, 1);
  }
  const std::string context =
      "EpilogueMatchesOracle seed=" + std::to_string(seed) + " in=" +
      std::to_string(in) + " out=" + std::to_string(out) + " k=" +
      std::to_string(kernel) + " s=" + std::to_string(stride) + " p=" +
      std::to_string(padding) + " " + std::to_string(h) + "x" +
      std::to_string(w) + " batch=" + std::to_string(batch);

  Sequential conv_ref;
  conv_ref.add(std::make_unique<oracle::Conv2d>(in, out, kernel, stride,
                                                padding));
  conv_ref.add(std::make_unique<oracle::ReLU>());
  bool ok = same_passes(conv, conv_ref, {batch, in, h, w}, rng, pool,
                        context + " conv");

  const std::size_t lin_in = draw(1, 40);
  const std::size_t lin_out = draw(1, 40);
  const std::size_t lin_batch = draw(0, 9);
  const std::string lin_context = context + " linear " +
                                  std::to_string(lin_in) + "->" +
                                  std::to_string(lin_out) + " batch=" +
                                  std::to_string(lin_batch);
  Linear linear(lin_in, lin_out, rng, "linear", Activation::kReLU);
  Sequential linear_ref;
  linear_ref.add(std::make_unique<oracle::Linear>(lin_in, lin_out));
  linear_ref.add(std::make_unique<oracle::ReLU>());
  ok = ok && same_passes(linear, linear_ref, {lin_batch, lin_in}, rng, pool,
                         lin_context);
  if (!ok) rlplan::testing::report_failure_seed("nn_kernel_test", context);
  return ok;
}

TEST(NnKernelFuzz, EpilogueMatchesOracle) {
  parallel::ThreadPool pool(4);
  const int cases = 90 * fuzz_scale();
  for (int k = 0; k < cases; ++k) {
    if (!epilogue_matches_oracle(0xE1109ULL * 1000003ULL + k, pool)) return;
  }
}

/// A fuzzed Sequential, conv-first or linear-first, with random epilogues:
/// backward_params() on one copy must leave every parameter gradient
/// bit-identical to backward() on the other, over two accumulating rounds.
bool backward_params_matches(std::uint64_t seed) {
  Rng rng(seed);
  const auto draw = [&rng](std::int64_t lo, std::int64_t hi) {
    return static_cast<std::size_t>(rng.uniform_int(lo, hi));
  };
  const auto act = [&rng] {
    return rng.uniform() < 0.5 ? Activation::kNone : Activation::kReLU;
  };
  const bool conv_first = seed % 2 == 0;
  const std::size_t batch = draw(0, 9);
  const std::size_t c = draw(1, 6);
  const std::size_t size = draw(3, 12);
  const std::size_t mid = draw(1, 8);
  const std::size_t out = draw(1, 12);
  const std::size_t stride = draw(1, 2);
  const std::string context =
      "BackwardParamsMatchesBackward seed=" + std::to_string(seed) +
      (conv_first ? " conv-first" : " linear-first") + " c=" +
      std::to_string(c) + " size=" + std::to_string(size) + " mid=" +
      std::to_string(mid) + " batch=" + std::to_string(batch);

  std::vector<Activation> acts;
  for (int k = 0; k < 3; ++k) acts.push_back(act());
  const auto build = [&](Rng& init) {
    Sequential net;
    if (conv_first) {
      auto conv1 = std::make_unique<Conv2d>(c, mid, 3, stride, 1, init,
                                            "conv1", acts[0]);
      const std::size_t s1 = conv1->out_size(size);
      auto conv2 =
          std::make_unique<Conv2d>(mid, mid, 3, 2, 1, init, "conv2", acts[1]);
      const std::size_t s2 = conv2->out_size(s1);
      net.add(std::move(conv1)).add(std::move(conv2));
      net.add(std::make_unique<Flatten>());
      net.add(std::make_unique<Linear>(mid * s2 * s2, out, init, "fc",
                                       acts[2]));
    } else {
      net.add(std::make_unique<Linear>(c * size, mid, init, "fc1", acts[0]));
      net.add(std::make_unique<Linear>(mid, out, init, "fc2", acts[1]));
    }
    return net;
  };
  Rng init_a(seed), init_b(seed);
  Sequential full = build(init_a);
  Sequential params_only = build(init_b);
  const std::vector<std::size_t> in_shape =
      conv_first ? std::vector<std::size_t>{batch, c, size, size}
                 : std::vector<std::size_t>{batch, c * size};
  bool ok = true;
  for (int round = 0; ok && round < 2; ++round) {
    const std::string tag = context + " round " + std::to_string(round);
    const Tensor x = sparse_tensor(in_shape, rng);
    const Tensor y = full.forward(x);
    ok = same_bits(params_only.forward(x), y, tag + " y");
    const Tensor g = sparse_tensor(y.shape(), rng);
    full.backward(g);
    params_only.backward_params(g);
    const auto got = params_only.parameters();
    const auto want = full.parameters();
    for (std::size_t k = 0; ok && k < got.size(); ++k) {
      ok = same_bits(got[k]->grad, want[k]->grad,
                     tag + " " + got[k]->name + " grad");
    }
  }
  if (!ok) rlplan::testing::report_failure_seed("nn_kernel_test", context);
  return ok;
}

TEST(NnKernelFuzz, BackwardParamsMatchesBackward) {
  const int cases = 60 * fuzz_scale();
  for (int k = 0; k < cases; ++k) {
    if (!backward_params_matches(0xBA9ULL * 1000003ULL + k)) return;
  }
}

/// Forward and backward through `lib` on executors over 1-4 lanes against
/// `ref`, which holds the same parameters: every lane count runs two
/// accumulating rounds from zeroed gradients and must match the oracle's y,
/// dx and parameter gradients bit for bit.
bool same_on_lanes(Module& lib, Module& ref,
                   const std::vector<std::size_t>& in_shape, Rng& rng,
                   const std::string& context) {
  copy_parameters(lib.parameters(), ref.parameters());
  std::vector<Tensor> xs, gs, ys, dxs;
  ref.zero_grad();
  for (int round = 0; round < 2; ++round) {
    xs.push_back(sparse_tensor(in_shape, rng));
    ys.push_back(ref.forward(xs.back()));
    gs.push_back(sparse_tensor(ys.back().shape(), rng));
    dxs.push_back(ref.backward(gs.back()));
  }
  for (std::size_t lanes = 1; lanes <= 4; ++lanes) {
    parallel::ThreadPool pool(lanes);
    lib.set_executor(executor_over(pool));
    lib.zero_grad();
    bool ok = true;
    for (int round = 0; ok && round < 2; ++round) {
      const std::string tag = context + " lanes " + std::to_string(lanes) +
                              " round " + std::to_string(round);
      ok = same_bits(lib.forward(xs[round]), ys[round], tag + " y") &&
           same_bits(lib.backward(gs[round]), dxs[round], tag + " dx");
    }
    const auto got = lib.parameters();
    const auto want = ref.parameters();
    for (std::size_t k = 0; ok && k < got.size(); ++k) {
      ok = same_bits(got[k]->grad, want[k]->grad,
                     context + " lanes " + std::to_string(lanes) + " " +
                         got[k]->name + " grad");
    }
    lib.set_executor({});
    if (!ok) return false;
  }
  return true;
}

/// One fuzzed Conv2d and one fuzzed Linear, each with or without the ReLU
/// epilogue, at batch 1, batch 65 or a batch in between, sized so that most
/// passes split into several work items and dispatch over the lanes.
bool partitioned_matches_oracle(std::uint64_t seed) {
  Rng rng(seed);
  const auto draw = [&rng](std::int64_t lo, std::int64_t hi) {
    return static_cast<std::size_t>(rng.uniform_int(lo, hi));
  };
  const auto batch_of = [&](std::uint64_t pick) -> std::size_t {
    switch (pick % 3) {
      case 0: return 1;
      case 1: return 65;
      default: return draw(2, 64);
    }
  };
  const std::size_t in = draw(1, 11);
  const std::size_t out = draw(1, 19);
  const std::size_t kernel = draw(1, 5);
  const std::size_t stride = draw(1, 3);
  const std::size_t padding = draw(0, 2);
  const auto smallest = static_cast<std::int64_t>(
      kernel > 2 * padding ? kernel - 2 * padding : 1);
  const std::size_t h = draw(smallest, smallest + 17);
  const std::size_t w = draw(smallest, smallest + 17);
  const std::size_t batch = batch_of(seed);
  const bool conv_relu = rng.uniform() < 0.5;
  const std::string context =
      "PartitionedMatchesOracle seed=" + std::to_string(seed) + " in=" +
      std::to_string(in) + " out=" + std::to_string(out) + " k=" +
      std::to_string(kernel) + " s=" + std::to_string(stride) + " p=" +
      std::to_string(padding) + " " + std::to_string(h) + "x" +
      std::to_string(w) + " batch=" + std::to_string(batch) +
      (conv_relu ? " relu" : "");
  Conv2d conv(in, out, kernel, stride, padding, rng, "conv",
              conv_relu ? Activation::kReLU : Activation::kNone);
  Sequential conv_ref;
  conv_ref.add(std::make_unique<oracle::Conv2d>(in, out, kernel, stride,
                                                padding));
  if (conv_relu) conv_ref.add(std::make_unique<oracle::ReLU>());
  bool ok = same_on_lanes(conv, conv_ref, {batch, in, h, w}, rng, context);

  const std::size_t lin_in = draw(1, 300);
  const std::size_t lin_out = draw(1, 300);
  const std::size_t lin_batch = batch_of(seed / 3);
  const bool lin_relu = rng.uniform() < 0.5;
  const std::string lin_context =
      context + " linear " + std::to_string(lin_in) + "->" +
      std::to_string(lin_out) + " batch=" + std::to_string(lin_batch) +
      (lin_relu ? " relu" : "");
  Linear linear(lin_in, lin_out, rng, "linear",
                lin_relu ? Activation::kReLU : Activation::kNone);
  Sequential linear_ref;
  linear_ref.add(std::make_unique<oracle::Linear>(lin_in, lin_out));
  if (lin_relu) linear_ref.add(std::make_unique<oracle::ReLU>());
  ok = ok && same_on_lanes(linear, linear_ref, {lin_batch, lin_in}, rng,
                           lin_context);
  if (!ok) rlplan::testing::report_failure_seed("nn_kernel_test", context);
  return ok;
}

TEST(NnKernelFuzz, PartitionedPassesMatchOracle) {
  const int cases = 36 * fuzz_scale();
  for (int k = 0; k < cases; ++k) {
    if (!partitioned_matches_oracle(0x9A47ULL * 1000003ULL + k)) return;
  }
}

/// PolicyValueNet's layer stack with oracle convolutions in place of
/// nn::Conv2d and standalone oracle::ReLU modules in place of the epilogues;
/// the Linear layers are the library's, without an epilogue.
struct OracleTwin {
  Sequential trunk;
  std::unique_ptr<Linear> policy_head;
  std::unique_ptr<Linear> value_head;

  explicit OracleTwin(const rl::PolicyNetConfig& c) {
    Rng unused(0);
    const std::size_t g4 = c.grid / 4;
    trunk.add(
        std::make_unique<oracle::Conv2d>(c.channels_in, c.conv1, 3, 1, 1));
    trunk.add(std::make_unique<oracle::ReLU>());
    trunk.add(std::make_unique<oracle::Conv2d>(c.conv1, c.conv2, 3, 2, 1));
    trunk.add(std::make_unique<oracle::ReLU>());
    trunk.add(std::make_unique<oracle::Conv2d>(c.conv2, c.conv3, 3, 2, 1));
    trunk.add(std::make_unique<oracle::ReLU>());
    trunk.add(std::make_unique<Flatten>());
    trunk.add(std::make_unique<Linear>(c.conv3 * g4 * g4, c.fc, unused));
    trunk.add(std::make_unique<oracle::ReLU>());
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

/// One forward and backward of PolicyValueNet, on `lanes` lanes, against its
/// oracle twin; the net's backward skips conv1's input gradient, the twin's
/// computes it.
void expect_policy_net_matches_twin(std::size_t grid, std::size_t batch,
                                    std::size_t lanes = 1) {
  SCOPED_TRACE("grid " + std::to_string(grid) + " batch " +
               std::to_string(batch));
  rl::PolicyNetConfig config;
  config.grid = grid;
  Rng rng(0x7A1);
  rl::PolicyValueNet net(config, rng);
  parallel::ThreadPool pool(lanes);
  if (lanes > 1) net.set_executor(executor_over(pool));
  OracleTwin twin(config);
  copy_parameters(net.parameters(), twin.parameters());

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

TEST(NnKernel, PolicyNetMatchesOracleTwin) {
  expect_policy_net_matches_twin(16, 64);
  expect_policy_net_matches_twin(8, 37);
}

TEST(NnKernel, PolicyNetOnLanesMatchesOracleTwin) {
  for (const std::size_t lanes : {2u, 3u, 4u}) {
    SCOPED_TRACE("lanes " + std::to_string(lanes));
    expect_policy_net_matches_twin(16, 64, lanes);
    expect_policy_net_matches_twin(8, 65, lanes);
  }
}

}  // namespace
}  // namespace rlplan::nn
