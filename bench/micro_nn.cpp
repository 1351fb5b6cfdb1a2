// Micro-benchmarks of the NN/RL substrate (google-benchmark): policy net
// forward/backward at the bench grid sizes, environment stepping, and one
// full PPO epoch at miniature scale.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/layers.h"
#include "nn/optim.h"
#include "parallel/thread_pool.h"
#include "rl/env.h"
#include "rl/policy_net.h"
#include "rl/session.h"
#include "systems/synthetic.h"
#include "thermal/evaluator.h"

using namespace rlplan;

namespace {

class NullEvaluator final : public thermal::ThermalEvaluator {
 public:
  double max_temperature(const ChipletSystem&, const Floorplan&) override {
    return 60.0;
  }
  long num_evaluations() const override { return 0; }
  std::string name() const override { return "null"; }
};

const ChipletSystem& test_system() {
  static const ChipletSystem sys = [] {
    systems::SyntheticConfig sc;
    sc.interposer_w_mm = 40.0;
    sc.interposer_h_mm = 40.0;
    sc.min_chiplets = 6;
    sc.max_chiplets = 6;
    return systems::SyntheticSystemGenerator(sc).generate(9, "nnbench");
  }();
  return sys;
}

// The raw Linear matmuls behind the policy trunk's fc layer — at the PPO
// shapes the register-blocked kernels were tiled for: flatten->fc
// (16*6*6 = 576 -> 128 at grid 24) and the policy head (128 -> G*G).
void BM_LinearForward(benchmark::State& state) {
  const auto in = static_cast<std::size_t>(state.range(0));
  const auto out = static_cast<std::size_t>(state.range(1));
  const auto batch = static_cast<std::size_t>(state.range(2));
  Rng rng(6);
  nn::Linear layer(in, out, rng);
  nn::Tensor x({batch, in});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(layer.forward(x).data().data());
  }
  state.SetLabel(std::to_string(in) + "->" + std::to_string(out) + " batch " +
                 std::to_string(batch));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch * in * out));
}
BENCHMARK(BM_LinearForward)
    ->Args({576, 128, 64})
    ->Args({128, 576, 64})
    ->Args({128, 1, 64})
    ->Unit(benchmark::kMicrosecond);

void BM_LinearBackward(benchmark::State& state) {
  const auto in = static_cast<std::size_t>(state.range(0));
  const auto out = static_cast<std::size_t>(state.range(1));
  const auto batch = static_cast<std::size_t>(state.range(2));
  Rng rng(7);
  nn::Linear layer(in, out, rng);
  nn::Tensor x({batch, in});
  nn::Tensor g({batch, out});
  for (std::size_t i = 0; i < x.numel(); ++i) {
    x[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  for (std::size_t i = 0; i < g.numel(); ++i) {
    g[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  layer.forward(x);
  for (auto _ : state) {
    layer.zero_grad();
    benchmark::DoNotOptimize(layer.backward(g).data().data());
  }
  state.SetLabel(std::to_string(in) + "->" + std::to_string(out) + " batch " +
                 std::to_string(batch));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch * in * out));
}
BENCHMARK(BM_LinearBackward)
    ->Args({576, 128, 64})
    ->Args({128, 576, 64})
    ->Unit(benchmark::kMicrosecond);

nn::Tensor random_tensor(std::vector<std::size_t> shape, Rng& rng) {
  nn::Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return t;
}

std::string conv_label(benchmark::State& state) {
  return std::to_string(state.range(0)) + "->" +
         std::to_string(state.range(1)) + " stride " +
         std::to_string(state.range(2)) + " at " +
         std::to_string(state.range(3)) + "x" +
         std::to_string(state.range(3)) + " batch " +
         std::to_string(state.range(4));
}

// The policy trunk's three convolutions at grid 16 and the PPO minibatch:
// conv1 6->8 (stride 1, 16x16), conv2 8->16 (stride 2, 16x16 -> 8x8) and
// conv3 16->16 (stride 2, 8x8 -> 4x4), all 3x3 with padding 1.
void BM_Conv2dForward(benchmark::State& state) {
  const auto in = static_cast<std::size_t>(state.range(0));
  const auto out = static_cast<std::size_t>(state.range(1));
  const auto stride = static_cast<std::size_t>(state.range(2));
  const auto size = static_cast<std::size_t>(state.range(3));
  const auto batch = static_cast<std::size_t>(state.range(4));
  Rng rng(8);
  nn::Conv2d conv(in, out, 3, stride, 1, rng);
  const nn::Tensor x = random_tensor({batch, in, size, size}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(x).data().data());
  }
  state.SetLabel(conv_label(state));
}
BENCHMARK(BM_Conv2dForward)
    ->Args({6, 8, 1, 16, 64})
    ->Args({8, 16, 2, 16, 64})
    ->Args({16, 16, 2, 8, 64})
    ->Unit(benchmark::kMicrosecond);

// Backward only, after one forward: ReLU-like gradients with ~half of them
// exactly zero, as the trunk sees them.
void BM_Conv2dBackward(benchmark::State& state) {
  const auto in = static_cast<std::size_t>(state.range(0));
  const auto out = static_cast<std::size_t>(state.range(1));
  const auto stride = static_cast<std::size_t>(state.range(2));
  const auto size = static_cast<std::size_t>(state.range(3));
  const auto batch = static_cast<std::size_t>(state.range(4));
  Rng rng(9);
  nn::Conv2d conv(in, out, 3, stride, 1, rng);
  const nn::Tensor x = random_tensor({batch, in, size, size}, rng);
  nn::Tensor g = conv.forward(x);
  for (std::size_t i = 0; i < g.numel(); ++i) {
    g[i] = rng.uniform() < 0.5 ? 0.0f
                               : static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  for (auto _ : state) {
    conv.zero_grad();
    benchmark::DoNotOptimize(conv.backward(g).data().data());
  }
  state.SetLabel(conv_label(state));
}
BENCHMARK(BM_Conv2dBackward)
    ->Args({6, 8, 1, 16, 64})
    ->Args({8, 16, 2, 16, 64})
    ->Args({16, 16, 2, 8, 64})
    ->Unit(benchmark::kMicrosecond);

void BM_PolicyForward(benchmark::State& state) {
  const auto grid = static_cast<std::size_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  Rng rng(1);
  rl::PolicyNetConfig config;
  config.grid = grid;
  rl::PolicyValueNet net(config, rng);
  nn::Tensor x({batch, config.channels_in, grid, grid});
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.forward(x).value[0]);
  }
  state.SetLabel("grid " + std::to_string(grid) + " batch " +
                 std::to_string(batch));
}
BENCHMARK(BM_PolicyForward)
    ->Args({8, 1})
    ->Args({16, 1})
    ->Args({16, 64})
    ->Args({24, 1})
    ->Args({24, 64})
    ->Unit(benchmark::kMillisecond);

// Forward + backward of one minibatch; batch 64 is the PPO minibatch. Grid 8
// is serve_mix's training grid, where a sample's conv rows are only 64, 16
// and 4 floats wide.
void BM_PolicyBackward(benchmark::State& state) {
  const auto grid = static_cast<std::size_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  Rng rng(2);
  rl::PolicyNetConfig config;
  config.grid = grid;
  rl::PolicyValueNet net(config, rng);
  nn::Tensor x({batch, config.channels_in, grid, grid});
  nn::Tensor dlogits({batch, grid * grid});
  nn::Tensor dvalue({batch, std::size_t{1}});
  dlogits.fill(0.01f);
  dvalue.fill(0.1f);
  for (auto _ : state) {
    net.forward(x);
    net.zero_grad();
    net.backward(dlogits, dvalue);
  }
  state.SetLabel("grid " + std::to_string(grid) + " batch " +
                 std::to_string(batch) + " fwd+bwd");
}
BENCHMARK(BM_PolicyBackward)
    ->Args({8, 32})
    ->Args({16, 32})
    ->Args({16, 64})
    ->Args({24, 32})
    ->Unit(benchmark::kMillisecond);

// One PPO minibatch step on the policy net at grid 16: forward, backward,
// gradient clipping and Adam, at the PPO minibatch (64) and a partial last
// minibatch (48), on 1-3 lanes. States are 70% zeros like the placement
// observations, and half the logit gradients are zero like a masked
// softmax's. Every lane count computes the same bits.
void BM_PpoMinibatch(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  const auto lanes = static_cast<std::size_t>(state.range(1));
  Rng rng(10);
  rl::PolicyNetConfig config;
  config.grid = 16;
  rl::PolicyValueNet net(config, rng);
  nn::Adam adam(net.parameters());
  parallel::ThreadPool pool(lanes);
  nn::BatchParallelFor executor;
  if (pool.size() > 0) {
    executor = [&pool](std::size_t n,
                       const std::function<void(std::size_t)>& fn) {
      pool.parallel_for(n, fn);
    };
  }
  net.set_executor(executor);
  adam.set_executor(executor);
  const auto sparse = [&rng](std::vector<std::size_t> shape, double zeros) {
    nn::Tensor t(std::move(shape));
    for (std::size_t i = 0; i < t.numel(); ++i) {
      t[i] = rng.uniform() < zeros ? 0.0f
                                   : static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    return t;
  };
  const nn::Tensor x = sparse({batch, config.channels_in, 16, 16}, 0.7);
  const nn::Tensor dlogits = sparse({batch, 16 * 16}, 0.5);
  const nn::Tensor dvalue = sparse({batch, 1}, 0.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.forward(x).value[0]);
    net.zero_grad();
    net.backward(dlogits, dvalue);
    benchmark::DoNotOptimize(
        nn::clip_grad_norm(net.parameters(), 0.5, executor));
    adam.step();
    benchmark::ClobberMemory();
  }
  state.SetLabel("grid 16 batch " + std::to_string(batch) + " lanes " +
                 std::to_string(lanes));
}
BENCHMARK(BM_PpoMinibatch)
    ->ArgsProduct({{64, 48}, {1, 2, 3}})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_EnvEpisode(benchmark::State& state) {
  NullEvaluator eval;
  rl::FloorplanEnv env(test_system(), eval, RewardCalculator{},
                       bump::BumpAssigner{}, {.grid = 16});
  Rng rng(3);
  for (auto _ : state) {
    env.reset();
    while (!env.done()) {
      const auto& mask = env.action_mask();
      std::size_t pick = 0;
      for (std::size_t tries = 0; tries < 1000; ++tries) {
        const auto a = rng.uniform_int(std::uint64_t{mask.size()});
        if (mask[a] != 0) {
          pick = a;
          break;
        }
      }
      env.step(pick);
    }
  }
}
BENCHMARK(BM_EnvEpisode)->Unit(benchmark::kMicrosecond);

void BM_PpoTrainEpoch(benchmark::State& state) {
  rl::TrainingSessionConfig config;
  config.env.grid = 16;
  config.ppo.episodes_per_update = 8;
  config.seed = 5;
  std::vector<rl::SessionTask> tasks;
  tasks.push_back(
      {"nnbench", &test_system(), std::make_unique<NullEvaluator>()});
  rl::TrainingSession session(config, std::move(tasks));
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.train_epoch().steps);
  }
}
BENCHMARK(BM_PpoTrainEpoch)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
