// Neural network layers with explicit forward/backward passes.
//
// No autograd: each layer caches what its backward pass needs and exposes
// gradient accumulation into Parameter::grad. This keeps the training stack
// small, deterministic, and finite-difference checkable (tests/nn_grad_test).
//
// Convention: batch-major tensors. Linear: [batch, features];
// Conv2d: [batch, channels, height, width].
//
// Numerics contract. Conv2d lowers its input (im2col, from a zero-padded
// copy of each sample) onto one row kernel, C[m, :] += A[m, k] · B[k, :]
// with SIMD lanes across the row, never across k; Linear's backward runs the
// same kernel. Linear's forward runs it too from batch 8 up, over the input
// transposed to [in, batch] so the batch sits in the SIMD lanes (y[b, o] =
// bias[o], then W[o, i]·x[b, i] for i ascending, the dot form's order), and
// keeps its dot form below that (batch-1 collection forwards). Conv2d's
// forward lowers ceil(256 / pixels) samples side by side, so each row holds
// at least 256 floats; no column mixes with another, so the chunking changes
// no bits.
//
// Conv2d's and Linear's forward and backward equal the direct loops kept in
// tests/nn_oracle.h bit for bit for finite values: every output and gradient
// element adds the same products in the same order into its own float (the
// bias, then the taps in (ic, ky, kx) order). Where the two differ in which
// zero terms they add (w·0 at padding taps, g·w with g == 0, w·x with
// w == 0), those terms are exact no-ops on a sum that never holds −0.0; no
// sum does as long as no bias, and no gradient on entry to backward, is
// −0.0, and initialization, zero_grad and Adam never make one.
//
// The ReLU epilogue (Activation::kReLU) is `if (y < 0) y = 0` on the
// finished sum, like the standalone ReLU it replaced (kept in
// tests/nn_oracle.h), so NaN and −0.0 pass unchanged. Backward zeroes the
// incoming gradient where the output is <= 0, which is exactly where the
// pre-activation is, so a NaN output passes its gradient on.
// backward_params() accumulates bit for bit the parameter gradients
// backward() would, and may skip the input gradient.
//
// Threading. Every pass cuts its work into items that each own whole sums,
// and runs them on the module's executor (below), one dispatch per pass:
// forward by output blocks (Linear's batch-lane form), batch rows (its dot
// form) or sample chunks (Conv2d); Linear's backward by blocks of dW rows,
// each with its db elements, and blocks of dx rows; Conv2d's backward by
// blocks of dW columns (each lowering the samples' taps it needs into its
// own scratch), blocks of 16-position runs of dx, and db channels. Each
// element's whole sum runs on one lane in the serial order, so results do
// not depend on the lane count, the partition, or the schedule; never are
// per-lane partial sums of one element reduced afterwards. Passes too small
// to pay for a dispatch run on the calling thread. src/nn is compiled with
// -ffp-contract=off, so no product and sum are fused into one rounding.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/tensor.h"
#include "util/rng.h"

namespace rlplan::nn {

/// Executor for fanning independent work items out over lanes: must call
/// fn(i) exactly once for every i in [0, n), return only when all calls have
/// finished, and bring an exception from fn back to its caller
/// (parallel::ThreadPool::parallel_for does all three). Each layer holds its
/// own, set by the layer's owner (Module::set_executor); it refers to lanes
/// the owner keeps alive and serves one pass at a time. An empty executor
/// runs every item on the calling thread.
using BatchParallelFor =
    std::function<void(std::size_t n, const std::function<void(std::size_t)>&)>;

/// Calls fn(i) for every i in [0, n): through `executor` when one is set and
/// there is more than one item, in index order on the calling thread
/// otherwise. A template, so the serial path (notably batch-1 action
/// forwards) never pays for a std::function wrap.
template <typename Fn>
void for_each_item(const BatchParallelFor& executor, std::size_t n, Fn&& fn) {
  if (n > 1 && executor) {
    executor(n, std::function<void(std::size_t)>(fn));
    return;
  }
  for (std::size_t i = 0; i < n; ++i) fn(i);
}

/// Optional elementwise epilogue of Linear and Conv2d, applied to the
/// finished sum (bias plus every product).
enum class Activation { kNone, kReLU };

/// Trainable tensor with its gradient accumulator.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;

  explicit Parameter(std::string n, std::vector<std::size_t> shape)
      : name(std::move(n)), value(shape), grad(shape) {}
};

class Module {
 public:
  virtual ~Module() = default;

  /// Computes outputs and caches activations for backward().
  virtual Tensor forward(const Tensor& x) = 0;

  /// Given dL/d(output), accumulates parameter grads and returns dL/d(input).
  /// Must be called after forward() with a matching batch.
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// As backward(), for a module whose input gradient nobody reads: the
  /// parameter gradients accumulate bit for bit as backward() would
  /// accumulate them; the input gradient need not be computed.
  virtual void backward_params(const Tensor& grad_out) { backward(grad_out); }

  virtual std::vector<Parameter*> parameters() { return {}; }

  void zero_grad();

  /// The executor this module's forward and backward passes fan out over
  /// (empty = serial, the default); Sequential passes it to every layer.
  virtual void set_executor(BatchParallelFor executor) {
    executor_ = std::move(executor);
  }

 protected:
  BatchParallelFor executor_;
};

/// y = act(x W^T + b), W: [out, in].
class Linear : public Module {
 public:
  Linear(std::size_t in_features, std::size_t out_features, Rng& rng,
         std::string name = "linear", Activation act = Activation::kNone);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }
  Parameter& weight() { return weight_; }
  Parameter& bias() { return bias_; }

 private:
  std::size_t in_, out_;
  Activation act_;
  Parameter weight_, bias_;
  Tensor cached_input_;
  Tensor cached_output_;  // kept only with an epilogue, for its mask
};

/// 2D convolution, square kernel, symmetric zero padding, then `act`.
/// forward() throws std::invalid_argument when the padded input is smaller
/// than the kernel.
class Conv2d : public Module {
 public:
  Conv2d(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, std::size_t stride, std::size_t padding,
         Rng& rng, std::string name = "conv",
         Activation act = Activation::kNone);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override {
    return backward_pass(grad_out, true);
  }
  /// Skips the input gradient.
  void backward_params(const Tensor& grad_out) override {
    backward_pass(grad_out, false);
  }
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }

  std::size_t out_size(std::size_t in_size) const {
    return (in_size + 2 * padding_ - kernel_) / stride_ + 1;
  }

 private:
  /// Accumulates db and dW; returns dx when `input_grad`, else nothing.
  Tensor backward_pass(const Tensor& grad_out, bool input_grad);

  std::size_t in_ch_, out_ch_, kernel_, stride_, padding_;
  Activation act_;
  Parameter weight_, bias_;  // weight: [out_ch, in_ch, k, k]
  Tensor cached_input_;
  Tensor cached_output_;  // kept only with an epilogue, for its mask
};

/// Collapses [batch, ...] to [batch, features]. Shape-only; no copy math.
class Flatten : public Module {
 public:
  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;

 private:
  std::vector<std::size_t> cached_shape_;
};

/// Owning chain of layers applied in order.
class Sequential : public Module {
 public:
  Sequential() = default;

  /// Appends a layer; returns a reference for inline composition.
  Sequential& add(std::unique_ptr<Module> layer);

  Tensor forward(const Tensor& x) override;
  Tensor backward(const Tensor& grad_out) override;
  /// Runs backward() on every layer but the first, which gets
  /// backward_params().
  void backward_params(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override;
  void set_executor(BatchParallelFor executor) override;

  std::size_t size() const { return layers_.size(); }

 private:
  std::vector<std::unique_ptr<Module>> layers_;
};

/// Kaiming-uniform initialization bound for a given fan-in.
float kaiming_bound(std::size_t fan_in);

}  // namespace rlplan::nn
