// Optimizers and gradient utilities.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "nn/layers.h"

namespace rlplan::nn {

class StateIo;

struct AdamConfig {
  float lr = 3e-4f;
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float eps = 1e-8f;
  float weight_decay = 0.0f;  ///< decoupled (AdamW-style) when > 0
};

/// Adam over a fixed parameter set (Kingma & Ba, 2015). Parameter pointers
/// must stay valid for the optimizer's lifetime.
class Adam {
 public:
  Adam(std::vector<Parameter*> params, AdamConfig config = {});

  /// Applies one update from the accumulated gradients. Does NOT zero grads.
  /// Elementwise, so blocks of elements may run on any lanes of the
  /// executor with the same bits.
  void step();

  /// The executor step() fans blocks of elements out over (empty = serial).
  void set_executor(BatchParallelFor executor) {
    executor_ = std::move(executor);
  }

  void zero_grad();
  void set_lr(float lr) { config_.lr = lr; }
  float lr() const { return config_.lr; }
  long step_count() const { return t_; }

  /// Checkpoint schema (nn/serialize.h): the step count, the parameter
  /// count (expected to match) and the first/second moments, as records
  /// under `prefix`. Restoring into an optimizer built over the same
  /// parameter list resumes updates bit-exactly; a count or shape mismatch
  /// throws std::runtime_error.
  void state_io(StateIo& io, const std::string& prefix);

  /// In-memory copy of the full optimizer state (step count + moments), for
  /// the PPO NaN-guard's restore-last-good path. Cheap next to an update
  /// pass: two tensor copies per parameter.
  struct Snapshot {
    long t = 0;
    std::vector<Tensor> m, v;
  };
  Snapshot snapshot() const { return {t_, m_, v_}; }
  /// Restores a snapshot taken from THIS optimizer (same parameter list).
  void restore(const Snapshot& s) {
    t_ = s.t;
    m_ = s.m;
    v_ = s.v;
  }

 private:
  std::vector<Parameter*> params_;
  AdamConfig config_;
  std::vector<Tensor> m_, v_;
  long t_ = 0;
  BatchParallelFor executor_;
};

/// Rescales all grads so their global L2 norm is at most `max_norm`.
/// Returns the pre-clip norm. Each tensor's squared norm may run on its own
/// lane of `executor`, and the rescale on blocks of elements; the tensors'
/// sums add in parameter order, so the result has the same bits for any
/// executor.
double clip_grad_norm(const std::vector<Parameter*>& params, double max_norm,
                      const BatchParallelFor& executor = {});

}  // namespace rlplan::nn
