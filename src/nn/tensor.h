// Dense row-major float tensor (rank 0-4) — the numeric substrate of the
// from-scratch RL training stack.
//
// Deliberately minimal: fixed dtype (float), contiguous storage, explicit
// shapes. Layers implement their own forward/backward loops against raw
// spans; Tensor provides shape bookkeeping, element access, and a few
// whole-tensor helpers.
#pragma once

#include <cassert>
#include <cstddef>
#include <span>
#include <vector>

namespace rlplan::nn {

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::vector<std::size_t> shape);
  Tensor(std::vector<std::size_t> shape, std::vector<float> data);

  static Tensor full(std::vector<std::size_t> shape, float value);

  const std::vector<std::size_t>& shape() const { return shape_; }
  std::size_t rank() const { return shape_.size(); }
  std::size_t numel() const { return data_.size(); }
  std::size_t dim(std::size_t i) const { return shape_.at(i); }
  bool same_shape(const Tensor& o) const { return shape_ == o.shape_; }

  std::span<float> data() { return data_; }
  std::span<const float> data() const { return data_; }

  float& operator[](std::size_t i) { return data_[i]; }
  float operator[](std::size_t i) const { return data_[i]; }

  // Multi-dimensional accessors (debug-checked).
  float& at(std::size_t i) {
    assert(rank() == 1);
    return data_[i];
  }
  float& at(std::size_t i, std::size_t j) {
    assert(rank() == 2);
    return data_[i * shape_[1] + j];
  }
  float at(std::size_t i, std::size_t j) const {
    assert(rank() == 2);
    return data_[i * shape_[1] + j];
  }
  float& at(std::size_t i, std::size_t j, std::size_t k) {
    assert(rank() == 3);
    return data_[(i * shape_[1] + j) * shape_[2] + k];
  }
  float at(std::size_t i, std::size_t j, std::size_t k) const {
    assert(rank() == 3);
    return data_[(i * shape_[1] + j) * shape_[2] + k];
  }
  float& at(std::size_t i, std::size_t j, std::size_t k, std::size_t l) {
    assert(rank() == 4);
    return data_[((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l];
  }
  float at(std::size_t i, std::size_t j, std::size_t k, std::size_t l) const {
    assert(rank() == 4);
    return data_[((i * shape_[1] + j) * shape_[2] + k) * shape_[3] + l];
  }

  void fill(float v);
  /// Reinterprets the shape; total element count must match.
  void reshape(std::vector<std::size_t> new_shape);

  // Elementwise in-place helpers.
  Tensor& add_(const Tensor& o);
  Tensor& scale_(float s);

  double sum() const;
  /// Squared L2 norm of all elements.
  double squared_norm() const;

 private:
  std::vector<std::size_t> shape_;
  std::vector<float> data_;
};

/// Product of a shape vector's entries (empty shape = scalar = 1).
std::size_t shape_numel(const std::vector<std::size_t>& shape);

}  // namespace rlplan::nn
