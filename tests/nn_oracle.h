// Test-only references for nn's layers. oracle::Conv2d is the direct
// convolution loops the library ran before its lowered kernels, kept
// verbatim; nn::Conv2d's forward and backward must match them bit for bit for
// finite values (nn_kernel_test's differential fuzz and its PolicyValueNet
// twin). Serial: the library's executors only split each pass into items
// that own whole sums, so they change nothing these loops would compute.
// oracle::Linear is the naive o-at-a-time loop nn::Linear's forward and
// backward must equal bit for bit (its backward skips zero gradients, like
// the direct convolution loop). oracle::ReLU is the standalone module the library ran before the ReLU
// epilogue of Linear and Conv2d, kept verbatim as that epilogue's reference.
// oracle::Tanh is a smooth activation for the finite-difference checks.
#pragma once

#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "nn/layers.h"

namespace rlplan::nn::oracle {

class Conv2d : public Module {
 public:
  Conv2d(std::size_t in_channels, std::size_t out_channels,
         std::size_t kernel, std::size_t stride, std::size_t padding,
         std::string name = "conv")
      : in_ch_(in_channels),
        out_ch_(out_channels),
        kernel_(kernel),
        stride_(stride),
        padding_(padding),
        weight_(name + ".weight", {out_channels, in_channels, kernel, kernel}),
        bias_(name + ".bias", {out_channels}) {}

  Tensor forward(const Tensor& x) override {
    if (x.rank() != 4 || x.dim(1) != in_ch_) {
      throw std::invalid_argument("oracle::Conv2d::forward: bad input shape");
    }
    cached_input_ = x;
    const std::size_t batch = x.dim(0);
    const std::size_t h = x.dim(2);
    const std::size_t w = x.dim(3);
    const std::size_t ho = out_size(h);
    const std::size_t wo = out_size(w);
    Tensor y({batch, out_ch_, ho, wo});

    for (std::size_t b = 0; b < batch; ++b) {
      for (std::size_t oc = 0; oc < out_ch_; ++oc) {
        const float bias = bias_.value[oc];
        for (std::size_t oy = 0; oy < ho; ++oy) {
          for (std::size_t ox = 0; ox < wo; ++ox) {
            float acc = bias;
            for (std::size_t ic = 0; ic < in_ch_; ++ic) {
              for (std::size_t ky = 0; ky < kernel_; ++ky) {
                const std::ptrdiff_t iy =
                    static_cast<std::ptrdiff_t>(oy * stride_ + ky) -
                    static_cast<std::ptrdiff_t>(padding_);
                if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
                for (std::size_t kx = 0; kx < kernel_; ++kx) {
                  const std::ptrdiff_t ix =
                      static_cast<std::ptrdiff_t>(ox * stride_ + kx) -
                      static_cast<std::ptrdiff_t>(padding_);
                  if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
                  acc += weight_.value.at(oc, ic, ky, kx) *
                         x.at(b, ic, static_cast<std::size_t>(iy),
                              static_cast<std::size_t>(ix));
                }
              }
            }
            y.at(b, oc, oy, ox) = acc;
          }
        }
      }
    }
    return y;
  }

  Tensor backward(const Tensor& grad_out) override {
    const Tensor& x = cached_input_;
    const std::size_t batch = x.dim(0);
    const std::size_t h = x.dim(2);
    const std::size_t w = x.dim(3);
    const std::size_t ho = out_size(h);
    const std::size_t wo = out_size(w);
    if (grad_out.rank() != 4 || grad_out.dim(0) != batch ||
        grad_out.dim(1) != out_ch_ || grad_out.dim(2) != ho ||
        grad_out.dim(3) != wo) {
      throw std::invalid_argument("oracle::Conv2d::backward: grad shape");
    }
    Tensor dx({batch, in_ch_, h, w});

    for (std::size_t b = 0; b < batch; ++b) {
      for (std::size_t oc = 0; oc < out_ch_; ++oc) {
        for (std::size_t oy = 0; oy < ho; ++oy) {
          for (std::size_t ox = 0; ox < wo; ++ox) {
            const float g = grad_out.at(b, oc, oy, ox);
            if (g == 0.0f) continue;
            bias_.grad[oc] += g;
            for (std::size_t ic = 0; ic < in_ch_; ++ic) {
              for (std::size_t ky = 0; ky < kernel_; ++ky) {
                const std::ptrdiff_t iy =
                    static_cast<std::ptrdiff_t>(oy * stride_ + ky) -
                    static_cast<std::ptrdiff_t>(padding_);
                if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
                for (std::size_t kx = 0; kx < kernel_; ++kx) {
                  const std::ptrdiff_t ix =
                      static_cast<std::ptrdiff_t>(ox * stride_ + kx) -
                      static_cast<std::ptrdiff_t>(padding_);
                  if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
                  const auto uiy = static_cast<std::size_t>(iy);
                  const auto uix = static_cast<std::size_t>(ix);
                  weight_.grad.at(oc, ic, ky, kx) += g * x.at(b, ic, uiy, uix);
                  dx.at(b, ic, uiy, uix) +=
                      g * weight_.value.at(oc, ic, ky, kx);
                }
              }
            }
          }
        }
      }
    }
    return dx;
  }

  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }

  std::size_t out_size(std::size_t in_size) const {
    return (in_size + 2 * padding_ - kernel_) / stride_ + 1;
  }

 private:
  std::size_t in_ch_, out_ch_, kernel_, stride_, padding_;
  Parameter weight_, bias_;  // weight: [out_ch, in_ch, k, k]
  Tensor cached_input_;
};

class Linear : public Module {
 public:
  Linear(std::size_t in_features, std::size_t out_features,
         std::string name = "linear")
      : in_(in_features),
        out_(out_features),
        weight_(name + ".weight", {out_features, in_features}),
        bias_(name + ".bias", {out_features}) {}

  Tensor forward(const Tensor& x) override {
    if (x.rank() != 2 || x.dim(1) != in_) {
      throw std::invalid_argument("oracle::Linear::forward: bad input shape");
    }
    cached_input_ = x;
    Tensor y({x.dim(0), out_});
    for (std::size_t b = 0; b < x.dim(0); ++b) {
      for (std::size_t o = 0; o < out_; ++o) {
        float acc = bias_.value[o];
        for (std::size_t i = 0; i < in_; ++i) {
          acc += weight_.value.at(o, i) * x.at(b, i);
        }
        y.at(b, o) = acc;
      }
    }
    return y;
  }

  Tensor backward(const Tensor& grad_out) override {
    const Tensor& x = cached_input_;
    if (grad_out.rank() != 2 || grad_out.dim(0) != x.dim(0) ||
        grad_out.dim(1) != out_) {
      throw std::invalid_argument("oracle::Linear::backward: grad shape");
    }
    Tensor dx(x.shape());
    for (std::size_t b = 0; b < x.dim(0); ++b) {
      for (std::size_t o = 0; o < out_; ++o) {
        const float g = grad_out.at(b, o);
        if (g == 0.0f) continue;
        bias_.grad[o] += g;
        for (std::size_t i = 0; i < in_; ++i) {
          weight_.grad.at(o, i) += g * x.at(b, i);
          dx.at(b, i) += g * weight_.value.at(o, i);
        }
      }
    }
    return dx;
  }

  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }

 private:
  std::size_t in_, out_;
  Parameter weight_, bias_;
  Tensor cached_input_;
};

class ReLU : public Module {
 public:
  Tensor forward(const Tensor& x) override {
    cached_input_ = x;
    Tensor y = x;
    for (std::size_t i = 0; i < y.numel(); ++i) {
      if (y[i] < 0.0f) y[i] = 0.0f;
    }
    return y;
  }

  Tensor backward(const Tensor& grad_out) override {
    if (!grad_out.same_shape(cached_input_)) {
      throw std::invalid_argument("oracle::ReLU::backward: grad shape");
    }
    Tensor dx = grad_out;
    for (std::size_t i = 0; i < dx.numel(); ++i) {
      if (cached_input_[i] <= 0.0f) dx[i] = 0.0f;
    }
    return dx;
  }

 private:
  Tensor cached_input_;
};

class Tanh : public Module {
 public:
  Tensor forward(const Tensor& x) override {
    Tensor y = x;
    for (std::size_t i = 0; i < y.numel(); ++i) y[i] = std::tanh(y[i]);
    cached_output_ = y;
    return y;
  }

  Tensor backward(const Tensor& grad_out) override {
    if (!grad_out.same_shape(cached_output_)) {
      throw std::invalid_argument("oracle::Tanh::backward: grad shape");
    }
    Tensor dx = grad_out;
    for (std::size_t i = 0; i < dx.numel(); ++i) {
      const float y = cached_output_[i];
      dx[i] *= 1.0f - y * y;
    }
    return dx;
  }

 private:
  Tensor cached_output_;
};

}  // namespace rlplan::nn::oracle
