// Test-only reference for nn::Conv2d: the direct convolution loops the
// library ran before its lowered kernels, kept verbatim. nn::Conv2d's forward
// and backward must match them bit for bit for finite values (nn_kernel_test's
// differential fuzz and its PolicyValueNet twin). Serial over the batch: the
// rows of a batch are independent, so the library's batch executor changes
// nothing these loops would compute.
#pragma once

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

}  // namespace rlplan::nn::oracle
