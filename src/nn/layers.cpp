#include "nn/layers.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace rlplan::nn {

void Module::zero_grad() {
  for (Parameter* p : parameters()) p->grad.fill(0.0f);
}

float kaiming_bound(std::size_t fan_in) {
  return std::sqrt(6.0f / static_cast<float>(fan_in > 0 ? fan_in : 1));
}

namespace {
void init_uniform(Tensor& t, float bound, Rng& rng) {
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = static_cast<float>(rng.uniform(-bound, bound));
  }
}

BatchParallelFor g_batch_parallel_for;

/// Runs fn over [0, n): through the installed executor when one is set and
/// the batch is big enough to amortize the dispatch, serially otherwise.
/// Templated so the serial path (notably batch-1 action forwards) never pays
/// for a std::function wrap; the type erasure happens only on dispatch.
template <typename Fn>
void for_each_batch_row(std::size_t n, Fn&& fn) {
  if (n > 1 && g_batch_parallel_for) {
    g_batch_parallel_for(n, std::function<void(std::size_t)>(fn));
    return;
  }
  for (std::size_t i = 0; i < n; ++i) fn(i);
}

/// The row kernel behind Conv2d and Linear backward: adds terms a·b[0, n) to
/// one output row c[0, n). Every element of c takes the terms in the order
/// add() receives them, each product rounded and added to the element's own
/// float, and a term with a == 0 is skipped — the order of a direct loop
/// with a `g == 0` skip, so results match such a loop bit for bit. SIMD lanes
/// run across n only; four pending terms are applied in one pass over c.
class RowKernel {
 public:
  RowKernel(float* c, std::size_t n) : c_(c), n_(n) {}

  /// Branch-free in a: a zero term is written and then overwritten, since
  /// ~half the gradients behind a ReLU are zero in no predictable pattern.
  void add(float a, const float* b) {
    a_[pending_] = a;
    b_[pending_] = b;
    pending_ += a != 0.0f;
    if (pending_ == 4) flush();
  }

  /// Applies the pending terms; call once after the last add().
  void flush() {
    float* c = c_;
    const std::size_t n = n_;
    if (pending_ == 4) {
      const float a0 = a_[0], a1 = a_[1], a2 = a_[2], a3 = a_[3];
      const float *b0 = b_[0], *b1 = b_[1], *b2 = b_[2], *b3 = b_[3];
      for (std::size_t j = 0; j < n; ++j) {
        float acc = c[j];
        acc += a0 * b0[j];
        acc += a1 * b1[j];
        acc += a2 * b2[j];
        acc += a3 * b3[j];
        c[j] = acc;
      }
    } else {
      for (std::size_t t = 0; t < pending_; ++t) {
        const float a = a_[t];
        const float* b = b_[t];
        for (std::size_t j = 0; j < n; ++j) c[j] += a * b[j];
      }
    }
    pending_ = 0;
  }

 private:
  float* c_;
  std::size_t n_;
  float a_[4] = {};
  const float* b_[4] = {};
  std::size_t pending_ = 0;
};

/// C[m, 0:n] += Σ_k A[m, k] · B[k, 0:n] for every m < rows, k ascending, with
/// A[m, k] = a[m * a_row + k * a_col] so a transposed operand needs no copy.
void gemm_rows(std::size_t rows, std::size_t n, std::size_t depth,
               const float* a, std::size_t a_row, std::size_t a_col,
               const float* b, std::size_t ldb, float* c, std::size_t ldc) {
  for (std::size_t m = 0; m < rows; ++m) {
    RowKernel row(c + m * ldc, n);
    for (std::size_t k = 0; k < depth; ++k) {
      row.add(a[m * a_row + k * a_col], b + k * ldb);
    }
    row.flush();
  }
}

/// A convolution applied to input planes of h × w, giving ho × wo.
struct ConvGeometry {
  std::size_t channels, kernel, stride, padding, h, w, ho, wo;

  std::size_t taps() const { return channels * kernel * kernel; }
  std::size_t pixels() const { return ho * wo; }
  /// For each input coordinate i < extent and kernel offset k, the output
  /// coordinate below out_extent that reads i at k, at [i * kernel + k], or
  /// kNone when no output does.
  std::vector<std::size_t> readers(std::size_t extent,
                                   std::size_t out_extent) const {
    std::vector<std::size_t> table(extent * kernel, kNone);
    for (std::size_t o = 0; o < out_extent; ++o) {
      for (std::size_t k = 0; k < kernel; ++k) {
        const std::size_t i = o * stride + k;  // in padded coordinates
        if (i >= padding && i - padding < extent) {
          table[(i - padding) * kernel + k] = o;
        }
      }
    }
    return table;
  }
  /// Per tap (ic, ky, kx), the element of a sample zero-padded to
  /// (h + 2·padding) × (w + 2·padding) that output pixel (0, 0) reads; pixel
  /// (oy, ox) reads (oy · (w + 2·padding) + ox) · stride elements further on.
  std::vector<std::size_t> tap_offsets() const {
    std::vector<std::size_t> offsets;
    for (std::size_t ic = 0; ic < channels; ++ic) {
      for (std::size_t ky = 0; ky < kernel; ++ky) {
        for (std::size_t kx = 0; kx < kernel; ++kx) {
          offsets.push_back((ic * (h + 2 * padding) + ky) * (w + 2 * padding) +
                            kx);
        }
      }
    }
    return offsets;
  }
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
};

/// im2col of one sample x[channels, h, w]: element (tap, pixel), with
/// tap = (ic, ky, kx) and pixel = (oy, ox), goes to
/// out[tap * tap_stride + pixel * pixel_stride], one of the strides being 1.
/// It reads a zero-padded copy of x kept in `padded`, at g.tap_offsets(), so
/// padding taps read 0 and no element is bounds-tested; the loops run along
/// the unit stride.
void lower(const ConvGeometry& g, const std::vector<std::size_t>& offsets,
           const float* x, float* out, std::size_t tap_stride,
           std::size_t pixel_stride, std::vector<float>& padded) {
  const std::size_t hp = g.h + 2 * g.padding;
  const std::size_t wp = g.w + 2 * g.padding;
  padded.assign(g.channels * hp * wp, 0.0f);
  for (std::size_t ic = 0; ic < g.channels; ++ic) {
    for (std::size_t iy = 0; iy < g.h; ++iy) {
      std::copy_n(x + (ic * g.h + iy) * g.w, g.w,
                  padded.data() + (ic * hp + iy + g.padding) * wp + g.padding);
    }
  }
  if (tap_stride == 1) {
    for (std::size_t oy = 0; oy < g.ho; ++oy) {
      for (std::size_t ox = 0; ox < g.wo; ++ox) {
        const float* src = padded.data() + (oy * wp + ox) * g.stride;
        float* dst = out + (oy * g.wo + ox) * pixel_stride;
        for (std::size_t t = 0; t < offsets.size(); ++t) {
          dst[t] = src[offsets[t]];
        }
      }
    }
    return;
  }
  for (std::size_t t = 0; t < offsets.size(); ++t) {
    const float* src = padded.data() + offsets[t];
    float* dst = out + t * tap_stride;
    for (std::size_t oy = 0; oy < g.ho; ++oy) {
      for (std::size_t ox = 0; ox < g.wo; ++ox) {
        dst[oy * g.wo + ox] = src[(oy * wp + ox) * g.stride];
      }
    }
  }
}

/// dst[j * rows + i] = src[i * cols + j]: a [rows, cols] block transposed,
/// 16 source rows at a time so the writes run along cache lines.
void transpose(std::size_t rows, std::size_t cols, const float* src,
               float* dst) {
  for (std::size_t i0 = 0; i0 < rows; i0 += 16) {
    const std::size_t i1 = std::min(rows, i0 + 16);
    for (std::size_t j = 0; j < cols; ++j) {
      for (std::size_t i = i0; i < i1; ++i) {
        dst[j * rows + i] = src[i * cols + j];
      }
    }
  }
}

/// The ReLU epilogue over y[0, n): `if (y < 0) y = 0`, in a form that
/// vectorizes; NaN and −0.0 pass unchanged.
void relu(float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] = y[i] < 0.0f ? 0.0f : y[i];
}

/// dL/d(sum) from dL/d(output), whose shape the caller has checked against
/// the output's: grad_out itself without an epilogue; with ReLU, a copy in
/// `storage` zeroed where the output is <= 0 — exactly where the
/// pre-activation is, and a NaN output passes its gradient on.
const Tensor& through_epilogue(Activation act, const Tensor& output,
                               const Tensor& grad_out, Tensor& storage) {
  if (act == Activation::kNone) return grad_out;
  storage = grad_out;
  for (std::size_t i = 0; i < storage.numel(); ++i) {
    if (output[i] <= 0.0f) storage[i] = 0.0f;
  }
  return storage;
}

/// Conv2d's forward lowers whole samples side by side until a row of the
/// lowering holds at least this many floats.
constexpr std::size_t kMinRowFloats = 256;
}  // namespace

void set_batch_parallel_for(BatchParallelFor executor) {
  g_batch_parallel_for = std::move(executor);
}

BatchParallelFor exchange_batch_parallel_for(BatchParallelFor executor) {
  BatchParallelFor previous = std::move(g_batch_parallel_for);
  g_batch_parallel_for = std::move(executor);
  return previous;
}

// ---------------------------------------------------------------- Linear --

Linear::Linear(std::size_t in_features, std::size_t out_features, Rng& rng,
               std::string name, Activation act)
    : in_(in_features),
      out_(out_features),
      act_(act),
      weight_(name + ".weight", {out_features, in_features}),
      bias_(name + ".bias", {out_features}) {
  init_uniform(weight_.value, kaiming_bound(in_), rng);
  init_uniform(bias_.value, 1.0f / std::sqrt(static_cast<float>(in_)), rng);
}

Tensor Linear::forward(const Tensor& x) {
  if (x.rank() != 2 || x.dim(1) != in_) {
    throw std::invalid_argument("Linear::forward: expected [batch, " +
                                std::to_string(in_) + "]");
  }
  cached_input_ = x;
  const std::size_t batch = x.dim(0);
  Tensor y({batch, out_});
  const auto xd = x.data();
  const auto wd = weight_.value.data();
  const auto bd = bias_.value.data();
  // Register-blocked over 4 outputs: one load of xr[i] feeds 4 independent
  // FMA chains, hiding the add latency the single-accumulator loop is bound
  // by. Each output still accumulates sequentially over i in one float, so
  // results are bit-identical to the naive o-at-a-time loop (pinned by
  // nn_batch_test).
  for_each_batch_row(batch, [&](std::size_t b) {
    const float* xr = xd.data() + b * in_;
    float* yr = y.data().data() + b * out_;
    std::size_t o = 0;
    for (; o + 4 <= out_; o += 4) {
      const float* w0 = wd.data() + o * in_;
      const float* w1 = w0 + in_;
      const float* w2 = w1 + in_;
      const float* w3 = w2 + in_;
      float a0 = bd[o];
      float a1 = bd[o + 1];
      float a2 = bd[o + 2];
      float a3 = bd[o + 3];
      for (std::size_t i = 0; i < in_; ++i) {
        const float xi = xr[i];
        a0 += w0[i] * xi;
        a1 += w1[i] * xi;
        a2 += w2[i] * xi;
        a3 += w3[i] * xi;
      }
      yr[o] = a0;
      yr[o + 1] = a1;
      yr[o + 2] = a2;
      yr[o + 3] = a3;
    }
    for (; o < out_; ++o) {
      const float* wr = wd.data() + o * in_;
      float acc = bd[o];
      for (std::size_t i = 0; i < in_; ++i) acc += wr[i] * xr[i];
      yr[o] = acc;
    }
    if (act_ == Activation::kReLU) relu(yr, out_);
  });
  if (act_ == Activation::kReLU) cached_output_ = y;
  return y;
}

Tensor Linear::backward(const Tensor& grad_out) {
  const std::size_t batch = cached_input_.dim(0);
  if (grad_out.rank() != 2 || grad_out.dim(0) != batch ||
      grad_out.dim(1) != out_) {
    throw std::invalid_argument("Linear::backward: grad shape mismatch");
  }
  Tensor masked;
  const float* gd =
      through_epilogue(act_, cached_output_, grad_out, masked).data().data();
  Tensor dx({batch, in_});
  const float* wd = weight_.value.data().data();
  float* dbd = bias_.grad.data().data();
  // dW[o, :] += Σ_b g[b, o] · x[b, :] and dx[b, :] += Σ_o g[b, o] · W[o, :]:
  // b ascending for every dW element, o ascending for every dx element, zero
  // gradients skipped — the order of the direct loop over (b, o). db adds the
  // zero gradients too: exact no-ops on its +0-started sums.
  gemm_rows(out_, in_, batch, gd, 1, out_, cached_input_.data().data(), in_,
            weight_.grad.data().data(), in_);
  gemm_rows(batch, in_, out_, gd, out_, 1, wd, in_, dx.data().data(), in_);
  for (std::size_t b = 0; b < batch; ++b) {
    for (std::size_t o = 0; o < out_; ++o) dbd[o] += gd[b * out_ + o];
  }
  return dx;
}

// ---------------------------------------------------------------- Conv2d --

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t padding,
               Rng& rng, std::string name, Activation act)
    : in_ch_(in_channels),
      out_ch_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      act_(act),
      weight_(name + ".weight", {out_channels, in_channels, kernel, kernel}),
      bias_(name + ".bias", {out_channels}) {
  if (kernel == 0 || stride == 0) {
    throw std::invalid_argument("Conv2d: kernel and stride must be >= 1");
  }
  const std::size_t fan_in = in_channels * kernel * kernel;
  init_uniform(weight_.value, kaiming_bound(fan_in), rng);
  init_uniform(bias_.value, 1.0f / std::sqrt(static_cast<float>(fan_in)), rng);
}

Tensor Conv2d::forward(const Tensor& x) {
  if (x.rank() != 4 || x.dim(1) != in_ch_) {
    throw std::invalid_argument("Conv2d::forward: expected [batch, " +
                                std::to_string(in_ch_) + ", H, W]");
  }
  const std::size_t h = x.dim(2);
  const std::size_t w = x.dim(3);
  if (h + 2 * padding_ < kernel_ || w + 2 * padding_ < kernel_) {
    throw std::invalid_argument(
        "Conv2d::forward: padded input smaller than the " +
        std::to_string(kernel_) + "x" + std::to_string(kernel_) + " kernel");
  }
  cached_input_ = x;
  const std::size_t batch = x.dim(0);
  const ConvGeometry g{in_ch_, kernel_, stride_, padding_, h, w,
                       out_size(h), out_size(w)};
  const std::size_t taps = g.taps();
  const std::size_t pixels = g.pixels();
  const std::size_t per_chunk = (kMinRowFloats + pixels - 1) / pixels;
  const std::size_t chunks = (batch + per_chunk - 1) / per_chunk;
  const std::vector<std::size_t> offsets = g.tap_offsets();
  Tensor y({batch, out_ch_, g.ho, g.wo});
  const float* wd = weight_.value.data().data();
  const float* xd = x.data().data();
  float* yd = y.data().data();

  // Per chunk of samples, lowered side by side into col[tap, (s, pixel)]:
  // sum[oc, :] = bias[oc] + Σ_tap W[oc, tap] · col[tap, :], taps in
  // (ic, ky, kx) order — the direct loop's order, plus w·0 terms at padding
  // taps, exact no-ops under the contract in layers.h. Then each sample's
  // columns go to y[b, oc, :] through the epilogue.
  for_each_batch_row(chunks, [&](std::size_t c) {
    const std::size_t b0 = c * per_chunk;
    const std::size_t samples = std::min(per_chunk, batch - b0);
    const std::size_t n = samples * pixels;
    std::vector<float> col(taps * n);
    std::vector<float> sum(out_ch_ * n);
    std::vector<float> padded;
    for (std::size_t s = 0; s < samples; ++s) {
      lower(g, offsets, xd + (b0 + s) * in_ch_ * h * w,
            col.data() + s * pixels, n, 1, padded);
    }
    for (std::size_t oc = 0; oc < out_ch_; ++oc) {
      std::fill_n(sum.data() + oc * n, n, bias_.value[oc]);
    }
    gemm_rows(out_ch_, n, taps, wd, taps, 1, col.data(), n, sum.data(), n);
    for (std::size_t s = 0; s < samples; ++s) {
      for (std::size_t oc = 0; oc < out_ch_; ++oc) {
        float* dst = yd + ((b0 + s) * out_ch_ + oc) * pixels;
        std::copy_n(sum.data() + oc * n + s * pixels, pixels, dst);
        if (act_ == Activation::kReLU) relu(dst, pixels);
      }
    }
  });
  if (act_ == Activation::kReLU) cached_output_ = y;
  return y;
}

Tensor Conv2d::backward_pass(const Tensor& grad_out, bool input_grad) {
  const Tensor& x = cached_input_;
  const std::size_t batch = x.dim(0);
  const std::size_t h = x.dim(2);
  const std::size_t w = x.dim(3);
  const ConvGeometry g{in_ch_, kernel_, stride_, padding_, h, w,
                       out_size(h), out_size(w)};
  if (grad_out.rank() != 4 || grad_out.dim(0) != batch ||
      grad_out.dim(1) != out_ch_ || grad_out.dim(2) != g.ho ||
      grad_out.dim(3) != g.wo) {
    throw std::invalid_argument("Conv2d::backward: grad shape mismatch");
  }
  const std::size_t taps = g.taps();
  const std::size_t pixels = g.pixels();
  const std::size_t in_plane = in_ch_ * h * w;
  const std::size_t out_plane = out_ch_ * pixels;
  Tensor masked;
  const float* gd =
      through_epilogue(act_, cached_output_, grad_out, masked).data().data();
  const float* xd = x.data().data();
  const float* wd = weight_.value.data().data();
  float* dwd = weight_.grad.data().data();
  float* dbd = bias_.grad.data().data();

  // db and dW: every element takes (b, oy, ox) in ascending order, like the
  // direct loop. dW runs the row kernel over the transposed lowering
  // colT[pixel, tap], skipping zero gradients; db adds them (exact no-ops on
  // its +0-started sums), so its out_ch chains run side by side.
  std::vector<float> col(pixels * taps);
  std::vector<float> padded;
  const std::vector<std::size_t> offsets = g.tap_offsets();
  for (std::size_t b = 0; b < batch; ++b) {
    const float* gb = gd + b * out_plane;
    for (std::size_t p = 0; p < pixels; ++p) {
      for (std::size_t oc = 0; oc < out_ch_; ++oc) {
        dbd[oc] += gb[oc * pixels + p];
      }
    }
    lower(g, offsets, xd + b * in_plane, col.data(), 1, taps, padded);
    gemm_rows(out_ch_, taps, pixels, gb, pixels, 1, col.data(), taps, dwd,
              taps);
  }
  if (!input_grad) return {};

  // dx over batch-minor copies, samples in the SIMD lanes: one row per input
  // element, fed (oc, ky↓, kx↓). For a fixed element, descending (ky, kx) is
  // ascending (oy, ox), so it takes (oc, oy, ox) in the direct loop's order;
  // the g·w terms with g == 0 that loop skipped add exact zeros to a
  // +0-started accumulator.
  std::vector<float> gt(batch * out_plane);
  std::vector<float> dxt(batch * in_plane, 0.0f);
  transpose(batch, out_plane, gd, gt.data());
  const std::vector<std::size_t> oy_of = g.readers(h, g.ho);
  const std::vector<std::size_t> ox_of = g.readers(w, g.wo);
  for (std::size_t iy = 0; iy < h; ++iy) {
    for (std::size_t ix = 0; ix < w; ++ix) {
      for (std::size_t ic = 0; ic < in_ch_; ++ic) {
        RowKernel row(dxt.data() + ((ic * h + iy) * w + ix) * batch, batch);
        for (std::size_t oc = 0; oc < out_ch_; ++oc) {
          const float* wk = wd + (oc * in_ch_ + ic) * kernel_ * kernel_;
          for (std::size_t ky = kernel_; ky-- > 0;) {
            const std::size_t oy = oy_of[iy * kernel_ + ky];
            if (oy == ConvGeometry::kNone) continue;
            for (std::size_t kx = kernel_; kx-- > 0;) {
              const std::size_t ox = ox_of[ix * kernel_ + kx];
              if (ox == ConvGeometry::kNone) continue;
              const std::size_t out_at = oc * pixels + oy * g.wo + ox;
              row.add(wk[ky * kernel_ + kx], gt.data() + out_at * batch);
            }
          }
        }
        row.flush();
      }
    }
  }
  Tensor dx({batch, in_ch_, h, w});
  transpose(in_plane, batch, dxt.data(), dx.data().data());
  return dx;
}

// ---------------------------------------------------------------- Flatten --

Tensor Flatten::forward(const Tensor& x) {
  if (x.rank() < 2) {
    throw std::invalid_argument("Flatten::forward: rank must be >= 2");
  }
  cached_shape_ = x.shape();
  Tensor y = x;
  // Inner size is the product of the non-batch dims, not numel()/dim(0):
  // the quotient form divides by zero on an empty batch.
  std::size_t inner = 1;
  for (std::size_t d = 1; d < x.rank(); ++d) inner *= x.dim(d);
  y.reshape({x.dim(0), inner});
  return y;
}

Tensor Flatten::backward(const Tensor& grad_out) {
  Tensor dx = grad_out;
  dx.reshape(cached_shape_);
  return dx;
}

// ------------------------------------------------------------- Sequential --

Sequential& Sequential::add(std::unique_ptr<Module> layer) {
  layers_.push_back(std::move(layer));
  return *this;
}

Tensor Sequential::forward(const Tensor& x) {
  Tensor h = x;
  for (auto& layer : layers_) h = layer->forward(h);
  return h;
}

Tensor Sequential::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    g = (*it)->backward(g);
  }
  return g;
}

void Sequential::backward_params(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (std::size_t i = layers_.size(); i-- > 1;) g = layers_[i]->backward(g);
  if (!layers_.empty()) layers_.front()->backward_params(g);
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> params;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->parameters()) params.push_back(p);
  }
  return params;
}

}  // namespace rlplan::nn
