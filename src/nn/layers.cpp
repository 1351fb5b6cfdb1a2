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

/// Multiply-adds per work item that a pass is cut into, and the least a
/// pass must hold before it is worth waking other lanes for.
constexpr std::size_t kItemWork = std::size_t{1} << 16;
constexpr std::size_t kMinDispatchWork = std::size_t{1} << 17;

/// `executor` for a pass of `work` multiply-adds, or no executor when the
/// pass is too small to pay for a dispatch.
const BatchParallelFor& worth(const BatchParallelFor& executor,
                              std::size_t work) {
  static const BatchParallelFor kSerial;
  return work >= kMinDispatchWork ? executor : kSerial;
}

/// How many items `rows` rows of `work` multiply-adds in total are cut into
/// on `lanes` (the executor worth() picked): about kItemWork each, at least
/// one, at most one per row, and one on the calling thread, where cutting
/// would only add overhead.
std::size_t items_for(const BatchParallelFor& lanes, std::size_t rows,
                      std::size_t work) {
  if (!lanes) return 1;
  return std::max<std::size_t>(1, std::min(rows, work / kItemWork));
}

/// Item `i` of [0, total) cut into `parts` ranges whose sizes differ by at
/// most one.
struct Range {
  std::size_t begin, end;
};
Range part_of(std::size_t total, std::size_t parts, std::size_t i) {
  return {total * i / parts, total * (i + 1) / parts};
}

/// The row kernel behind Conv2d and Linear: adds terms a·b[0, n) to
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
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
};

/// im2col of single samples x[channels, h, w], for the taps [t0, t1) of
/// (ic, ky, kx) order: element (tap, pixel), with pixel = (oy, ox), goes to
/// out[(tap - t0) * tap_stride + pixel * pixel_stride], one of the strides
/// being 1. It reads a zero-padded copy of the channels those taps touch, so
/// padding taps read 0 and no element is bounds-tested; the loops run along
/// the unit stride. The padding is zeroed once, and each sample overwrites
/// only the interior.
class Lowering {
 public:
  Lowering(const ConvGeometry& g, std::size_t t0, std::size_t t1)
      : g_(g),
        hp_(g.h + 2 * g.padding),
        wp_(g.w + 2 * g.padding),
        ic0_(t0 / (g.kernel * g.kernel)),
        ic1_(t1 == t0 ? ic0_ : (t1 - 1) / (g.kernel * g.kernel) + 1),
        padded_((ic1_ - ic0_) * hp_ * wp_, 0.0f) {
    const std::size_t k2 = g.kernel * g.kernel;
    for (std::size_t t = t0; t < t1; ++t) {
      const std::size_t ky = t % k2 / g.kernel;
      const std::size_t kx = t % g.kernel;
      offsets_.push_back(((t / k2 - ic0_) * hp_ + ky) * wp_ + kx);
    }
  }

  void operator()(const float* x, float* out, std::size_t tap_stride,
                  std::size_t pixel_stride) {
    const ConvGeometry& g = g_;
    for (std::size_t ic = ic0_; ic < ic1_; ++ic) {
      for (std::size_t iy = 0; iy < g.h; ++iy) {
        std::copy_n(x + (ic * g.h + iy) * g.w, g.w,
                    padded_.data() +
                        ((ic - ic0_) * hp_ + iy + g.padding) * wp_ +
                        g.padding);
      }
    }
    if (tap_stride == 1) {
      for (std::size_t oy = 0; oy < g.ho; ++oy) {
        for (std::size_t ox = 0; ox < g.wo; ++ox) {
          const float* src = padded_.data() + (oy * wp_ + ox) * g.stride;
          float* dst = out + (oy * g.wo + ox) * pixel_stride;
          for (std::size_t t = 0; t < offsets_.size(); ++t) {
            dst[t] = src[offsets_[t]];
          }
        }
      }
      return;
    }
    for (std::size_t t = 0; t < offsets_.size(); ++t) {
      const float* src = padded_.data() + offsets_[t];
      float* dst = out + t * tap_stride;
      for (std::size_t oy = 0; oy < g.ho; ++oy) {
        for (std::size_t ox = 0; ox < g.wo; ++ox) {
          dst[oy * g.wo + ox] = src[(oy * wp_ + ox) * g.stride];
        }
      }
    }
  }

 private:
  const ConvGeometry& g_;
  std::size_t hp_, wp_;
  std::size_t ic0_, ic1_;  ///< the channels taps [t0, t1) read
  std::vector<std::size_t> offsets_;  ///< per tap, into padded_, at pixel 0
  std::vector<float> padded_;
};

/// dst[j * ldd + i] = src[i * cols + j]: a [rows, cols] block transposed into
/// rows of `ldd` floats (ldd = rows: a plain transpose), 16 source rows at a
/// time so the writes run along cache lines.
void transpose(std::size_t rows, std::size_t cols, const float* src,
               float* dst, std::size_t ldd) {
  for (std::size_t i0 = 0; i0 < rows; i0 += 16) {
    const std::size_t i1 = std::min(rows, i0 + 16);
    for (std::size_t j = 0; j < cols; ++j) {
      for (std::size_t i = i0; i < i1; ++i) {
        dst[j * ldd + i] = src[i * cols + j];
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
/// pre-activation is, and a NaN output passes its gradient on. A select, not
/// a branch: about half the outputs are zero, in no predictable pattern.
const Tensor& through_epilogue(Activation act, const Tensor& output,
                               const Tensor& grad_out, Tensor& storage) {
  if (act == Activation::kNone) return grad_out;
  storage = grad_out;
  float* g = storage.data().data();
  const float* y = output.data().data();
  for (std::size_t i = 0; i < storage.numel(); ++i) {
    g[i] = y[i] <= 0.0f ? 0.0f : g[i];
  }
  return storage;
}

/// Conv2d's forward lowers whole samples side by side until a row of the
/// lowering holds at least this many floats.
constexpr std::size_t kMinRowFloats = 256;

/// Linear's forward runs its batch-lane form from this batch up, and its dot
/// form below it (batch-1 collection forwards).
constexpr std::size_t kMinLaneBatch = 8;

/// The narrowest block of dW columns Conv2d's backward gives one work item,
/// and the input positions its dx blocks come in multiples of.
constexpr std::size_t kMinTapColumns = 16;
constexpr std::size_t kPositionRun = 16;
}  // namespace

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
  const float* xd = x.data().data();
  const float* wd = weight_.value.data().data();
  const float* bd = bias_.value.data().data();
  float* yd = y.data().data();
  const std::size_t work = batch * in_ * out_;
  if (batch >= kMinLaneBatch) {
    // Batch-lane form: yT[o, :] = bias[o], then += W[o, i] · xT[i, :] for i
    // ascending on the row kernel, over the input transposed to [in, batch].
    // Every y[b, o] adds the dot form's products in the dot form's order;
    // the row kernel's skipped w == 0 terms are exact no-ops under the
    // contract in layers.h. Items are blocks of outputs.
    std::vector<float> xt(in_ * batch);
    std::vector<float> yt(out_ * batch);
    transpose(batch, in_, xd, xt.data(), batch);
    const BatchParallelFor& lanes = worth(executor_, work);
    const std::size_t items = items_for(lanes, out_, work);
    for_each_item(lanes, items, [&](std::size_t item) {
      const Range o = part_of(out_, items, item);
      for (std::size_t k = o.begin; k < o.end; ++k) {
        std::fill_n(yt.data() + k * batch, batch, bd[k]);
      }
      gemm_rows(o.end - o.begin, batch, in_, wd + o.begin * in_, in_, 1,
                xt.data(), batch, yt.data() + o.begin * batch, batch);
    });
    transpose(out_, batch, yt.data(), yd, out_);
    if (act_ == Activation::kReLU) relu(yd, y.numel());
  } else {
    // Dot form, register-blocked over 4 outputs: one load of xr[i] feeds 4
    // independent add chains, hiding the add latency the single-accumulator
    // loop is bound by. Each output still accumulates sequentially over i in
    // one float, so results are bit-identical to the naive o-at-a-time loop
    // (pinned by nn_batch_test). Items are batch rows.
    for_each_item(worth(executor_, work), batch, [&](std::size_t b) {
      const float* xr = xd + b * in_;
      float* yr = yd + b * out_;
      std::size_t o = 0;
      for (; o + 4 <= out_; o += 4) {
        const float* w0 = wd + o * in_;
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
        const float* wr = wd + o * in_;
        float acc = bd[o];
        for (std::size_t i = 0; i < in_; ++i) acc += wr[i] * xr[i];
        yr[o] = acc;
      }
      if (act_ == Activation::kReLU) relu(yr, out_);
    });
  }
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
  const float* xd = cached_input_.data().data();
  const float* wd = weight_.value.data().data();
  float* dwd = weight_.grad.data().data();
  float* dbd = bias_.grad.data().data();
  float* dxd = dx.data().data();
  // dW[o, :] += Σ_b g[b, o] · x[b, :] and dx[b, :] += Σ_o g[b, o] · W[o, :]:
  // b ascending for every dW element, o ascending for every dx element, zero
  // gradients skipped — the order of the direct loop over (b, o). db adds the
  // zero gradients too: exact no-ops on its +0-started sums. Items are blocks
  // of dW rows, each with its db elements, then blocks of dx rows: each
  // element's whole sum on one lane.
  const std::size_t work = batch * in_ * out_;
  const BatchParallelFor& lanes = worth(executor_, 2 * work);
  const std::size_t dw_items = items_for(lanes, out_, work);
  const std::size_t dx_items = items_for(lanes, batch, work);
  for_each_item(lanes, dw_items + dx_items, [&](std::size_t item) {
    if (item < dw_items) {
      const Range o = part_of(out_, dw_items, item);
      gemm_rows(o.end - o.begin, in_, batch, gd + o.begin, 1, out_, xd, in_,
                dwd + o.begin * in_, in_);
      for (std::size_t k = o.begin; k < o.end; ++k) {
        float acc = dbd[k];
        for (std::size_t b = 0; b < batch; ++b) acc += gd[b * out_ + k];
        dbd[k] = acc;
      }
      return;
    }
    const Range b = part_of(batch, dx_items, item - dw_items);
    gemm_rows(b.end - b.begin, in_, out_, gd + b.begin * out_, out_, 1, wd,
              in_, dxd + b.begin * in_, in_);
  });
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
  Tensor y({batch, out_ch_, g.ho, g.wo});
  const float* wd = weight_.value.data().data();
  const float* xd = x.data().data();
  float* yd = y.data().data();

  // Per chunk of samples, lowered side by side into col[tap, (s, pixel)]:
  // sum[oc, :] = bias[oc] + Σ_tap W[oc, tap] · col[tap, :], taps in
  // (ic, ky, kx) order — the direct loop's order, plus w·0 terms at padding
  // taps, exact no-ops under the contract in layers.h. Then each sample's
  // columns go to y[b, oc, :] through the epilogue.
  const std::size_t work = batch * pixels * taps * out_ch_;
  for_each_item(worth(executor_, work), chunks, [&](std::size_t c) {
    const std::size_t b0 = c * per_chunk;
    const std::size_t samples = std::min(per_chunk, batch - b0);
    const std::size_t n = samples * pixels;
    std::vector<float> col(taps * n);
    std::vector<float> sum(out_ch_ * n);
    Lowering lower(g, 0, taps);
    for (std::size_t s = 0; s < samples; ++s) {
      lower(xd + (b0 + s) * in_ch_ * h * w, col.data() + s * pixels, n, 1);
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

  // One pass of work items, each owning whole sums: blocks of dW's columns,
  // then blocks of dx's input positions, then db's channels. On the calling
  // thread a pass is one dW block and one dx block.
  //
  // dW and db: every element takes (b, oy, ox) in ascending order, like the
  // direct loop. A dW block runs the row kernel over the transposed lowering
  // colT[pixel, tap] of its own columns, sample by sample, skipping zero
  // gradients; db adds them (exact no-ops on its +0-started sums). A block
  // accumulates into its own copy of its columns, so no two lanes write one
  // cache line in the hot loop.
  const std::size_t dw_work = batch * pixels * taps * out_ch_;
  const std::size_t dx_work =
      input_grad ? batch * in_plane * out_ch_ * kernel_ * kernel_ /
                       (stride_ * stride_)
                 : 0;
  const BatchParallelFor& lanes = worth(executor_, dw_work + dx_work);
  const std::size_t dw_items =
      lanes ? std::max<std::size_t>(1, taps / kMinTapColumns) : 1;
  const auto dw_block = [&](std::size_t item) {
    const Range t = part_of(taps, dw_items, item);
    const std::size_t width = t.end - t.begin;
    std::vector<float> col(pixels * width);
    std::vector<float> dw(out_ch_ * width);
    for (std::size_t oc = 0; oc < out_ch_; ++oc) {
      std::copy_n(dwd + oc * taps + t.begin, width, dw.data() + oc * width);
    }
    Lowering lower(g, t.begin, t.end);
    for (std::size_t b = 0; b < batch; ++b) {
      lower(xd + b * in_plane, col.data(), 1, width);
      gemm_rows(out_ch_, width, pixels, gd + b * out_plane, pixels, 1,
                col.data(), width, dw.data(), width);
    }
    for (std::size_t oc = 0; oc < out_ch_; ++oc) {
      std::copy_n(dw.data() + oc * width, width, dwd + oc * taps + t.begin);
    }
  };
  const auto db_channel = [&](std::size_t oc) {
    float acc = dbd[oc];
    for (std::size_t b = 0; b < batch; ++b) {
      const float* gb = gd + b * out_plane + oc * pixels;
      for (std::size_t p = 0; p < pixels; ++p) acc += gb[p];
    }
    dbd[oc] = acc;
  };
  if (!input_grad) {
    for_each_item(lanes, dw_items + out_ch_, [&](std::size_t item) {
      if (item < dw_items) {
        dw_block(item);
      } else {
        db_channel(item - dw_items);
      }
    });
    return {};
  }

  // dx over batch-minor rows, samples in the SIMD lanes: one row per input
  // element, fed (oc, ky↓, kx↓). For a fixed element, descending (ky, kx) is
  // ascending (oy, ox), so it takes (oc, oy, ox) in the direct loop's order;
  // the g·w terms with g == 0 that loop skipped add exact zeros to a
  // +0-started accumulator. A block of whole 16-position runs (iy, ix)
  // computes its rows for every channel, then transposes them into dx.
  std::vector<float> gt(batch * out_plane);
  transpose(batch, out_plane, gd, gt.data(), batch);
  const std::vector<std::size_t> oy_of = g.readers(h, g.ho);
  const std::vector<std::size_t> ox_of = g.readers(w, g.wo);
  Tensor dx({batch, in_ch_, h, w});
  float* dxd = dx.data().data();
  const std::size_t positions = h * w;
  const std::size_t runs = (positions + kPositionRun - 1) / kPositionRun;
  const std::size_t dx_items = items_for(lanes, runs, dx_work);
  const auto dx_block = [&](std::size_t item) {
    const Range r = part_of(runs, dx_items, item);
    const std::size_t q0 = r.begin * kPositionRun;
    const std::size_t n = std::min(positions, r.end * kPositionRun) - q0;
    std::vector<float> rows(in_ch_ * n * batch, 0.0f);  // [ic, pos, batch]
    for (std::size_t pos = q0; pos < q0 + n; ++pos) {
      const std::size_t iy = pos / w;
      const std::size_t ix = pos % w;
      for (std::size_t ic = 0; ic < in_ch_; ++ic) {
        RowKernel row(rows.data() + (ic * n + pos - q0) * batch, batch);
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
    for (std::size_t ic = 0; ic < in_ch_; ++ic) {
      transpose(n, batch, rows.data() + ic * n * batch,
                dxd + ic * positions + q0, in_plane);
    }
  };
  for_each_item(lanes, dw_items + dx_items + out_ch_, [&](std::size_t item) {
    if (item < dw_items) {
      dw_block(item);
    } else if (item < dw_items + dx_items) {
      dx_block(item - dw_items);
    } else {
      db_channel(item - dw_items - dx_items);
    }
  });
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

void Sequential::set_executor(BatchParallelFor executor) {
  for (auto& layer : layers_) layer->set_executor(executor);
  Module::set_executor(std::move(executor));
}

std::vector<Parameter*> Sequential::parameters() {
  std::vector<Parameter*> params;
  for (auto& layer : layers_) {
    for (Parameter* p : layer->parameters()) params.push_back(p);
  }
  return params;
}

}  // namespace rlplan::nn
