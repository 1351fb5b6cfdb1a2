#include "thermal/soa_snapshot.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/thread_pool.h"
#include "util/timer.h"

namespace rlplan::thermal {

// ------------------------------------------------------ scalar kernels ----
// The portable SoaKernelOps table. It lives in this TU because CMake builds
// it with -fno-math-errno (in the root build and perfbench's alike), which
// is what lets pass 1 below auto-vectorize.
namespace {

/// Pass-1 points per tile (24 KiB of stack scratch): one tile covers a
/// probe's whole sweep up to 56 sources of 36 points. A multiple of 4, see
/// Lanes.
constexpr std::size_t kTile = 2048;

/// Pass 1 over n <= kTile points: distance -> capped table coordinate ->
/// segment index + fraction. Contiguous loads, no branches, no indexed
/// access: the loop auto-vectorizes, sqrt and the packed double<->int32
/// conversions included.
void coords(const double* sx, const double* sy, double px, double py,
            double front, double back, double inv_step, double cap,
            std::size_t n, int* idx, double* frac) {
  for (std::size_t k = 0; k < n; ++k) {
    const double d = kernel_distance(sx[k] - px, sy[k] - py);
    const double x = std::min(
        (std::min(std::max(d, front), back) - front) * inv_step, cap);
    const int ii = static_cast<int>(x);
    idx[k] = ii;
    frac[k] = x - static_cast<double>(ii);
  }
}

enum class Form { kUnit, kRaw };

/// One point's pass-2 term: LUT gather + interpolate, in the given form.
template <Form F>
double term(int idx, double frac, const double* lut) {
  const double* seg = lut + 2 * idx;
  const double v = seg[0] + frac * seg[1];
  if constexpr (F == Form::kRaw) {
    return v;
  } else {
    return std::max(v, 0.0);
  }
}

/// A block's running sum as four interleaved partial sums: the block's
/// point t feeds lane t % 4, and the lanes combine as (l0 + l2) + (l1 + l3).
/// Four independent add chains instead of one, in an order fixed by the
/// point's position in its block — never by where a pass-1 tile ends.
struct Lanes {
  double l[4] = {0.0, 0.0, 0.0, 0.0};

  /// Adds the block's next n points; a multiple of 4 points precede them,
  /// so each point lands in its own lane.
  template <Form F>
  void add(const int* idx, const double* frac, const double* lut,
           std::size_t n) {
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
      l[0] += term<F>(idx[k], frac[k], lut);
      l[1] += term<F>(idx[k + 1], frac[k + 1], lut);
      l[2] += term<F>(idx[k + 2], frac[k + 2], lut);
      l[3] += term<F>(idx[k + 3], frac[k + 3], lut);
    }
    for (std::size_t j = 0; k + j < n; ++j) {
      l[j & 3] += term<F>(idx[k + j], frac[k + j], lut);
    }
  }
  double sum() const { return (l[0] + l[2]) + (l[1] + l[3]); }
};

/// Sweep driver. Pass 1 runs over tiles of as many whole blocks as fit in
/// kTile points, so it spans block boundaries; a block larger than a tile
/// runs in kTile-point chunks (kTile is a multiple of 4, so every point
/// keeps its lane). Either way each block sums the same way, which keeps
/// the pair-row form (one block per call) bit-identical to the sweep.
template <Form F>
void sweep_scalar(const double* sx, const double* sy, double px, double py,
                  double front, double back, double inv_step, double cap,
                  const double* lut, std::size_t pts, std::size_t n_src,
                  double* subtotal) {
  int idx[kTile];
  double frac[kTile];
  if (pts <= kTile) {
    const std::size_t per_tile = kTile / pts;
    for (std::size_t a0 = 0; a0 < n_src; a0 += per_tile) {
      const std::size_t blocks = std::min(per_tile, n_src - a0);
      coords(sx + a0 * pts, sy + a0 * pts, px, py, front, back, inv_step,
             cap, blocks * pts, idx, frac);
      for (std::size_t b = 0; b < blocks; ++b) {
        Lanes acc;
        acc.add<F>(idx + b * pts, frac + b * pts, lut, pts);
        subtotal[a0 + b] = acc.sum();
      }
    }
    return;
  }
  for (std::size_t a = 0; a < n_src; ++a) {
    Lanes acc;
    for (std::size_t t0 = 0; t0 < pts; t0 += kTile) {
      const std::size_t n = std::min(kTile, pts - t0);
      coords(sx + a * pts + t0, sy + a * pts + t0, px, py, front, back,
             inv_step, cap, n, idx, frac);
      acc.add<F>(idx, frac, lut, n);
    }
    subtotal[a] = acc.sum();
  }
}

template <Form F>
void pair_scalar(const double* px, const double* py, std::size_t n_probes,
                 const double* sx, const double* sy, std::size_t pts,
                 double front, double back, double inv_step, double cap,
                 const double* lut, double* out) {
  for (std::size_t p = 0; p < n_probes; ++p) {
    sweep_scalar<F>(sx, sy, px[p], py[p], front, back, inv_step, cap, lut,
                    pts, 1, out + p);
  }
}

constexpr SoaKernelOps kScalarOps{
    util::SimdLevel::kScalar, sweep_scalar<Form::kUnit>,
    sweep_scalar<Form::kRaw>, pair_scalar<Form::kUnit>,
    pair_scalar<Form::kRaw>};

}  // namespace

const SoaKernelOps& soa_kernel_ops_scalar() { return kScalarOps; }

// ----------------------------------------------------- model constants ----

void SoaModelConsts::bind(const FastThermalModel& model) {
  if (model.empty()) {
    throw std::invalid_argument("SoaModelConsts: model has no tables");
  }
  const MutualResistanceTable& table = model.mutual_table();
  if (!table.is_uniform()) {
    throw std::invalid_argument(
        "SoaModelConsts: mutual table is not uniform");
  }
  pc = static_cast<std::size_t>(model.probe_count());
  const auto sub = static_cast<std::size_t>(model.config().source_subsamples);
  ss = sub * sub;
  use_images = model.config().use_images;
  img = use_images ? 9 : 1;
  const double floor = model.uniform_floor();
  floor_per_src = static_cast<double>(ss) * floor;
  ambient_c = model.ambient_c();
  pkg_w = model.package_w_mm();
  pkg_h = model.package_h_mm();
  front = table.distances().front();
  back = table.distances().back();
  inv_step = table.inv_step();
  const std::vector<double>& values = table.values();
  const std::size_t nk = values.size();
  lut_img.assign(2 * nk, 0.0);
  lut_raw.assign(2 * nk, 0.0);
  for (std::size_t i = 0; i < nk; ++i) {
    const double diff = i + 1 < nk ? values[i + 1] - values[i] : 0.0;
    lut_raw[2 * i] = values[i];
    lut_raw[2 * i + 1] = diff;
    lut_img[2 * i] = values[i] - floor;
    lut_img[2 * i + 1] = diff;
  }
  // Coordinates are capped in the double domain (instead of clamping the
  // integer index) so the coordinate pass stays branch-free: the cap is the
  // largest double below nk-1, making trunc() land on the last segment with
  // a fraction of ~1 — the same interpolated value to within an ulp.
  coord_cap = std::nextafter(static_cast<double>(nk - 1), 0.0);
}

void SoaModelConsts::expand_source_point(const Point& s, double* xs,
                                         double* ys) const {
  if (!use_images) {
    xs[0] = s.x;
    ys[0] = s.y;
    return;
  }
  const double mx0 = -s.x;
  const double mx1 = 2.0 * pkg_w - s.x;
  const double my0 = -s.y;
  const double my1 = 2.0 * pkg_h - s.y;
  const double exp_x[9] = {s.x, mx0, mx1, s.x, s.x, mx0, mx0, mx1, mx1};
  const double exp_y[9] = {s.y, s.y, s.y, my0, my1, my0, my1, my0, my1};
  std::copy(exp_x, exp_x + 9, xs);
  std::copy(exp_y, exp_y + 9, ys);
}

void SoaModelConsts::sweep(const SoaKernelOps& ops, const double* sx,
                           const double* sy, double px, double py,
                           std::size_t n_src, double* subtotal) const {
  const std::size_t pts = ss * img;
  if (use_images) {
    ops.sweep_unit(sx, sy, px, py, front, back, inv_step, coord_cap,
                   lut_img.data(), pts, n_src, subtotal);
  } else {
    ops.sweep_raw(sx, sy, px, py, front, back, inv_step, coord_cap,
                  lut_raw.data(), pts, n_src, subtotal);
  }
}

void SoaModelConsts::pair_row(const SoaKernelOps& ops, const double* px,
                              const double* py, const double* sx,
                              const double* sy, double* out) const {
  const std::size_t pts = ss * img;
  if (use_images) {
    ops.pair_unit(px, py, pc, sx, sy, pts, front, back, inv_step, coord_cap,
                  lut_img.data(), out);
  } else {
    ops.pair_raw(px, py, pc, sx, sy, pts, front, back, inv_step, coord_cap,
                 lut_raw.data(), out);
  }
}

// ------------------------------------------------------------ snapshot ----

util::SimdLevel SoaSnapshot::dispatch_level() { return soa_dispatch_level(); }

util::SimdLevel SoaSnapshot::set_simd_level(util::SimdLevel level) {
  ops_ = &soa_kernel_ops(level);
  return ops_->level;
}

SoaSnapshot::SoaSnapshot(const FastThermalModel& model,
                         const ChipletSystem& system)
    : model_(&model),
      system_(&system),
      ops_(&soa_kernel_ops(util::active_simd_level())) {
  k_.bind(model);
  n_ = system.num_chiplets();

  placed_.assign(n_, 0);
  self_rise_.assign(n_, 0.0);
  probe_x_.assign(n_ * k_.pc, 0.0);
  probe_y_.assign(n_ * k_.pc, 0.0);
  shape_.assign(n_ * k_.pc, 0.0);
  src_die_.reserve(n_);
  src_scale_.reserve(n_);
  src_x_.reserve(n_ * k_.ss * k_.img);
  src_y_.reserve(n_ * k_.ss * k_.img);
}

void SoaSnapshot::refresh(const Floorplan& floorplan) {
  // Counter only: refresh runs per candidate (~µs); a span here would be
  // the dominant cost of the span itself at small die counts.
  RLPLAN_COUNTER_INC("thermal.soa.refreshes");
  if (floorplan.num_chiplets() != n_) {
    throw std::invalid_argument(
        "SoaSnapshot: floorplan/system size mismatch");
  }
  const std::size_t pc = k_.pc;
  src_die_.clear();
  src_scale_.clear();
  src_x_.clear();
  src_y_.clear();
  for (std::size_t i = 0; i < n_; ++i) {
    placed_[i] = floorplan.is_placed(i) ? 1 : 0;
    if (!placed_[i]) continue;
    const Rect rect = floorplan.rect_of(i);
    // The per-die terms come from the model's own building blocks, shared
    // with the incremental engine.
    model_->receiver_probes(rect, probes_scratch_, shapes_scratch_);
    for (std::size_t p = 0; p < pc; ++p) {
      probe_x_[i * pc + p] = probes_scratch_[p].x;
      probe_y_[i * pc + p] = probes_scratch_[p].y;
      shape_[i * pc + p] = shapes_scratch_[p];
    }
    self_rise_[i] = model_->self_rise(system_->chiplet(i), rect);

    const double power = system_->chiplet(i).power;
    if (power <= 0.0) continue;
    src_die_.push_back(i);
    src_scale_.push_back(power / static_cast<double>(k_.ss));
    model_->source_points(rect, subs_scratch_);
    const std::size_t base = src_x_.size();
    src_x_.resize(base + subs_scratch_.size() * k_.img);
    src_y_.resize(base + subs_scratch_.size() * k_.img);
    double* xs = src_x_.data() + base;
    double* ys = src_y_.data() + base;
    for (const Point& s : subs_scratch_) {
      k_.expand_source_point(s, xs, ys);
      xs += k_.img;
      ys += k_.img;
    }
  }
}

double SoaSnapshot::receiver_rise(std::size_t i) const {
  const std::size_t n_src = src_die_.size();
  const std::size_t pts = k_.ss * k_.img;
  const std::size_t pc = k_.pc;
  // The receiver's own source block, if it has one, is [lo, hi): the sweep
  // covers the blocks on either side of it.
  const auto lo = static_cast<std::size_t>(
      std::lower_bound(src_die_.begin(), src_die_.end(), i) -
      src_die_.begin());
  const std::size_t hi = lo < n_src && src_die_[lo] == i ? lo + 1 : lo;
  const double* sx = src_x_.data();
  const double* sy = src_y_.data();
  double* sub = sub_.data();
  double worst = 0.0;
  for (std::size_t p = 0; p < pc; ++p) {
    const double px = probe_x_[i * pc + p];
    const double py = probe_y_[i * pc + p];
    k_.sweep(*ops_, sx, sy, px, py, lo, sub);
    k_.sweep(*ops_, sx + hi * pts, sy + hi * pts, px, py, n_src - hi,
             sub + hi);
    double mutual = 0.0;
    for (std::size_t a = 0; a < lo; ++a) {
      mutual += k_.contribution(sub[a], src_scale_[a]);
    }
    for (std::size_t a = hi; a < n_src; ++a) {
      mutual += k_.contribution(sub[a], src_scale_[a]);
    }
    worst = std::max(worst, self_rise_[i] * shape_[i * pc + p] + mutual);
  }
  return worst;
}

void SoaSnapshot::evaluate(FastThermalResult& out) const {
  out.chiplet_temp_c.assign(n_, k_.ambient_c);
  out.eval_seconds = 0.0;
  sub_.resize(src_die_.size());
  for (std::size_t i = 0; i < n_; ++i) {
    if (placed_[i]) out.chiplet_temp_c[i] = k_.ambient_c + receiver_rise(i);
  }
  out.max_temp_c = k_.ambient_c;
  for (double t : out.chiplet_temp_c) {
    out.max_temp_c = std::max(out.max_temp_c, t);
  }
}

// --------------------------------------------------- model entry points ----

FastThermalResult FastThermalModel::evaluate(const ChipletSystem& system,
                                             const Floorplan& floorplan) const {
  if (empty()) {
    throw std::logic_error("FastThermalModel: evaluate on empty model");
  }
  RLPLAN_TRACE_SPAN("thermal.evaluate");
  RLPLAN_COUNTER_INC("thermal.evaluate.calls");
  const Timer timer;
  SoaSnapshot snapshot(*this, system);
  snapshot.refresh(floorplan);
  FastThermalResult result;
  snapshot.evaluate(result);
  result.eval_seconds = timer.seconds();
  return result;
}

std::vector<FastThermalResult> FastThermalModel::evaluate_batch(
    const ChipletSystem& system, std::span<const Floorplan> floorplans,
    parallel::ThreadPool* pool) const {
  if (empty()) {
    throw std::logic_error("FastThermalModel: evaluate_batch on empty model");
  }
  RLPLAN_TRACE_SPAN("thermal.evaluate_batch",
                    static_cast<std::int64_t>(floorplans.size()));
  RLPLAN_COUNTER_ADD("thermal.batch.candidates", floorplans.size());
  std::vector<FastThermalResult> results(floorplans.size());
  if (floorplans.empty()) return results;

  const auto run_chunk = [&](SoaSnapshot& snap, std::size_t lo,
                             std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      const Timer timer;
      snap.refresh(floorplans[i]);
      snap.evaluate(results[i]);
      results[i].eval_seconds = timer.seconds();
    }
  };

  const std::size_t lanes =
      pool == nullptr ? 1 : std::min(pool->size() + 1, floorplans.size());
  if (lanes <= 1) {
    SoaSnapshot snapshot(*this, system);
    run_chunk(snapshot, 0, floorplans.size());
    return results;
  }
  // One snapshot per lane; lane c owns a contiguous candidate range so
  // results are index-aligned and identical for every thread count.
  // batch_lane_range never forms a b * lanes product, so the split stays
  // exact for any candidate count (the naive b*c/lanes formula overflows).
  std::vector<SoaSnapshot> snapshots(lanes, SoaSnapshot(*this, system));
  const std::size_t b = floorplans.size();
  pool->parallel_for(lanes, [&](std::size_t c) {
    const auto [lo, hi] = batch_lane_range(b, lanes, c);
    run_chunk(snapshots[c], lo, hi);
  });
  return results;
}

}  // namespace rlplan::thermal
