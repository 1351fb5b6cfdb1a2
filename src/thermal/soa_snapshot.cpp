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

/// Pass-1 points per chunk (24 KiB of stack scratch): one chunk covers a
/// whole source block of up to 2,048 points, so only 16 x 16 sub-sources
/// with images (2,304 points) take two. A multiple of 4, see Lanes.
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

/// One point's pass-2 term: LUT gather + interpolate, clamped to >= 0.
double term(int idx, double frac, const double* lut) {
  const double* seg = lut + 2 * idx;
  return std::max(seg[0] + frac * seg[1], 0.0);
}

/// A block's running sum as four interleaved partial sums: the block's
/// point t feeds lane t % 4, and the lanes combine as (l0 + l2) + (l1 + l3).
/// Four independent add chains instead of one, in an order fixed by the
/// point's position in its block — never by where a pass-1 tile ends.
struct Lanes {
  double l[4] = {0.0, 0.0, 0.0, 0.0};

  /// Adds the block's next n points; a multiple of 4 points precede them,
  /// so each point lands in its own lane.
  void add(const int* idx, const double* frac, const double* lut,
           std::size_t n) {
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
      l[0] += term(idx[k], frac[k], lut);
      l[1] += term(idx[k + 1], frac[k + 1], lut);
      l[2] += term(idx[k + 2], frac[k + 2], lut);
      l[3] += term(idx[k + 3], frac[k + 3], lut);
    }
    for (std::size_t j = 0; k + j < n; ++j) {
      l[j & 3] += term(idx[k + j], frac[k + j], lut);
    }
  }
  double sum() const { return (l[0] + l[2]) + (l[1] + l[3]); }
};

/// Pair-row driver: per probe, pass 1 and pass 2 over the block in
/// kTile-point chunks (kTile is a multiple of 4, so every point keeps its
/// lane wherever a chunk ends).
void pair_scalar(const double* px, const double* py, std::size_t n_probes,
                 const double* sx, const double* sy, std::size_t pts,
                 double front, double back, double inv_step, double cap,
                 const double* lut, double* out) {
  int idx[kTile];
  double frac[kTile];
  for (std::size_t p = 0; p < n_probes; ++p) {
    Lanes acc;
    for (std::size_t t0 = 0; t0 < pts; t0 += kTile) {
      const std::size_t n = std::min(kTile, pts - t0);
      coords(sx + t0, sy + t0, px[p], py[p], front, back, inv_step, cap, n,
             idx, frac);
      acc.add(idx, frac, lut, n);
    }
    out[p] = acc.sum();
  }
}

constexpr SoaKernelOps kScalarOps{util::SimdLevel::kScalar, pair_scalar};

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
  // Without images the LUT keeps the table's own values: a zero floor, so
  // the clamp in the pair row never fires on the non-negative knots.
  const double floor = use_images ? model.uniform_floor() : 0.0;
  floor_per_src = static_cast<double>(ss) * floor;
  ambient_c = model.ambient_c();
  pkg_w = model.package_w_mm();
  pkg_h = model.package_h_mm();
  front = table.distances().front();
  back = table.distances().back();
  inv_step = table.inv_step();
  const std::vector<double>& values = table.values();
  const std::size_t nk = values.size();
  lut.assign(2 * nk, 0.0);
  for (std::size_t i = 0; i < nk; ++i) {
    lut[2 * i] = values[i] - floor;
    lut[2 * i + 1] = i + 1 < nk ? values[i + 1] - values[i] : 0.0;
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

void SoaModelConsts::pair_row(const SoaKernelOps& ops, const double* px,
                              const double* py, const double* sx,
                              const double* sy, double power_per_sub,
                              double* out) const {
  ops.pair_row(px, py, pc, sx, sy, ss * img, front, back, inv_step,
               coord_cap, lut.data(), out);
  for (std::size_t p = 0; p < pc; ++p) {
    out[p] = (floor_per_src + out[p]) * power_per_sub;
  }
}

// ------------------------------------------------------------ snapshot ----

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
  row_.assign(k_.pc, 0.0);
  mutual_.assign(k_.pc, 0.0);
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
  const std::size_t pts = k_.ss * k_.img;
  const std::size_t pc = k_.pc;
  const double* px = probe_x_.data() + i * pc;
  const double* py = probe_y_.data() + i * pc;
  double* row = row_.data();
  double* mutual = mutual_.data();
  std::fill(mutual, mutual + pc, 0.0);
  // One coupling row per active source but the receiver's own, added in
  // ascending source order: per probe, IncrementalThermalState's full
  // re-reduction makes the same adds in the same sequence.
  for (std::size_t a = 0; a < src_die_.size(); ++a) {
    if (src_die_[a] == i) continue;
    k_.pair_row(*ops_, px, py, src_x_.data() + a * pts,
                src_y_.data() + a * pts, src_scale_[a], row);
    for (std::size_t p = 0; p < pc; ++p) mutual[p] += row[p];
  }
  double worst = 0.0;
  for (std::size_t p = 0; p < pc; ++p) {
    worst = std::max(worst, self_rise_[i] * shape_[i * pc + p] + mutual[p]);
  }
  return worst;
}

void SoaSnapshot::evaluate(FastThermalResult& out) const {
  out.chiplet_temp_c.assign(n_, k_.ambient_c);
  out.eval_seconds = 0.0;
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
