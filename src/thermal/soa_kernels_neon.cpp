// AArch64 Advanced-SIMD implementation of the fused SoA pair-row kernels
// (see soa_kernels.h for the dispatch scheme and numerical contract).
//
// NEON has no hardware gather, so the LUT stage loads each (base, diff)
// segment as one contiguous 128-bit vld1q and transposes pairs of segments
// into base/diff vectors; the coordinate stage is a straight 2-lane port of
// the AVX2 kernels. NEON is baseline on AArch64, so no per-file ISA flags are
// needed — the stub branch below only triggers on non-ARM builds of this TU.
#include "thermal/soa_kernels.h"

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

namespace rlplan::thermal {
namespace {

/// Broadcast probe constants, hoisted once per probe by the pair-row drivers.
struct ProbeConsts {
  float64x2_t px, py, front, back, inv, cap;
  double s_px, s_py, s_front, s_back, s_inv, s_cap;
};

inline ProbeConsts make_consts(double px, double py, double front, double back,
                               double inv_step, double cap) {
  return {vdupq_n_f64(px),   vdupq_n_f64(py),  vdupq_n_f64(front),
          vdupq_n_f64(back), vdupq_n_f64(inv_step),
          vdupq_n_f64(cap),  px,  py,  front, back, inv_step, cap};
}

/// Pass-1 math for two points: distance -> capped coordinate -> segment
/// indices + fraction vector.
inline void coord2(const double* sx, const double* sy, const ProbeConsts& c,
                   int& i0, int& i1, float64x2_t& fr) {
  const float64x2_t dx = vsubq_f64(vld1q_f64(sx), c.px);
  const float64x2_t dy = vsubq_f64(vld1q_f64(sy), c.py);
  const float64x2_t d = vsqrtq_f64(vfmaq_f64(vmulq_f64(dy, dy), dx, dx));
  const float64x2_t clamped = vminq_f64(vmaxq_f64(d, c.front), c.back);
  const float64x2_t x =
      vminq_f64(vmulq_f64(vsubq_f64(clamped, c.front), c.inv), c.cap);
  const int64x2_t ii = vcvtq_s64_f64(x);  // truncates toward zero
  i0 = static_cast<int>(vgetq_lane_s64(ii, 0));
  i1 = static_cast<int>(vgetq_lane_s64(ii, 1));
  fr = vsubq_f64(x, vcvtq_f64_s64(ii));
}

/// Scalar fused tail for one point; mirrors the vector lanes' operations.
inline double point1(const double* sx, const double* sy, const ProbeConsts& c,
                     const double* lut, double& fr) {
  const double dx = *sx - c.s_px;
  const double dy = *sy - c.s_py;
  const double d = __builtin_sqrt(__builtin_fma(dx, dx, dy * dy));
  const double clamped =
      d < c.s_front ? c.s_front : (d > c.s_back ? c.s_back : d);
  double x = (clamped - c.s_front) * c.s_inv;
  if (x > c.s_cap) x = c.s_cap;
  const int ii = static_cast<int>(x);
  fr = x - static_cast<double>(ii);
  const double* seg = lut + 2 * ii;
  return seg[0] + fr * seg[1];
}

double block_unit(const double* sx, const double* sy, const ProbeConsts& c,
                  const double* lut, std::size_t n) {
  const float64x2_t zero = vdupq_n_f64(0.0);
  float64x2_t acc = zero;
  std::size_t k = 0;
  for (; k + 2 <= n; k += 2) {
    int i0, i1;
    float64x2_t fr;
    coord2(sx + k, sy + k, c, i0, i1, fr);
    const float64x2_t seg0 = vld1q_f64(lut + 2 * i0);
    const float64x2_t seg1 = vld1q_f64(lut + 2 * i1);
    const float64x2_t base = vtrn1q_f64(seg0, seg1);
    const float64x2_t diff = vtrn2q_f64(seg0, seg1);
    const float64x2_t v = vfmaq_f64(base, fr, diff);
    acc = vaddq_f64(acc, vmaxq_f64(v, zero));
  }
  double r = vgetq_lane_f64(acc, 0) + vgetq_lane_f64(acc, 1);
  for (; k < n; ++k) {
    double fr;
    const double v = point1(sx + k, sy + k, c, lut, fr);
    r += v > 0.0 ? v : 0.0;
  }
  return r;
}

double block_raw(const double* sx, const double* sy, const ProbeConsts& c,
                 const double* lut, std::size_t n) {
  float64x2_t acc = vdupq_n_f64(0.0);
  std::size_t k = 0;
  for (; k + 2 <= n; k += 2) {
    int i0, i1;
    float64x2_t fr;
    coord2(sx + k, sy + k, c, i0, i1, fr);
    const float64x2_t seg0 = vld1q_f64(lut + 2 * i0);
    const float64x2_t seg1 = vld1q_f64(lut + 2 * i1);
    const float64x2_t base = vtrn1q_f64(seg0, seg1);
    const float64x2_t diff = vtrn2q_f64(seg0, seg1);
    acc = vaddq_f64(acc, vfmaq_f64(base, fr, diff));
  }
  double r = vgetq_lane_f64(acc, 0) + vgetq_lane_f64(acc, 1);
  for (; k < n; ++k) {
    double fr;
    r += point1(sx + k, sy + k, c, lut, fr);
  }
  return r;
}

// Pair-row drivers: fresh probe constants per row entry, one fused block
// kernel over the one source block.
void pair_unit_neon(const double* px, const double* py, std::size_t n_probes,
                    const double* sx, const double* sy, std::size_t pts,
                    double front, double back, double inv_step, double cap,
                    const double* lut, double* out) {
  for (std::size_t p = 0; p < n_probes; ++p) {
    const ProbeConsts c = make_consts(px[p], py[p], front, back, inv_step, cap);
    out[p] = block_unit(sx, sy, c, lut, pts);
  }
}

void pair_raw_neon(const double* px, const double* py, std::size_t n_probes,
                   const double* sx, const double* sy, std::size_t pts,
                   double front, double back, double inv_step, double cap,
                   const double* lut, double* out) {
  for (std::size_t p = 0; p < n_probes; ++p) {
    const ProbeConsts c = make_consts(px[p], py[p], front, back, inv_step, cap);
    out[p] = block_raw(sx, sy, c, lut, pts);
  }
}

constexpr SoaKernelOps kNeonOps{util::SimdLevel::kNeon, pair_unit_neon,
                                pair_raw_neon};

}  // namespace

const SoaKernelOps* soa_kernel_ops_neon() { return &kNeonOps; }

}  // namespace rlplan::thermal

#else  // !(__aarch64__ && __ARM_NEON)

namespace rlplan::thermal {
const SoaKernelOps* soa_kernel_ops_neon() { return nullptr; }
}  // namespace rlplan::thermal

#endif
