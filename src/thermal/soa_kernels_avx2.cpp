// AVX2 + FMA implementation of the fused SoA pair-row kernels (see
// soa_kernels.h for the dispatch scheme and numerical contract).
//
// This TU is compiled with -mavx2 -mfma on x86-64 (per-file flags in
// CMakeLists.txt) and must stay the only place AVX2 instructions can appear:
// everything here runs strictly behind the runtime cpuid check in
// util::detected_simd_level(). On other architectures it compiles to a stub.
//
// Layout notes:
//  * segment indices come out of _mm256_cvttpd_epi32 as one __m128i of
//    int32 and feed the LUT gathers directly.
//  * the LUT interleaves (base, diff) per segment; the diff gather reuses
//    the doubled index vector against lut+1 instead of computing 2*i+1.
//  * per-block reductions use a fixed lane tree ((l0+l2)+(l1+l3)), so
//    results are identical run to run and thread count to thread count.
#include "thermal/soa_kernels.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

namespace rlplan::thermal {
namespace {

/// Broadcast probe constants, hoisted once per probe by the pair-row drivers
/// so the per-block loops touch registers only.
struct ProbeConsts {
  __m256d px, py, front, back, inv, cap;
  double s_px, s_py, s_front, s_back, s_inv, s_cap;
};

inline ProbeConsts make_consts(double px, double py, double front, double back,
                               double inv_step, double cap) {
  return {_mm256_set1_pd(px),   _mm256_set1_pd(py),  _mm256_set1_pd(front),
          _mm256_set1_pd(back), _mm256_set1_pd(inv_step),
          _mm256_set1_pd(cap),  px,  py,  front, back, inv_step, cap};
}

/// Fixed-order horizontal sum: (lane0 + lane2) + (lane1 + lane3).
inline double reduce4(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d pair = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
}

/// All-lanes gather of p[i32[k]] (8-byte stride). The masked form with a
/// zeroed source is bit-identical to _mm256_i32gather_pd under a full mask;
/// it is used only because GCC flags the undefined-source variant with a
/// maybe-uninitialized false positive (breaks RLPLANNER_WERROR builds).
inline __m256d gather4(const double* p, __m128i i32) {
  return _mm256_mask_i32gather_pd(
      _mm256_setzero_pd(), p, i32,
      _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), 8);
}

/// Pass-1 math for four points: distance -> capped coordinate -> doubled
/// segment index (for the interleaved LUT) + fraction.
inline void coord4(const double* sx, const double* sy, const ProbeConsts& c,
                   __m128i& two, __m256d& fr) {
  const __m256d dx = _mm256_sub_pd(_mm256_loadu_pd(sx), c.px);
  const __m256d dy = _mm256_sub_pd(_mm256_loadu_pd(sy), c.py);
  const __m256d d =
      _mm256_sqrt_pd(_mm256_fmadd_pd(dx, dx, _mm256_mul_pd(dy, dy)));
  const __m256d clamped = _mm256_min_pd(_mm256_max_pd(d, c.front), c.back);
  const __m256d x = _mm256_min_pd(
      _mm256_mul_pd(_mm256_sub_pd(clamped, c.front), c.inv), c.cap);
  const __m128i ii = _mm256_cvttpd_epi32(x);
  fr = _mm256_sub_pd(x, _mm256_cvtepi32_pd(ii));
  two = _mm_slli_epi32(ii, 1);
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
  const __m256d zero = _mm256_setzero_pd();
  __m256d acc = zero;
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    __m128i two;
    __m256d fr;
    coord4(sx + k, sy + k, c, two, fr);
    const __m256d base = gather4(lut, two);
    const __m256d diff = gather4(lut + 1, two);
    acc = _mm256_add_pd(acc,
                        _mm256_max_pd(_mm256_fmadd_pd(fr, diff, base), zero));
  }
  double r = reduce4(acc);
  for (; k < n; ++k) {
    double fr;
    const double v = point1(sx + k, sy + k, c, lut, fr);
    r += v > 0.0 ? v : 0.0;
  }
  return r;
}

double block_raw(const double* sx, const double* sy, const ProbeConsts& c,
                 const double* lut, std::size_t n) {
  __m256d acc = _mm256_setzero_pd();
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    __m128i two;
    __m256d fr;
    coord4(sx + k, sy + k, c, two, fr);
    const __m256d base = gather4(lut, two);
    const __m256d diff = gather4(lut + 1, two);
    acc = _mm256_add_pd(acc, _mm256_fmadd_pd(fr, diff, base));
  }
  double r = reduce4(acc);
  for (; k < n; ++k) {
    double fr;
    r += point1(sx + k, sy + k, c, lut, fr);
  }
  return r;
}

// Pair-row drivers: fresh probe constants per row entry, one fused block
// kernel over the one source block.
void pair_unit_avx2(const double* px, const double* py, std::size_t n_probes,
                    const double* sx, const double* sy, std::size_t pts,
                    double front, double back, double inv_step, double cap,
                    const double* lut, double* out) {
  for (std::size_t p = 0; p < n_probes; ++p) {
    const ProbeConsts c = make_consts(px[p], py[p], front, back, inv_step, cap);
    out[p] = block_unit(sx, sy, c, lut, pts);
  }
}

void pair_raw_avx2(const double* px, const double* py, std::size_t n_probes,
                   const double* sx, const double* sy, std::size_t pts,
                   double front, double back, double inv_step, double cap,
                   const double* lut, double* out) {
  for (std::size_t p = 0; p < n_probes; ++p) {
    const ProbeConsts c = make_consts(px[p], py[p], front, back, inv_step, cap);
    out[p] = block_raw(sx, sy, c, lut, pts);
  }
}

constexpr SoaKernelOps kAvx2Ops{util::SimdLevel::kAvx2, pair_unit_avx2,
                                pair_raw_avx2};

}  // namespace

const SoaKernelOps* soa_kernel_ops_avx2() { return &kAvx2Ops; }

}  // namespace rlplan::thermal

#else  // !(__AVX2__ && __FMA__): foreign architecture or flags not applied

namespace rlplan::thermal {
const SoaKernelOps* soa_kernel_ops_avx2() { return nullptr; }
}  // namespace rlplan::thermal

#endif
