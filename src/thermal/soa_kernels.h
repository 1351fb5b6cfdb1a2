// The fast model's one kernel: a function-pointer table per SIMD level,
// selected at runtime via util/simd.
//
// Conceptually the kernel is two passes — pass 1 (distance -> capped table
// coordinate -> segment index + fraction) and pass 2 (segment-LUT gather /
// interpolate / accumulate). Every table implements the same one entry, the
// pair row:
//  * the portable scalar table (soa_snapshot.cpp, the TU built with
//    -fno-math-errno) keeps the passes separate, running pass 1 over a whole
//    source block so it auto-vectorizes, then gathers and accumulates the
//    block in four interleaved lanes;
//  * the explicit AVX2/NEON tables (soa_kernels_*.cpp) fuse both passes into
//    ONE loop per (probe, block): the index/fraction intermediates never
//    round-trip through memory (at production block sizes of ~18-36 points
//    the store/reload traffic costs as much as the arithmetic), and each
//    block reduces straight to its subtotal in a fixed lane tree.
//
// Numerical contract (gated by tests/soa_kernel_test.cpp at the repo-wide
// 1e-9 C bar against the test-only oracle):
//  * both consumers — SoaSnapshot and IncrementalThermalState — call the
//    pair-row entry and add its rows in ascending source order, which is
//    what makes an incremental state's full re-reduction equal SoaSnapshot
//    bit for bit at the same level;
//  * across tables the per-point operations are the same (sqrt, min/max,
//    one multiply, truncate, one lerp), but FMA contraction and the
//    within-block summation order differ: a few-ulp difference on a block
//    subtotal, identical for every run and thread count. Blocks combine in
//    the caller's per-source order, so error does not grow with die count.
//
// Each ISA lives in its own translation unit (soa_kernels_avx2.cpp built
// with -mavx2 -mfma on x86-64, soa_kernels_neon.cpp on AArch64); on foreign
// architectures those TUs compile to a stub returning nullptr, and dispatch
// serves the scalar table instead.
#pragma once

#include <cstddef>

#include "util/simd.h"

namespace rlplan::thermal {

/// Function-pointer table for one SIMD level: its one pair-row entry. Each
/// point contributes max(v, 0) to its block, read from a LUT with a floor
/// pre-subtracted: the uniform floor with images (every mirror at full
/// strength), 0 without. Mutual tables hold no negative knot
/// (MutualResistanceTable rejects one), so with a zero floor v >= 0 and the
/// clamp never fires.
///
/// Per-point math: d = sqrt((sx[k]-px)^2 + (sy[k]-py)^2);
/// x = min((clamp(d, front, back) - front) * inv_step, cap);
/// (base, diff) = lut[2*trunc(x)], lut[2*trunc(x)+1]; v = base +
/// (x - trunc(x)) * diff.
///
/// The entry computes one (receiver, source) coupling row: one source block
/// of `pts` points against `n_probes` probes, out[p] the block's sum of
/// per-point contributions at probe (px[p], py[p]). One indirect call covers
/// the whole row — per-(probe, block) calls would be dominated by call and
/// constant-setup cost at production block sizes.
///
/// All lengths are in points; buffers may be unaligned (std::vector
/// storage).
struct SoaKernelOps {
  /// The level these kernels implement.
  util::SimdLevel level;
  /// out[p] = sum of max(v, 0) over the block.
  void (*pair_row)(const double* px, const double* py, std::size_t n_probes,
                   const double* sx, const double* sy, std::size_t pts,
                   double front, double back, double inv_step, double cap,
                   const double* lut, double* out);
};

/// Kernels for `level`. Levels whose kernels are not compiled in or not
/// supported by the host get the scalar table — never a different SIMD
/// flavour — so the result always exists; its `level` names what it runs.
const SoaKernelOps& soa_kernel_ops(util::SimdLevel level);

/// The level soa_kernel_ops() serves for util::active_simd_level(): the
/// process-wide dispatch choice with unavailable levels collapsed to
/// kScalar. This is the value benches publish.
util::SimdLevel soa_dispatch_level();

// Per-level tables. The scalar one always exists; the SIMD ones are defined
// in their own TUs and are nullptr when unavailable.
const SoaKernelOps& soa_kernel_ops_scalar();
const SoaKernelOps* soa_kernel_ops_avx2();
const SoaKernelOps* soa_kernel_ops_neon();

}  // namespace rlplan::thermal
