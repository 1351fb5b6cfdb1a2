// Runtime SIMD dispatch for the explicitly vectorized hot kernels.
//
// The repo builds portable binaries (no -march=native): baseline codegen is
// SSE2 on x86-64 and plain NEON-less scalar elsewhere. Kernels that want
// wider vectors (the SoA thermal passes, thermal/soa_kernels_*.cpp) are
// compiled in dedicated translation units with per-file ISA flags and picked
// at runtime through this layer, so one binary runs everywhere and uses the
// widest implementation the host supports.
//
// Selection order:
//   1. RLPLANNER_SIMD env var, when set: "scalar" selects the portable
//      kernels (always available), "avx2"/"neon" request a specific
//      level, "auto" (or unset) defers to detection. Requesting a
//      level the host or the build cannot provide falls back to scalar —
//      never to a different SIMD level — so a forced leg tests exactly what
//      it names.
//   2. CPU detection: __builtin_cpu_supports("avx2") on x86-64; NEON is
//      architecturally guaranteed on AArch64.
//
// The choice is made once, at first query, and cached for the process (the
// env var is read at that point). Consumers that want per-instance control
// for differential testing bypass the cache: SoaSnapshot::set_simd_level and
// IncrementalThermalState::set_simd_level pin the level of the one pair-row
// kernel entry both of them run.
#pragma once

namespace rlplan::util {

enum class SimdLevel {
  kScalar = 0,  ///< portable kernels, no ISA extensions
  kAvx2 = 1,    ///< x86-64 AVX2 + FMA
  kNeon = 2,    ///< AArch64 Advanced SIMD
};

/// Human-readable level name ("scalar", "avx2", "neon") — the string
/// published into bench JSON and accepted by RLPLANNER_SIMD.
const char* simd_level_name(SimdLevel level);

/// Parses a RLPLANNER_SIMD value ("scalar"/"avx2"/"neon"/"auto").
/// Returns true and writes `out` on success ("auto" maps to the detected
/// level); returns false on an unrecognized string.
bool parse_simd_level(const char* s, SimdLevel& out);

/// Widest level the running CPU supports (env var ignored).
SimdLevel detected_simd_level();

/// The process-wide dispatch choice: RLPLANNER_SIMD when set (unknown values
/// warn once and fall back to detection), detected_simd_level() otherwise.
/// Cached after the first call.
SimdLevel active_simd_level();

}  // namespace rlplan::util
