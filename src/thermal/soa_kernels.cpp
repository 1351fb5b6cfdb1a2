#include "thermal/soa_kernels.h"

namespace rlplan::thermal {

const SoaKernelOps& soa_kernel_ops(util::SimdLevel level) {
  const SoaKernelOps* ops = nullptr;
  switch (level) {
    case util::SimdLevel::kAvx2:
      // The AVX2 TU is compiled into every x86-64 binary; gate on the
      // runtime cpuid so forcing RLPLANNER_SIMD=avx2 on an SSE2-only host
      // degrades to scalar instead of faulting on the first vector op.
      if (util::detected_simd_level() == util::SimdLevel::kAvx2) {
        ops = soa_kernel_ops_avx2();
      }
      break;
    case util::SimdLevel::kNeon:
      // NEON is baseline on AArch64 — the TU itself is the stub elsewhere.
      ops = soa_kernel_ops_neon();
      break;
    case util::SimdLevel::kScalar:
      break;
  }
  return ops != nullptr ? *ops : soa_kernel_ops_scalar();
}

util::SimdLevel soa_dispatch_level() {
  return soa_kernel_ops(util::active_simd_level()).level;
}

}  // namespace rlplan::thermal
