// The three open-source benchmark systems of Table I.
//
// The paper references these systems by citation; exact die dimensions, power
// budgets, and link widths are not published in machine-readable form, so the
// definitions below encode the documented *topology* (which die talks to
// which, relative die sizes, power classes) at magnitudes that land wirelength
// and temperature in the paper's reported regime: the paper's comparisons are
// relative (RL vs SA on the same system), so matching the topology and the
// operating regime is what keeps them meaningful.
#pragma once

#include <vector>

#include "core/chiplet.h"

namespace rlplan::systems {

/// Multi-GPU module (TAP-2.5D [Ma et al., DATE'21], after NVIDIA's MCM-GPU):
/// 4 GPU compute dies around a central switch, each GPU paired with an HBM
/// stack. ~347 W on a 52x52 mm interposer.
ChipletSystem make_multi_gpu_system();

/// Disintegrated CPU-DRAM server node (Kannan et al., MICRO'15): 6 core
/// cluster dies + 4 DRAM stacks + an I/O hub, all-to-all core-memory traffic.
/// ~322 W on a 48x48 mm interposer.
ChipletSystem make_cpu_dram_system();

/// Huawei Ascend 910 AI training module: one large compute die (Virtuvian),
/// an I/O die (Nimbus), 4 HBM stacks, 2 thermally/mechanically dummy dies.
/// Powers scaled to the paper's ~77 C operating point on a 45x32 mm
/// interposer.
ChipletSystem make_ascend910_system();

/// All three Table I benchmarks, in table order.
std::vector<ChipletSystem> make_benchmark_systems();

}  // namespace rlplan::systems
