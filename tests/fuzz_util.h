// Shared plumbing for the differential fuzz suites (soa_kernel_test,
// incremental_thermal_test, bump_test, nn_kernel_test, grid_solver_test,
// annealer_test), the corruption fuzz (session_test, fast_model_test,
// scenario_test) and CI's nightly long-fuzz job:
//
//  * RLPLANNER_FUZZ_SCALE multiplies iteration counts (the schedule job runs
//    20x under ASan/UBSan);
//  * RLPLANNER_FUZZ_FAILURE_FILE collects one reproduction-seed line per
//    failing case, uploaded as a CI artifact so a red night replays locally
//    at any scale from just that line.
//
// Keep the env-var names and the one-line seed format in sync with
// .github/workflows/ci.yml's nightly-long-fuzz job.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

namespace rlplan::testing {

/// Iteration multiplier from RLPLANNER_FUZZ_SCALE (default 1 — the regular
/// suites already clear their case-count bars at scale 1).
inline int fuzz_scale() {
  const char* s = std::getenv("RLPLANNER_FUZZ_SCALE");
  if (s == nullptr) return 1;
  const int v = std::atoi(s);
  return v > 0 ? v : 1;
}

/// Appends a one-line reproduction seed to the nightly failure artifact (and
/// stderr, tagged with the suite name).
inline void report_failure_seed(const char* suite,
                                const std::string& context) {
  std::fprintf(stderr, "[%s] FAILING CASE: %s\n", suite, context.c_str());
  if (const char* path = std::getenv("RLPLANNER_FUZZ_FAILURE_FILE")) {
    std::ofstream os(path, std::ios::app);
    os << context << '\n';
  }
}

}  // namespace rlplan::testing
