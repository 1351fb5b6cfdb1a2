// Deterministic, seed-driven fault injection for chaos testing.
//
// Configuration comes from the environment (or configure(), for tests):
//
//   RLPLANNER_FAULTS=ckpt_write:0.05,solver_diverge:0.02
//   RLPLANNER_FAULT_SEED=42          # default 0
//
// Each named site is a point in the code that asks `fault_point("site")`;
// the k-th hit of a site injects iff a stateless hash of
// (seed, site, k) maps below the configured probability. Because the decision
// depends only on the hit index — not on wall clock, thread ids, or RNG state
// shared with the workload — a given (spec, seed) pair reproduces the exact
// same injection sequence on every run, regardless of thread scheduling
// within a site. Unconfigured runs pay one relaxed atomic load per site hit.
//
// Shipped sites (documented in README "Robustness & fault tolerance"):
//
//   ckpt_write      TrainingSession::save_checkpoint -> TransientIoError
//   artifact_write  util::atomic_write_file (JSON/bench/metrics/trace
//                   artifacts and checkpoints) -> TransientIoError
//                   (retried internally)
//   pool_dispatch   ThreadPool::parallel_for degrades to inline execution
//   solver_diverge  GridThermalSolver treats the CG solve as non-converged
//                   and exercises the fallback re-solve
//   ppo_nan         PpoCore::update poisons one gradient with NaN, which the
//                   finiteness guard must catch and roll back
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace rlplan::robust {

class FaultInjector {
 public:
  /// Process-wide injector; first call parses RLPLANNER_FAULTS /
  /// RLPLANNER_FAULT_SEED.
  static FaultInjector& instance();

  /// Any site configured with probability > 0? One relaxed load.
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Records a hit at `site` and returns whether the fault fires. Decision
  /// for the k-th hit is a pure function of (seed, site, k).
  bool should_inject(std::string_view site);

  /// Test / tool hook: replace configuration. Spec syntax as the env var;
  /// throws std::invalid_argument on malformed specs. Resets all counters.
  void configure(const std::string& spec, std::uint64_t seed);
  /// Removes all sites and resets counters (injection fully off).
  void clear();

  std::uint64_t hit_count(std::string_view site) const;
  std::uint64_t injected_count(std::string_view site) const;
  std::uint64_t seed() const;

 private:
  FaultInjector();
  struct Impl;
  Impl* impl_;  // leaked singleton state (survives static teardown)
  std::atomic<bool> enabled_{false};
};

/// Convenience: `FaultInjector::instance().should_inject(site)` with obs
/// accounting ("robust.fault.<site>" counters maintained by the injector).
/// The unconfigured fast path is one relaxed atomic load.
inline bool fault_point(std::string_view site) {
  FaultInjector& inj = FaultInjector::instance();
  if (!inj.enabled()) return false;
  return inj.should_inject(site);
}

}  // namespace rlplan::robust
