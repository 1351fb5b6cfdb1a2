// Deterministic, seedable pseudo-random number generation.
//
// Every stochastic component in RLPlanner (environment resets, PPO sampling,
// SA move proposals, synthetic system generation, weight initialization)
// takes an explicit 64-bit seed and owns its own generator, so experiments
// are reproducible and independent streams never interleave.
//
// ## Seed derivation (the training stack's single-seed contract)
//
// One master seed S — RlPlannerConfig::seed / TrainingSessionConfig::seed —
// derives EVERY stream the training engine consumes. The derivation is part
// of the checkpoint/determinism contract and must stay stable across
// releases:
//
//   stream                        | seed                                | used by
//   ------------------------------+-------------------------------------+---------
//   net init + PPO update shuffle | S (Rng(S) directly; weight init     | PpoCore
//   + RND init & predictor shuffle|   draws first, then minibatch and   |
//                                 |   RND shuffles continue the stream) |
//   action sampling, env replica i| derive_substream_seed(S_t, i)       | VecEnv
//   of curriculum task t (one     |   (the (i+1)-th SplitMix64 value)   |
//   replica == i = 0)             |                                     |
//   curriculum scenario picks     | derive_named_stream_seed(S,         | Training-
//                                 |   substream::kCurriculum)           | Session
//
// where S_t is the per-task base seed: S_0 = S — so single-scenario
// sessions and RlPlanner sample identical streams for one seed — and
// S_t = derive_named_stream_seed(S, substream::kTaskBase + t) for t > 0, so
// curriculum tasks never replay each other's action sequences.
//
// Env-replica indices occupy [0, parallel::VecEnv::kMaxEnvs); the named
// substream constants below start far above that range so no reserved stream
// can collide with a replica stream. Generators also expose their raw state
// (Rng::state / set_state) so full-state checkpoints (nn/serialize.h,
// RLPNNv2) resume every stream bit-exactly.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

namespace rlplan {

/// SplitMix64: used to expand a single user seed into stream state.
/// Reference: Steele, Lea, Flood — "Fast splittable pseudorandom number
/// generators" (OOPSLA 2014).
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Xoshiro256** — fast, high-quality 64-bit PRNG (Blackman & Vigna).
/// Satisfies UniformRandomBitGenerator so it can also feed <random>
/// distributions, but the members below avoid libstdc++ distribution
/// implementation differences for full cross-platform determinism.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x2b5ad5b8c2d8e7f1ULL) {
    SplitMix64 sm(seed);
    for (auto& s : s_) s = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<std::uint64_t>::max();
  }

  result_type operator()() { return next(); }

  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). Unbiased via rejection.
  std::uint64_t uniform_int(std::uint64_t n) {
    if (n == 0) return 0;
    const std::uint64_t threshold = (0 - n) % n;  // 2^64 mod n
    for (;;) {
      const std::uint64_t r = next();
      if (r >= threshold) return r % n;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    uniform_int(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Standard normal via Box–Muller (no cached spare: keeps state trivial).
  double normal() {
    double u1 = uniform();
    while (u1 <= 0.0) u1 = uniform();
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

  double normal(double mean, double stddev) {
    return mean + stddev * normal();
  }

  /// Bernoulli trial with probability p.
  bool bernoulli(double p) { return uniform() < p; }

  /// Derive an independent child stream (for per-component seeding).
  Rng split() { return Rng(next() ^ 0x9e3779b97f4a7c15ULL); }

  /// Raw generator state, for full-state checkpointing. A generator restored
  /// with set_state() produces the exact output sequence of the snapshotted
  /// one.
  std::array<std::uint64_t, 4> state() const {
    return {s_[0], s_[1], s_[2], s_[3]};
  }
  void set_state(const std::array<std::uint64_t, 4>& s) {
    for (std::size_t i = 0; i < 4; ++i) s_[i] = s[i];
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

/// Seed of sub-stream `index` of `base`: the (index+1)-th output of a
/// SplitMix64 stream over `base`. Used for *small, dense* index ranges —
/// environment replicas, [0, parallel::VecEnv::kMaxEnvs) — where the
/// O(index) walk is a handful of iterations. parallel::VecEnv::derive_seed
/// delegates here, and the serial trainer's action stream is sub-stream 0,
/// so `num_envs == 1` samples from exactly the stream replica 0 would use.
/// Stable across releases: checkpoints and recorded trajectories depend on
/// it.
inline std::uint64_t derive_substream_seed(std::uint64_t base,
                                           std::uint64_t index) {
  SplitMix64 sm(base);
  std::uint64_t s = 0;
  for (std::uint64_t i = 0; i <= index; ++i) s = sm.next();
  return s;
}

/// O(1) derivation for *named* streams (substream:: tags below): one
/// SplitMix64 output over the golden-ratio-scrambled tag folded into the
/// base. Tags must be nonzero — tag 0 would collapse onto replica stream 0.
/// Stable across releases, like derive_substream_seed.
inline std::uint64_t derive_named_stream_seed(std::uint64_t base,
                                              std::uint64_t tag) {
  SplitMix64 sm(base ^ (tag * 0x9e3779b97f4a7c15ULL));
  return sm.next();
}

/// Reserved named-stream tags (all nonzero; see derive_named_stream_seed).
namespace substream {
constexpr std::uint64_t kCurriculum = 1;  ///< scenario sampling
/// Per-task seed bases: curriculum task t > 0 uses tag kTaskBase + t.
constexpr std::uint64_t kTaskBase = 2;
}  // namespace substream

}  // namespace rlplan
