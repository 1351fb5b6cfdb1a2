// Cross-request caches — the daemon's throughput unlock.
//
// A floorplanning job's dominant fixed cost is thermal characterization:
// dozens of ground-truth grid solves that depend only on the (layer stack,
// characterization config, interposer footprint) triple, not on the job's
// netlist, budgets, or seed. A CLI invocation pays it every time; a resident
// daemon pays it once per distinct triple and serves every later job from
// the cache. The cached FastThermalModel already holds its
// resampled_uniform() mutual table (built at model construction), so the
// resample cost is amortized by the same entry.
//
// Keying: one cache holds one layer stack and one characterization config,
// so a model's identity inside it is the interposer footprint alone. Entries
// are keyed by the exact bits of (width, height): equal footprints share a
// model, every other pair (a 50x60 interposer is not a 60x50 one) gets its
// own, and no digest stands between a request and its entry to alias two
// footprints.
//
// The second cache is the warm-start checkpoint store: RL legs of the same
// scenario *family* (same topology/size/grid — the shape the policy net must
// match) can reuse the previous job's trained weights instead of starting
// from random init. Opt-in per job (warm-started results are deliberately
// NOT bit-identical to a cold run, so parity-sensitive callers leave it
// off). Checkpoints live as RLPNNv2 files under a caller-owned directory;
// writes go through the session's atomic write-then-rename saver, so
// concurrent jobs of one family race benignly (readers see a complete old
// or new file, never a torn one).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

#include "systems/scenario.h"
#include "thermal/characterize.h"
#include "thermal/fast_model.h"
#include "thermal/layer_stack.h"

namespace rlplan::serve {

struct CharacterizationCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;  ///< each miss ran one full characterization
  double characterize_seconds = 0.0;  ///< total time spent on misses
  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// Thread-safe characterized-model cache. The map mutex is held only for
/// entry lookup; characterization itself runs under a per-entry once_flag,
/// so distinct footprints characterize concurrently and only same-footprint
/// requests wait (map nodes are address-stable, so returned references stay
/// valid for the cache's lifetime).
class CharacterizationCache {
 public:
  /// The stack is copied: a daemon's cache must not dangle on caller state.
  CharacterizationCache(thermal::LayerStack stack,
                        thermal::CharacterizationConfig config);

  /// The model for one interposer footprint; characterizes on first use.
  /// Safe to call concurrently. The reference lives as long as the cache.
  const thermal::FastThermalModel& get(double interposer_w_mm,
                                       double interposer_h_mm);

  const thermal::LayerStack& stack() const { return stack_; }
  const thermal::CharacterizationConfig& config() const { return config_; }
  std::size_t entries() const;
  CharacterizationCacheStats stats() const;

 private:
  struct Entry {
    std::once_flag once;
    std::optional<thermal::FastThermalModel> model;
  };

  thermal::LayerStack stack_;
  thermal::CharacterizationConfig config_;
  mutable std::mutex mutex_;
  /// Keyed by the bit images of (interposer_w_mm, interposer_h_mm).
  std::map<std::pair<std::uint64_t, std::uint64_t>, Entry> entries_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> characterize_ns_{0};
};

/// Warm-start family of a scenario: the coordinates that must match for a
/// checkpoint's policy net to be loadable AND for its weights to plausibly
/// transfer — the problem instance up to the family seed and the policy
/// grid. A readable prefix (family topology + die count + interposer width,
/// or the builtin/inline instance name) plus, for families and inline
/// systems, a hex FNV-1a digest of the instance's scenario JSON
/// (systems::family_to_json without the seed, or
/// systems::inline_system_to_json), so the key covers every field the
/// scenario schema round-trips. Filesystem-safe ([A-Za-z0-9_.-] only).
std::string scenario_family_key(const systems::Scenario& scenario);

struct WarmStartCacheStats {
  std::uint64_t hits = 0;    ///< lookups that found a loadable checkpoint
  std::uint64_t misses = 0;  ///< no checkpoint yet (or load failed)
  std::uint64_t stores = 0;  ///< checkpoints published after RL legs
};

/// Per-family checkpoint store backed by `dir` (created on first store).
/// Disabled when constructed with an empty dir: lookups miss, stores no-op.
class WarmStartCache {
 public:
  explicit WarmStartCache(std::string dir);

  bool enabled() const { return !dir_.empty(); }

  /// Path of the family's checkpoint when one exists on disk.
  std::optional<std::string> lookup(const std::string& family_key);

  /// Path a freshly trained family checkpoint should be saved to (the saver
  /// must write atomically; rl::TrainingSession::save_checkpoint does).
  /// Empty when the cache is disabled.
  std::string store_path(const std::string& family_key);

  /// Bookkeeping hooks: the runner reports what actually happened (a lookup
  /// hit that fails checkpoint validation is a miss, not a hit).
  void note_hit() { ++hits_; }
  void note_miss() { ++misses_; }
  void note_store() { ++stores_; }

  WarmStartCacheStats stats() const;

 private:
  std::string dir_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> stores_{0};
};

}  // namespace rlplan::serve
