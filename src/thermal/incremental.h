// Incremental thermal evaluation engine (the reward hot path).
//
// The fast model is a superposition: receiver i's temperature is its own
// self term plus the sum over every other placed die j of a pairwise
// coupling term that depends only on (i's probe points, j's sub-sources,
// both powers). Both optimizers mutate one or two dies per step (the RL env
// places one chiplet per action; TAP-2.5D SA displaces/swaps/rotates), so
// almost every pairwise term of the previous evaluation is still valid.
//
// IncrementalThermalState caches exactly those terms: a dense pairwise
// coupling table pair[receiver][source][probe] plus per-die self terms and
// probe/sub-source geometry. Placing (or moving) one die recomputes only the
// O(n) coupling rows involving that die through the dispatched kernel
// table's one pair-row entry (thermal/soa_kernels.h), fed by persistent SoA
// per-die blocks; removing a die or undoing a rejected SA move costs no
// kernel work at all.
//
// Queries answer from journaled per-receiver partial sums: a move patches
// them in place (subtract the moved die's old source terms, add the new
// ones, re-sum the moved die's own row), commit/rollback restores them
// bit-exactly from journaled snapshots, and a deterministic full
// re-reduction runs on the first query and every kResumInterval patches.
// Right after a full re-reduction the state equals a SoaSnapshot at the
// same SIMD level bit for bit, by construction: the snapshot calls the same
// pair-row entry per (receiver, source) and adds the rows in the same
// ascending source order. Between re-reductions the patched sums stay
// within 1e-9 C of it, identical for every run and thread count.
//
// IncrementalFastModelEvaluator adapts the state to the ThermalEvaluator
// incremental protocol (notify_place / notify_remove / commit / rollback)
// and is the fast model's evaluator everywhere — including parallel::VecEnv,
// whose per-replica clones each get independent state. It also scores
// population batches (SA rounds of K candidates, each one or two dies off
// the current floorplan) as deltas on a second, private state: only the
// dies where a candidate differs from the state's base are placed, every
// receiver is re-summed in full and the placements are undone, so each
// candidate costs O(moved dies * n) kernel rows instead of O(n^2) and gets
// exactly the same-level SoaSnapshot's bits (the anchor above).
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/chiplet.h"
#include "core/floorplan.h"
#include "thermal/evaluator.h"
#include "thermal/fast_model.h"
#include "thermal/soa_snapshot.h"
#include "util/simd.h"

namespace rlplan::thermal {

class IncrementalThermalState {
 public:
  /// Dense pair-cache memory grows as n^2 * probes^2; beyond this many dies
  /// callers should prefer batch evaluation (IncrementalFastModelEvaluator
  /// falls back automatically).
  static constexpr std::size_t kMaxChiplets = 256;

  /// Patched partial sums accumulate one rounding step per move; a full
  /// deterministic re-reduction every this many patches keeps the drift at
  /// ~64 ulp of the sum magnitude (~1e-13 C), far inside the 1e-9 envelope.
  static constexpr int kResumInterval = 64;

  /// `model` and `system` must outlive the state. Starts with an empty
  /// placement. Throws std::invalid_argument when the system exceeds
  /// kMaxChiplets or the model is empty.
  IncrementalThermalState(const FastThermalModel& model,
                          const ChipletSystem& system);

  const ChipletSystem& system() const { return *system_; }
  const FastThermalModel& model() const { return *model_; }

  std::size_t num_placed() const { return num_placed_; }
  bool is_placed(std::size_t i) const { return dies_.at(i).placement.has_value(); }
  const std::optional<Placement>& placement(std::size_t i) const {
    return dies_.at(i).placement;
  }

  /// Places chiplet `i` (or moves it when already placed): recomputes the
  /// O(n) coupling rows involving i. Journaled: a move additionally
  /// snapshots the overwritten couplings (and the partial-sum array) so
  /// undo() can restore them without kernel work.
  void place(std::size_t i, const Placement& p);
  /// Unplaces chiplet `i` (no kernel work). Journaled; no-op when unplaced.
  void remove(std::size_t i);
  /// Removes every placed chiplet (journaled like individual removes).
  void clear();
  /// Applies delta updates so the state matches `fp` (place/remove for each
  /// die whose placement differs). `fp` must be over the same system.
  void sync(const Floorplan& fp);

  /// Accepts all mutations since the last commit()/undo().
  void commit() { journal_.clear(); }
  /// Marks the partial sums invalid: mutations neither patch nor journal
  /// them until the next query, which runs a full re-reduction (and so
  /// lands on the same-level SoaSnapshot's bits).
  void drop_sums() { sums_valid_ = false; }
  /// Reverts all mutations since the last commit(), newest first, by
  /// restoring journaled snapshots — no kernel evaluations (the SA reject
  /// path costs pure memory copies). Partial sums are restored verbatim, so
  /// rollback is bit-exact.
  void undo();

  /// Peak temperature over placed dies (ambient when none placed), under
  /// the contract in the header comment: equal to a same-level SoaSnapshot
  /// right after a full re-reduction, within 1e-9 C of it otherwise.
  double max_temperature_c() const;
  /// All chiplet temperatures, indexed like the system.
  void temperatures(std::vector<double>& out) const;

  /// Directed pair coupling ROWS recomputed so far — one unit per
  /// (receiver, source) kernel-row recompute regardless of probe count
  /// (perf accounting: a batch evaluation costs n*(n-1) of these, a
  /// single-die move costs 2*(n-1)).
  long pair_updates() const { return pair_updates_; }
  /// Patched-sum mutations applied.
  long sum_patches() const { return sum_patches_; }
  /// Full deterministic re-reductions of the partial sums (first query plus
  /// one per kResumInterval patches).
  long sum_resums() const { return sum_resums_; }

  /// The SIMD level the pair-row kernels run at. New states start at
  /// soa_dispatch_level().
  util::SimdLevel simd_level() const { return ops_->level; }

  /// Overrides the kernel selection (differential tests, forced-scalar
  /// benches). Levels whose kernels are not compiled in or not supported by
  /// the host fall back to kScalar — never to a different SIMD level.
  /// Already cached rows keep the level they were computed at, so set it
  /// before the first place(). Returns the level actually installed.
  util::SimdLevel set_simd_level(util::SimdLevel level);

 private:
  struct DieCache {
    std::optional<Placement> placement;
    Rect rect{};
    double power = 0.0;      // from the system; fixed
    double self_rise = 0.0;  // R_self * power at the current placement
    std::vector<Point> probes;   // receiver probe points (probe_count())
    std::vector<double> shapes;  // per-probe self-heating shape factors
    std::vector<Point> subs;     // sub-source points (when power > 0)
  };

  struct JournalEntry {
    std::size_t die = 0;
    DieCache prev_cache;  // the die's full cache (incl. placement) before
    // Pair rows a move overwrote: for each peer j placed at mutation time,
    // the 2 * probe_count_ doubles of pair(die, j) followed by pair(j, die).
    // Empty for removes and first-time places (their undo needs no rows).
    std::vector<std::size_t> peers;
    std::vector<double> saved_rows;
    // Verbatim snapshot of the partial-sum array before the mutation (empty
    // when sums were not materialized), restored on undo so rollback is
    // bit-exact by construction.
    std::vector<double> prev_sums;
    bool sums_were_valid = false;
    int prev_patch_epoch = 0;
  };

  // Mutation primitives without journaling.
  void apply_place(std::size_t i, const Placement& p);
  void apply_remove(std::size_t i);

  double* pair_row(std::size_t receiver, std::size_t source) {
    return pair_.data() + (receiver * dies_.size() + source) * probe_count_;
  }
  const double* pair_row(std::size_t receiver, std::size_t source) const {
    return pair_.data() + (receiver * dies_.size() + source) * probe_count_;
  }

  /// Refreshes die i's persistent SoA blocks (flat probe coordinates and
  /// image-expanded sub-source coordinates) from its DieCache. Cheap —
  /// O(probes + ss * img) stores, no kernel math.
  void refresh_die_blocks(std::size_t i);
  /// Computes pair_row(receiver, source) from the persistent SoA blocks
  /// through SoaModelConsts::pair_row, the call the snapshot makes: per
  /// probe, the snapshot's contribution of that source, bit for bit.
  void compute_pair_row(std::size_t receiver, std::size_t source);

  /// Peak rise of placed receiver `i` from the materialized partial sums.
  double receiver_peak_rise(std::size_t i) const;

  /// Adds (sign +1) or subtracts (sign -1) die i's cached source rows
  /// from every other placed receiver's partial sums.
  void patch_source_terms(std::size_t i, double sign);
  /// Fresh ascending re-summation of receiver i's own partial sums.
  void rebuild_receiver_sum(std::size_t i) const;
  /// Materializes (or periodically re-reduces) the partial sums at query
  /// time; deterministic — depends only on the cached rows.
  void ensure_sums() const;

  const FastThermalModel* model_ = nullptr;
  const ChipletSystem* system_ = nullptr;
  std::size_t probe_count_ = 0;
  std::size_t num_placed_ = 0;
  std::vector<DieCache> dies_;
  // pair_[(i * n + j) * probe_count_ + p]: rise at probe p of receiver i
  // caused by source j (power folded in). Valid while both dies keep the
  // placement it was computed at.
  std::vector<double> pair_;
  std::vector<JournalEntry> journal_;
  long pair_updates_ = 0;
  long sum_patches_ = 0;
  mutable long sum_resums_ = 0;

  // Shared bind-time kernel constants plus the persistent SoA per-die blocks
  // feeding the pair-row kernels (refreshed in place per move; only read for
  // placed dies).
  SoaModelConsts k_{};
  std::vector<double> probe_x_;   // n * probe_count_
  std::vector<double> probe_y_;   // n * probe_count_
  std::vector<double> src_x_;     // n * ss * img
  std::vector<double> src_y_;     // n * ss * img
  std::vector<double> src_scale_; // n: power / ss (fixed per system)

  const SoaKernelOps* ops_;  ///< dispatched pair-row kernels; never null

  // Journaled per-die row partial sums: mutual_sum_[i * probe_count_ + p] is
  // the mutual term of receiver i at probe p, valid for placed dies while
  // sums_valid_. Mutable because queries materialize/re-reduce lazily.
  mutable std::vector<double> mutual_sum_;  // n * probe_count_
  mutable bool sums_valid_ = false;
  mutable int patch_epoch_ = 0;  ///< patches since the last full re-reduce
};

/// Fast-model evaluator ("fast thermal model" configuration): full queries
/// run FastThermalModel::evaluate(); incremental_max_temperature() answers
/// from an IncrementalThermalState (the session) kept in sync with the
/// caller's floorplan via diffing plus explicit notify_* calls; and
/// max_temperature_batch() scores candidates as deltas on a second state of
/// its own (see the file comment).
class IncrementalFastModelEvaluator final : public ThermalEvaluator {
 public:
  explicit IncrementalFastModelEvaluator(FastThermalModel model)
      : model_(std::move(model)) {}

  double max_temperature(const ChipletSystem& system,
                         const Floorplan& floorplan) override {
    ++count_;
    ++full_evals_;
    return model_.evaluate(system, floorplan).max_temp_c;
  }
  /// Per candidate: places the dies where it differs from the batch state's
  /// base (per die, the placement most candidates share), re-sums every
  /// receiver, takes the peak and undoes — the same bits as a same-level
  /// SoaSnapshot. Does not disturb the incremental session state, and runs
  /// on the calling thread; only systems above kMaxChiplets go through
  /// FastThermalModel::evaluate_batch() fanned over `pool`.
  std::vector<double> max_temperature_batch(
      const ChipletSystem& system, std::span<const Floorplan> floorplans,
      parallel::ThreadPool* pool = nullptr) override;
  long num_evaluations() const override { return count_; }
  std::string name() const override { return "fast-model-incremental"; }

  /// Deep copy with fresh (empty) incremental state — what VecEnv clones for
  /// each replica. A pinned SIMD level carries over.
  std::unique_ptr<ThermalEvaluator> clone() const override {
    auto copy = std::make_unique<IncrementalFastModelEvaluator>(model_);
    copy->forced_level_ = forced_level_;
    return copy;
  }

  bool supports_incremental() const override { return true; }
  void notify_reset(const ChipletSystem& system) override;
  void notify_place(const ChipletSystem& system, std::size_t i,
                    const Placement& p) override;
  void notify_remove(std::size_t i) override;
  void commit() override;
  void rollback() override;
  double incremental_max_temperature(const ChipletSystem& system,
                                     const Floorplan& floorplan) override;

  const FastThermalModel& model() const { return model_; }
  /// Incremental-path queries answered so far.
  long incremental_queries() const { return incremental_queries_; }
  /// Whole-floorplan O(n^2) evaluations performed (max_temperature calls
  /// and fallbacks for systems above kMaxChiplets).
  long full_evaluations() const { return full_evals_; }
  const IncrementalThermalState* state() const {
    return session_.state ? &*session_.state : nullptr;
  }

  /// Pins the pair-row kernel level for this evaluator's states, current
  /// and future: the session's and the batch state's, so both
  /// incremental_max_temperature() and max_temperature_batch() follow it,
  /// while max_temperature() keeps the dispatched level (forced-scalar
  /// benches and differential tests; per-instance, unlike the process-wide
  /// RLPLANNER_SIMD override).
  void set_simd_level(util::SimdLevel level);

 private:
  /// An incremental state plus the system content it was built from.
  struct Binding {
    std::optional<IncrementalThermalState> state;
    double interposer_w = 0.0;
    double interposer_h = 0.0;
    std::vector<Chiplet> chiplets;
  };
  /// (Re)binds `b` to `system`, detecting both pointer changes and a
  /// different system recycled at the same address (exact comparison of the
  /// interposer and every chiplet the state was built from). False when the
  /// system exceeds kMaxChiplets.
  bool bind(Binding& b, const ChipletSystem& system);

  FastThermalModel model_;
  Binding session_;  ///< the incremental protocol's state
  Binding batch_;    ///< max_temperature_batch()'s private state
  std::optional<util::SimdLevel> forced_level_;
  long count_ = 0;
  long incremental_queries_ = 0;
  long full_evals_ = 0;
  long last_pair_updates_ = 0;  ///< obs cache-effectiveness delta baseline
  long last_sum_patches_ = 0;   ///< obs delta baseline for sum patches
};

}  // namespace rlplan::thermal
