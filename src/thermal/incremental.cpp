#include "thermal/incremental.h"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.h"

namespace rlplan::thermal {

util::SimdLevel IncrementalThermalState::dispatch_level() {
  return soa_dispatch_level();
}

util::SimdLevel IncrementalThermalState::set_simd_level(
    util::SimdLevel level) {
  ops_ = &soa_kernel_ops(level);
  // Re-reduce at the next query instead of patching sums of another level.
  sums_valid_ = false;
  patch_epoch_ = 0;
  return ops_->level;
}

IncrementalThermalState::IncrementalThermalState(const FastThermalModel& model,
                                                 const ChipletSystem& system)
    : model_(&model),
      system_(&system),
      ops_(&soa_kernel_ops(util::active_simd_level())) {
  if (model.empty()) {
    throw std::invalid_argument(
        "IncrementalThermalState: model has no tables");
  }
  const std::size_t n = system.num_chiplets();
  if (n > kMaxChiplets) {
    throw std::invalid_argument(
        "IncrementalThermalState: system exceeds kMaxChiplets");
  }
  k_.bind(model);
  probe_count_ = k_.pc;
  dies_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    dies_[i].power = system.chiplet(i).power;
  }
  pair_.assign(n * n * probe_count_, 0.0);
  probe_x_.assign(n * probe_count_, 0.0);
  probe_y_.assign(n * probe_count_, 0.0);
  src_x_.assign(n * k_.ss * k_.img, 0.0);
  src_y_.assign(n * k_.ss * k_.img, 0.0);
  src_scale_.assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    src_scale_[i] = dies_[i].power / static_cast<double>(k_.ss);
  }
  mutual_sum_.assign(n * probe_count_, 0.0);
}

void IncrementalThermalState::refresh_die_blocks(std::size_t i) {
  const DieCache& die = dies_[i];
  double* px = probe_x_.data() + i * probe_count_;
  double* py = probe_y_.data() + i * probe_count_;
  for (std::size_t p = 0; p < die.probes.size(); ++p) {
    px[p] = die.probes[p].x;
    py[p] = die.probes[p].y;
  }
  if (die.power <= 0.0) return;
  const std::size_t pts = k_.ss * k_.img;
  double* xs = src_x_.data() + i * pts;
  double* ys = src_y_.data() + i * pts;
  for (const Point& s : die.subs) {
    k_.expand_source_point(s, xs, ys);
    xs += k_.img;
    ys += k_.img;
  }
}

void IncrementalThermalState::compute_pair_row(std::size_t receiver,
                                               std::size_t source) {
  const std::size_t pts = k_.ss * k_.img;
  double* row = pair_row(receiver, source);
  k_.pair_row(*ops_, probe_x_.data() + receiver * probe_count_,
              probe_y_.data() + receiver * probe_count_,
              src_x_.data() + source * pts, src_y_.data() + source * pts, row);
  const double scale = src_scale_[source];
  for (std::size_t p = 0; p < probe_count_; ++p) {
    row[p] = k_.contribution(row[p], scale);
  }
}

void IncrementalThermalState::patch_source_terms(std::size_t i, double sign) {
  // sign is exactly +-1.0: sign * row is the value or its negation bit-for-
  // bit, so add/subtract patches are exact inverses of each other.
  for (std::size_t j = 0; j < dies_.size(); ++j) {
    if (j == i || !dies_[j].placement) continue;
    const double* row = pair_row(j, i);
    double* sum = mutual_sum_.data() + j * probe_count_;
    for (std::size_t p = 0; p < probe_count_; ++p) {
      sum[p] += sign * row[p];
    }
  }
}

void IncrementalThermalState::rebuild_receiver_sum(std::size_t i) const {
  double* sum = mutual_sum_.data() + i * probe_count_;
  std::fill(sum, sum + probe_count_, 0.0);
  // Ascending source order, like SoaSnapshot: per probe the adds happen in
  // the identical sequence, so the rebuilt sums are deterministic,
  // independent of mutation history, and equal to the snapshot's.
  for (std::size_t j = 0; j < dies_.size(); ++j) {
    if (j == i || !dies_[j].placement || dies_[j].power <= 0.0) continue;
    const double* row = pair_row(i, j);
    for (std::size_t p = 0; p < probe_count_; ++p) {
      sum[p] += row[p];
    }
  }
}

void IncrementalThermalState::ensure_sums() const {
  // Patching drifts from the fresh ascending re-summation by ~1 ulp of the
  // sum magnitude per move; a full deterministic re-reduce on the first
  // query and every kResumInterval patches bounds it to ~1e-13 C.
  if (sums_valid_ && patch_epoch_ < kResumInterval) return;
  for (std::size_t i = 0; i < dies_.size(); ++i) {
    if (dies_[i].placement) rebuild_receiver_sum(i);
  }
  sums_valid_ = true;
  patch_epoch_ = 0;
  ++sum_resums_;
}

void IncrementalThermalState::apply_place(std::size_t i, const Placement& p) {
  DieCache& die = dies_[i];
  // A move invalidates i's source terms inside every other placed
  // receiver's partial sums; subtract the cached rows before they are
  // overwritten below.
  if (sums_valid_ && die.placement && die.power > 0.0) {
    patch_source_terms(i, -1.0);
  }
  if (!die.placement) ++num_placed_;
  die.placement = p;
  const Chiplet& chip = system_->chiplet(i);
  const double w = p.rotated ? chip.height : chip.width;
  const double h = p.rotated ? chip.width : chip.height;
  die.rect = Rect{p.position.x, p.position.y, w, h};
  model_->receiver_probes(die.rect, die.probes, die.shapes);
  die.self_rise = model_->self_rise(chip, die.rect);
  if (die.power > 0.0) model_->source_points(die.rect, die.subs);
  refresh_die_blocks(i);

  // Refresh the couplings involving die i, in both directions: one
  // kernel-row recompute per direction per placed peer.
  for (std::size_t j = 0; j < dies_.size(); ++j) {
    if (j == i || !dies_[j].placement) continue;
    if (dies_[j].power > 0.0) {
      compute_pair_row(i, j);  // source j -> receiver i
      ++pair_updates_;
    }
    if (die.power > 0.0) {
      compute_pair_row(j, i);  // source i -> receiver j
      ++pair_updates_;
    }
  }

  if (sums_valid_) {
    // Patch i's new source terms into the peers' sums and re-sum i's own
    // row fresh (its receiver terms all changed anyway).
    if (die.power > 0.0) patch_source_terms(i, 1.0);
    rebuild_receiver_sum(i);
    ++patch_epoch_;
    ++sum_patches_;
  }
}

void IncrementalThermalState::apply_remove(std::size_t i) {
  if (dies_[i].placement) {
    if (sums_valid_ && dies_[i].power > 0.0) patch_source_terms(i, -1.0);
    dies_[i].placement.reset();
    --num_placed_;
    if (sums_valid_) {
      ++patch_epoch_;
      ++sum_patches_;
    }
  }
  // Cached couplings and geometry stay behind: they are only read for placed
  // dies, and re-placing i recomputes them.
}

void IncrementalThermalState::place(std::size_t i, const Placement& p) {
  if (i >= dies_.size()) {
    throw std::out_of_range("IncrementalThermalState: chiplet index");
  }
  if (dies_[i].placement == p) return;
  JournalEntry entry;
  entry.die = i;
  entry.prev_cache = dies_[i];
  // Placing overwrites the die's couplings with every placed peer; snapshot
  // them so undo() is a copy, not a kernel recomputation. Unconditional even
  // for a first-time place: an earlier remove(i) in the same transaction
  // still needs the pre-place rows back when it is undone.
  for (std::size_t j = 0; j < dies_.size(); ++j) {
    if (j == i || !dies_[j].placement) continue;
    entry.peers.push_back(j);
    const double* ij = pair_row(i, j);
    const double* ji = pair_row(j, i);
    entry.saved_rows.insert(entry.saved_rows.end(), ij, ij + probe_count_);
    entry.saved_rows.insert(entry.saved_rows.end(), ji, ji + probe_count_);
  }
  entry.sums_were_valid = sums_valid_;
  entry.prev_patch_epoch = patch_epoch_;
  if (entry.sums_were_valid) entry.prev_sums = mutual_sum_;
  journal_.push_back(std::move(entry));
  apply_place(i, p);
}

void IncrementalThermalState::remove(std::size_t i) {
  if (i >= dies_.size()) {
    throw std::out_of_range("IncrementalThermalState: chiplet index");
  }
  if (!dies_[i].placement) return;
  // Removal leaves every pair row untouched (and nothing writes rows of an
  // unplaced die), so the cache snapshot alone restores it.
  JournalEntry entry;
  entry.die = i;
  entry.prev_cache = dies_[i];
  entry.sums_were_valid = sums_valid_;
  entry.prev_patch_epoch = patch_epoch_;
  if (entry.sums_were_valid) entry.prev_sums = mutual_sum_;
  journal_.push_back(std::move(entry));
  apply_remove(i);
}

void IncrementalThermalState::clear() {
  for (std::size_t i = 0; i < dies_.size(); ++i) remove(i);
}

void IncrementalThermalState::sync(const Floorplan& fp) {
  if (fp.num_chiplets() != dies_.size()) {
    throw std::invalid_argument(
        "IncrementalThermalState: floorplan/system size mismatch");
  }
  for (std::size_t i = 0; i < dies_.size(); ++i) {
    const auto& target = fp.placement(i);
    if (target == dies_[i].placement) continue;
    if (target) {
      place(i, *target);
    } else {
      remove(i);
    }
  }
}

void IncrementalThermalState::undo() {
  // Restore snapshots newest-first: at each step the placed set equals what
  // it was right after the corresponding forward mutation, so the journaled
  // peer rows land exactly where apply_place() overwrote them.
  while (!journal_.empty()) {
    JournalEntry entry = std::move(journal_.back());
    journal_.pop_back();
    const bool placed_now = dies_[entry.die].placement.has_value();
    const bool placed_before = entry.prev_cache.placement.has_value();
    if (placed_now && !placed_before) --num_placed_;
    if (!placed_now && placed_before) ++num_placed_;
    dies_[entry.die] = std::move(entry.prev_cache);
    const double* saved = entry.saved_rows.data();
    for (const std::size_t j : entry.peers) {
      std::copy(saved, saved + probe_count_, pair_row(entry.die, j));
      saved += probe_count_;
      std::copy(saved, saved + probe_count_, pair_row(j, entry.die));
      saved += probe_count_;
    }
    // The SoA blocks mirror the DieCache; blocks of unplaced dies are never
    // read, so restoring them can wait for a future re-place.
    if (dies_[entry.die].placement) refresh_die_blocks(entry.die);
    // Partial sums restore verbatim (bit-exact rollback); the oldest entry
    // wins, which is the state right before the whole transaction.
    if (entry.sums_were_valid) {
      mutual_sum_ = std::move(entry.prev_sums);
      patch_epoch_ = entry.prev_patch_epoch;
      sums_valid_ = true;
    } else {
      sums_valid_ = false;
      patch_epoch_ = 0;
    }
  }
}

double IncrementalThermalState::receiver_peak_rise(std::size_t i) const {
  const DieCache& die = dies_[i];
  const double* sum = mutual_sum_.data() + i * probe_count_;
  double worst = 0.0;
  for (std::size_t p_idx = 0; p_idx < probe_count_; ++p_idx) {
    worst = std::max(worst, die.self_rise * die.shapes[p_idx] + sum[p_idx]);
  }
  return worst;
}

double IncrementalThermalState::max_temperature_c() const {
  ensure_sums();
  double max_temp = model_->ambient_c();
  for (std::size_t i = 0; i < dies_.size(); ++i) {
    if (!dies_[i].placement) continue;
    max_temp =
        std::max(max_temp, model_->ambient_c() + receiver_peak_rise(i));
  }
  return max_temp;
}

double IncrementalThermalState::chiplet_temperature_c(std::size_t i) const {
  if (!dies_.at(i).placement) return model_->ambient_c();
  ensure_sums();
  return model_->ambient_c() + receiver_peak_rise(i);
}

void IncrementalThermalState::temperatures(std::vector<double>& out) const {
  out.assign(dies_.size(), model_->ambient_c());
  ensure_sums();
  for (std::size_t i = 0; i < dies_.size(); ++i) {
    if (dies_[i].placement) {
      out[i] = model_->ambient_c() + receiver_peak_rise(i);
    }
  }
}

// ---------------------------------------------------------------------------

bool IncrementalFastModelEvaluator::bind(Binding& b,
                                         const ChipletSystem& system) {
  if (system.num_chiplets() > IncrementalThermalState::kMaxChiplets) {
    return false;
  }
  // Exact content equality, not a hash: a *different* system recycled at the
  // same address (common in test loops) must force a rebuild instead of
  // silently reading stale per-die caches.
  if (!b.state || &b.state->system() != &system ||
      b.interposer_w != system.interposer_width() ||
      b.interposer_h != system.interposer_height() ||
      b.chiplets != system.chiplets()) {
    b.state.emplace(model_, system);
    if (forced_level_) b.state->set_simd_level(*forced_level_);
    b.interposer_w = system.interposer_width();
    b.interposer_h = system.interposer_height();
    b.chiplets = system.chiplets();
  }
  return true;
}

void IncrementalFastModelEvaluator::set_simd_level(util::SimdLevel level) {
  forced_level_ = level;
  for (Binding* b : {&session_, &batch_}) {
    if (b->state) b->state->set_simd_level(level);
  }
}

std::vector<double> IncrementalFastModelEvaluator::max_temperature_batch(
    const ChipletSystem& system, std::span<const Floorplan> floorplans,
    parallel::ThreadPool* pool) {
  count_ += static_cast<long>(floorplans.size());
  std::vector<double> out;
  out.reserve(floorplans.size());
  if (!bind(batch_, system)) {
    full_evals_ += static_cast<long>(floorplans.size());
    for (const auto& r : model_.evaluate_batch(system, floorplans, pool)) {
      out.push_back(r.max_temp_c);
    }
    return out;
  }
  RLPLAN_COUNTER_ADD("thermal.batch.candidates", floorplans.size());
  if (floorplans.empty()) return out;
  // The batch state's partial sums stay dropped between queries, so no
  // mutation patches or journals sums that the next query re-sums anyway.
  IncrementalThermalState& state = *batch_.state;
  // The base: per die, the placement most candidates share (Boyer-Moore
  // majority vote). In an SA round that is the current floorplan, so each
  // candidate places only its own moved dies. The state is a cache, so any
  // base gives the same bits; the vote only keeps the kernel work small.
  for (std::size_t i = 0; i < system.num_chiplets(); ++i) {
    const std::optional<Placement>* vote = &floorplans[0].placement(i);
    std::size_t lead = 0;
    for (const Floorplan& fp : floorplans) {
      if (lead == 0) vote = &fp.placement(i);
      lead = fp.placement(i) == *vote ? lead + 1 : lead - 1;
    }
    if (*vote) {
      state.place(i, **vote);
    } else {
      state.remove(i);
    }
  }
  state.commit();
  for (const Floorplan& fp : floorplans) {
    state.sync(fp);
    out.push_back(state.max_temperature_c());  // a full re-reduction
    state.drop_sums();
    state.undo();
  }
  return out;
}

void IncrementalFastModelEvaluator::notify_reset(const ChipletSystem& system) {
  if (!bind(session_, system)) return;
  session_.state->commit();
  session_.state->clear();
  session_.state->commit();
}

void IncrementalFastModelEvaluator::notify_place(const ChipletSystem& system,
                                                 std::size_t i,
                                                 const Placement& p) {
  if (!bind(session_, system)) return;
  session_.state->place(i, p);
}

void IncrementalFastModelEvaluator::notify_remove(std::size_t i) {
  if (session_.state) session_.state->remove(i);
}

void IncrementalFastModelEvaluator::commit() {
  // Counters only on the incremental protocol: a query costs ~1 µs, so a
  // trace span (~50 ns) would breach the <2% overhead budget; the SA/RL
  // layers above carry the spans. Without a session there is nothing to
  // commit or roll back (batch-scored SA rounds), and nothing is counted.
  if (!session_.state) return;
  RLPLAN_COUNTER_INC("thermal.incremental.commits");
  session_.state->commit();
}

void IncrementalFastModelEvaluator::rollback() {
  if (!session_.state) return;
  RLPLAN_COUNTER_INC("thermal.incremental.rollbacks");
  session_.state->undo();
}

double IncrementalFastModelEvaluator::incremental_max_temperature(
    const ChipletSystem& system, const Floorplan& floorplan) {
  if (!bind(session_, system)) {
    // Oversized system: dense pair cache not worth it, batch evaluate.
    RLPLAN_COUNTER_INC("thermal.incremental.fallback_full_evals");
    return max_temperature(system, floorplan);
  }
  IncrementalThermalState& state = *session_.state;
  RLPLAN_COUNTER_INC("thermal.incremental.queries");
  state.sync(floorplan);
  if (obs::metrics_enabled()) {
    // Cache effectiveness: coupling ROWS actually recomputed since the last
    // query vs n per query for a full rebuild, plus partial-sum patches.
    const long updates = state.pair_updates();
    // A session rebuild resets the state's counters; restart the baselines.
    RLPLAN_COUNTER_ADD(
        "thermal.incremental.pair_updates",
        updates >= last_pair_updates_ ? updates - last_pair_updates_ : updates);
    last_pair_updates_ = updates;
    const long patches = state.sum_patches();
    RLPLAN_COUNTER_ADD(
        "thermal.incremental.sum_patches",
        patches >= last_sum_patches_ ? patches - last_sum_patches_ : patches);
    last_sum_patches_ = patches;
  }
  ++count_;
  ++incremental_queries_;
  return state.max_temperature_c();
}

}  // namespace rlplan::thermal
