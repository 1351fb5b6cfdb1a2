// Microbump assignment and total-wirelength evaluation (TAP-2.5D style).
//
// After all chiplets are placed, every inter-chiplet net's wires are assigned
// to bump-site pairs on the two dies so that total Manhattan wirelength is
// minimized (greedy nearest-facing-site matching with capacity limits). This
// is the W entering the reward; the cheap center-to-center estimate
// (Floorplan::center_wirelength) is only an optimization-loop proxy.
//
// An optimizer calls assign() once per candidate floorplan, and consecutive
// candidates differ in one or two dies. Each assigner therefore memoizes, by
// value, the work that depends only on geometry: every die's peripheral
// sites (keyed by the die's exact Rect) and every net's two facing orders
// (keyed by the exact rect pair of its endpoints). It also records its last
// two assignments net by net, in walk order: each net's wire lengths, its
// overflow count, both dies' site capacities after it, and the running sums
// before it. A call replays from the record whose first net on a die the
// candidate moved comes latest. It copies every net before that one. After
// it, it walks a net again only if one of its dies moved or has capacities
// that differ from the record's at that point; every other net adds its
// recorded lengths to the total again, one wire at a time. The result
// replaces the other record, so in classic SA the current floorplan stays
// recorded after an accept and after a reject alike (unless two candidates
// in a row moved the same dies), with no commit or rollback. The memo
// never changes a result: assign() is a pure function of (system,
// floorplan), and every WirelengthReport field is bit-identical to
// assigning from scratch.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "bump/bump_grid.h"
#include "core/chiplet.h"
#include "core/floorplan.h"

namespace rlplan::bump {

struct WirelengthReport {
  double total_mm = 0.0;
  std::vector<double> per_net_mm;  ///< indexed like system.nets()
  long wires_assigned = 0;
  /// Wires that exceeded site capacity and were wrapped onto already-full
  /// sites (0 in a well-dimensioned configuration).
  long capacity_overflows = 0;
};

class BumpAssigner {
 public:
  explicit BumpAssigner(BumpGridConfig config = {});
  /// A copy shares the configuration and starts with an empty memo.
  BumpAssigner(const BumpAssigner& other);
  BumpAssigner& operator=(const BumpAssigner& other);
  ~BumpAssigner();

  const BumpGridConfig& config() const { return config_; }

  /// Assigns every net of a *complete* floorplan and reports wirelength.
  /// Throws std::logic_error if any chiplet is unplaced, and
  /// std::invalid_argument for a net ChipletSystem::validate() rejects
  /// (endpoint out of range or a self-loop). Safe to call concurrently on one
  /// instance: calls serialize on the memo's lock.
  WirelengthReport assign(const ChipletSystem& system,
                          const Floorplan& floorplan) const;

 private:
  struct Memo;

  BumpGridConfig config_;
  mutable std::mutex memo_mutex_;
  mutable std::unique_ptr<Memo> memo_;  ///< guarded by memo_mutex_
};

}  // namespace rlplan::bump
