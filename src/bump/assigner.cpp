#include "bump/assigner.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/metrics.h"

namespace rlplan::bump {

namespace {

using SortKey = std::pair<double, std::uint32_t>;

/// One die's sites in the order they face a partner die: indices into the
/// die's site list (for capacities) and, contiguous for the wire walk, their
/// positions.
struct FacingOrder {
  std::vector<std::uint32_t> sites;
  std::vector<Point> positions;
};

/// Sorts `sites` by Manhattan distance from `target`, ties by index: exactly
/// the order std::stable_sort on distance alone gives.
void sort_facing(const std::vector<BumpSite>& sites, const Point& target,
                 std::vector<SortKey>& keys, FacingOrder& order) {
  keys.clear();
  for (std::size_t s = 0; s < sites.size(); ++s) {
    keys.emplace_back(manhattan(sites[s].position, target),
                      static_cast<std::uint32_t>(s));
  }
  std::sort(keys.begin(), keys.end());
  order.sites.resize(keys.size());
  order.positions.resize(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    order.sites[i] = keys[i].second;
    order.positions[i] = sites[keys[i].second].position;
  }
}

/// One end of a net being walked: its die's site capacities (indexed like
/// the die's sites) and its sites in facing order.
class NetEnd {
 public:
  NetEnd(int* capacity, const FacingOrder& order)
      : capacity_(capacity),
        order_(order.sites.data()),
        positions_(order.positions.data()),
        n_(order.sites.size()) {}

  /// Skips the sites already full at wire `wire`. Once every site is full,
  /// the end wraps around its facing order for the rest of the net, starting
  /// at slot wire % n and counting up from there.
  void seek(long wire) {
    if (overflow_) return;
    while (next_ < n_ && capacity_[order_[next_]] <= 0) ++next_;
    if (next_ == n_) {
      overflow_ = true;
      wrap_ = static_cast<std::size_t>(wire) % n_;
    }
  }
  /// Wires this end takes before its site changes: the current site's
  /// remaining capacity, or, when overflowing, the slots left before the
  /// order wraps.
  long room() const {
    return overflow_ ? static_cast<long>(n_ - wrap_)
                     : capacity_[order_[next_]];
  }
  /// Position of the next wire's site; the following wires' sites are
  /// stride() positions apart (the same site, or consecutive slots).
  const Point* position() const {
    return positions_ + (overflow_ ? wrap_ : next_);
  }
  std::size_t stride() const { return overflow_ ? 1 : 0; }
  /// Assigns the next `wires` wires (at most room()) to this end; returns
  /// how many of them overflowed.
  long take(long wires) {
    if (!overflow_) {
      capacity_[order_[next_]] -= static_cast<int>(wires);
      return 0;
    }
    wrap_ += static_cast<std::size_t>(wires);
    if (wrap_ == n_) wrap_ = 0;
    return wires;
  }

 private:
  int* capacity_;
  const std::uint32_t* order_;
  const Point* positions_;
  std::size_t n_;
  std::size_t next_ = 0;
  std::size_t wrap_ = 0;
  bool overflow_ = false;
};

/// Adds the lengths of the next `count` wires between ends `a` and `b` to
/// both sums, one wire at a time in wire order, so they round exactly as a
/// wire-by-wire walk does, and stores each length in `lengths`; returns the
/// new net sum. Kept out of line so both sums stay in registers: inlined
/// into assign(), GCC keeps one on the stack and its store-reload latency
/// lands on the chain of dependent adds.
[[gnu::noinline]] double add_wires(const NetEnd& a, const NetEnd& b,
                                   long count, double net_mm,
                                   double& total_mm, double* lengths) {
  const Point* pa = a.position();
  const Point* pb = b.position();
  const std::size_t stride_a = a.stride();
  const std::size_t stride_b = b.stride();
  double total = total_mm;
  for (long k = 0; k < count; ++k) {
    const auto i = static_cast<std::size_t>(k);
    const double len = manhattan(pa[i * stride_a], pb[i * stride_b]);
    lengths[i] = len;
    net_mm += len;
    total += len;
  }
  total_mm = total;
  return net_mm;
}

/// Adds recorded wire lengths to `total_mm` one at a time, in wire order:
/// the same adds, so the same bits, as the walk that recorded them.
double replay_wires(const double* lengths, long count, double total_mm) {
  for (long k = 0; k < count; ++k) total_mm += lengths[k];
  return total_mm;
}

}  // namespace

struct BumpAssigner::Memo {
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();

  /// A die's peripheral sites. Positions depend only on `rect`; capacities
  /// live in the records.
  struct Die {
    Rect rect;
    std::vector<BumpSite> sites;  ///< empty until first computed
  };
  /// A net's two facing orders, for the endpoint rects they were sorted at.
  struct Orders {
    Rect rect_a;
    Rect rect_b;
    FacingOrder a, b;  ///< empty until first computed
  };
  /// One net at its place in the walk, and where its results sit in a
  /// buffer. End 0 is the net's die a, end 1 its die b.
  struct Step {
    std::uint32_t net = 0;  ///< index into the net list
    std::uint32_t die[2] = {0, 0};
    long wires = 0;              ///< the net's wires, 0 if negative
    std::size_t first_wire = 0;  ///< offset of its wire lengths
    std::size_t capacity[2] = {0, 0};  ///< offsets of the ends' capacities
    /// The last earlier step on each end's die, and the offset of that
    /// die's capacities in it; kNone if the die starts this step full.
    std::uint32_t prior[2] = {kNone, kNone};
    std::size_t prior_capacity[2] = {0, 0};
  };
  /// Per-step results. There are two buffers, and each record says per step
  /// which one holds its results, so the two records share every step on
  /// which they agree. A buffer is allocated when first written, and never
  /// zero-filled: every entry is written before it is read.
  struct Buffer {
    std::unique_ptr<double[]> lengths;  ///< per wire, in wire order
    /// Per step end: the die's site capacities after the step.
    std::unique_ptr<int[]> capacity;
    std::vector<double> net_mm;   ///< per step
    std::vector<long> overflows;  ///< per step
  };
  /// One recorded assignment.
  struct Record {
    bool valid = false;
    std::vector<Rect> rects;           ///< the die rects it was assigned at
    std::vector<std::uint8_t> buffer;  ///< per step: the buffer it used
    /// Per step, the running sums before it; the last entries are the
    /// report's totals.
    std::vector<double> total_before;
    std::vector<long> overflows_before;
  };

  /// The first step touching a die whose rect differs between the
  /// candidate and `record`, or -1 if the record is empty; `differing`
  /// counts those dies.
  long first_difference(const Record& record, std::size_t n,
                        std::size_t& differing) const {
    differing = std::numeric_limits<std::size_t>::max();
    if (!record.valid) return -1;
    differing = 0;
    std::size_t first = steps.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (!(dies[i].rect == record.rects[i])) {
        first = std::min<std::size_t>(first, first_step[i]);
        ++differing;
      }
    }
    return static_cast<long>(first);
  }

  /// Lays the walk out for a net list (the dies' sites must be current) and
  /// empties both records. Throws, changing nothing, on a malformed net.
  void lay_out(const std::vector<InterChipletNet>& system_nets,
               std::size_t n);

  /// Allocates the buffers a call may write: only buffer 0 without a
  /// reference, so a fresh assigner allocates one.
  void allocate(int count) {
    for (Buffer& buffer : std::span(buffers, count)) {
      if (buffer.lengths) continue;
      buffer.lengths = std::make_unique_for_overwrite<double[]>(
          static_cast<std::size_t>(wires));
      buffer.capacity = std::make_unique_for_overwrite<int[]>(capacities);
      buffer.net_mm.resize(steps.size());
      buffer.overflows.resize(steps.size());
    }
  }

  std::vector<Die> dies;       ///< by chiplet index
  std::vector<Orders> orders;  ///< indexed like nets
  std::vector<SortKey> keys;   ///< sort_facing scratch

  // The layout, for one net list and one site count per die. Since a die's
  // site count depends on its size alone, it is laid out once per system.
  std::vector<InterChipletNet> nets;
  std::vector<std::uint32_t> site_counts;  ///< by chiplet index
  std::vector<Step> steps;                 ///< descending wire count, stable
  std::vector<std::uint32_t> first_step;   ///< by die; steps.size() if none
  long wires = 0;
  std::size_t capacities = 0;  ///< capacity entries per buffer

  Buffer buffers[2];
  Record records[2];
  /// Per die, for the call in progress: its rect differs from the
  /// reference's (moved), or its nets must be walked because it moved or
  /// its capacities differ from the reference's (stale).
  std::vector<std::uint8_t> moved, stale;
};

void BumpAssigner::Memo::lay_out(
    const std::vector<InterChipletNet>& system_nets, std::size_t n) {
  // Process nets in descending wire count (big buses claim the best-facing
  // bumps first, mirroring TAP-2.5D's prioritized assignment).
  std::vector<std::uint32_t> order(system_nets.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t x, std::uint32_t y) {
                     return system_nets[x].wires > system_nets[y].wires;
                   });
  for (const std::uint32_t k : order) {
    const InterChipletNet& net = system_nets[k];
    if (net.a >= n || net.b >= n || net.a == net.b) {
      throw std::invalid_argument("BumpAssigner: net " + std::to_string(k) +
                                  " needs two distinct chiplets in range");
    }
  }

  nets = system_nets;
  site_counts.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    site_counts[i] = static_cast<std::uint32_t>(dies[i].sites.size());
  }
  steps.assign(order.size(), {});
  first_step.assign(n, static_cast<std::uint32_t>(order.size()));
  std::vector<std::uint32_t> last(n, kNone);
  std::vector<std::size_t> last_capacity(n, 0);
  std::size_t wire_end = 0;
  std::size_t capacity_end = 0;
  for (std::size_t p = 0; p < order.size(); ++p) {
    const InterChipletNet& net = nets[order[p]];
    Step& step = steps[p];
    step.net = order[p];
    step.die[0] = static_cast<std::uint32_t>(net.a);
    step.die[1] = static_cast<std::uint32_t>(net.b);
    step.wires = std::max(net.wires, 0);
    step.first_wire = wire_end;
    wire_end += static_cast<std::size_t>(step.wires);
    for (int e = 0; e < 2; ++e) {
      const std::uint32_t d = step.die[e];
      step.capacity[e] = capacity_end;
      capacity_end += site_counts[d];
      step.prior[e] = last[d];
      step.prior_capacity[e] = last_capacity[d];
      last[d] = static_cast<std::uint32_t>(p);
      last_capacity[d] = step.capacity[e];
      first_step[d] = std::min(first_step[d], static_cast<std::uint32_t>(p));
    }
  }
  wires = static_cast<long>(wire_end);
  capacities = capacity_end;
  for (Buffer& buffer : buffers) buffer = {};
  for (Record& record : records) {
    record.valid = false;
    record.rects.resize(n);
    record.buffer.resize(steps.size());
    record.total_before.resize(steps.size() + 1);
    record.overflows_before.resize(steps.size() + 1);
  }
  orders.assign(nets.size(), {});
  moved.resize(n);
  stale.resize(n);
}

BumpAssigner::BumpAssigner(BumpGridConfig config) : config_(config) {}

BumpAssigner::BumpAssigner(const BumpAssigner& other)
    : config_(other.config_) {}

BumpAssigner& BumpAssigner::operator=(const BumpAssigner& other) {
  if (this != &other) {
    const std::lock_guard<std::mutex> lock(memo_mutex_);
    config_ = other.config_;
    memo_.reset();
  }
  return *this;
}

BumpAssigner::~BumpAssigner() = default;

WirelengthReport BumpAssigner::assign(const ChipletSystem& system,
                                      const Floorplan& floorplan) const {
  const std::lock_guard<std::mutex> lock(memo_mutex_);
  if (!memo_) memo_ = std::make_unique<Memo>();
  Memo& memo = *memo_;

  // Per-chiplet site lists, regenerated only for dies whose rect changed.
  // Capacities are consumed across nets so heavily connected dies genuinely
  // compete for peripheral bumps.
  const std::size_t n = system.num_chiplets();
  if (memo.dies.size() < n) memo.dies.resize(n);
  bool laid_out = memo.site_counts.size() == n && memo.nets == system.nets();
  for (std::size_t i = 0; i < n; ++i) {
    if (!floorplan.is_placed(i)) {
      throw std::logic_error("BumpAssigner: chiplet " + std::to_string(i) +
                             " is unplaced");
    }
    Memo::Die& die = memo.dies[i];
    const Rect rect = floorplan.rect_of(i);
    if (die.sites.empty() || !(die.rect == rect)) {
      die.sites = make_peripheral_sites(rect, config_);
      die.rect = rect;
    }
    laid_out = laid_out && die.sites.size() == memo.site_counts[i];
  }
  if (!laid_out) memo.lay_out(system.nets(), n);

  // The reference is the record whose first step on a die the candidate
  // moved comes latest (on a tie, the one with fewer moved dies); every step
  // before that is copied from it. The result overwrites the other record.
  std::size_t differing[2];
  const long first[2] = {
      memo.first_difference(memo.records[0], n, differing[0]),
      memo.first_difference(memo.records[1], n, differing[1])};
  const long latest = std::max(first[0], first[1]);
  const int ref = first[0] != first[1] ? first[1] == latest
                                       : differing[1] < differing[0];
  const std::size_t steps = memo.steps.size();
  const std::size_t begin = static_cast<std::size_t>(std::max(latest, 0L));
  Memo::Record& in = memo.records[ref];
  Memo::Record& out = memo.records[1 - ref];

  WirelengthReport report;
  report.per_net_mm.assign(memo.nets.size(), 0.0);
  report.wires_assigned = memo.wires;
  for (std::size_t p = 0; p < begin; ++p) {
    report.per_net_mm[memo.steps[p].net] =
        memo.buffers[in.buffer[p]].net_mm[p];
  }
  std::copy_n(in.buffer.begin(), begin, out.buffer.begin());
  std::copy_n(in.total_before.begin(), begin, out.total_before.begin());
  std::copy_n(in.overflows_before.begin(), begin,
              out.overflows_before.begin());
  for (std::size_t i = 0; i < n; ++i) {
    memo.moved[i] = !in.valid || !(memo.dies[i].rect == in.rects[i]);
    memo.stale[i] = memo.moved[i];
  }
  memo.allocate(in.valid ? 2 : 1);

  // From `begin` on, a step whose dies both sit where they did in the
  // reference, with the capacities they had there, walks exactly as it did
  // there: its recorded lengths are added again. Every other step walks.
  double total_mm = in.valid ? in.total_before[begin] : 0.0;
  long overflows = in.valid ? in.overflows_before[begin] : 0;
  long walked = 0;
  long replayed = 0;
  for (std::size_t p = begin; p < steps; ++p) {
    const Memo::Step& step = memo.steps[p];
    out.total_before[p] = total_mm;
    out.overflows_before[p] = overflows;
    if (!memo.stale[step.die[0]] && !memo.stale[step.die[1]]) {
      const std::uint8_t slot = in.buffer[p];
      const Memo::Buffer& buffer = memo.buffers[slot];
      out.buffer[p] = slot;
      total_mm = replay_wires(buffer.lengths.get() + step.first_wire,
                              step.wires, total_mm);
      overflows += buffer.overflows[p];
      report.per_net_mm[step.net] = buffer.net_mm[p];
      replayed += step.wires;
      continue;
    }

    // Walk into the buffer the reference does not use at this step, starting
    // from each die's capacities after its last earlier step in this result.
    const std::uint8_t slot = in.valid ? 1 - in.buffer[p] : 0;
    Memo::Buffer& buffer = memo.buffers[slot];
    out.buffer[p] = slot;
    int* capacity[2];
    for (int e = 0; e < 2; ++e) {
      capacity[e] = buffer.capacity.get() + step.capacity[e];
      const std::uint32_t sites = memo.site_counts[step.die[e]];
      if (step.prior[e] == Memo::kNone) {
        std::fill_n(capacity[e], sites, config_.wires_per_site);
      } else {
        const Memo::Buffer& prior = memo.buffers[out.buffer[step.prior[e]]];
        std::copy_n(prior.capacity.get() + step.prior_capacity[e], sites,
                    capacity[e]);
      }
    }

    // Order each die's sites by how well they face the partner die.
    const Memo::Die& da = memo.dies[step.die[0]];
    const Memo::Die& db = memo.dies[step.die[1]];
    Memo::Orders& orders = memo.orders[step.net];
    if (orders.a.sites.empty() || !(orders.rect_a == da.rect) ||
        !(orders.rect_b == db.rect)) {
      sort_facing(da.sites, db.rect.center(), memo.keys, orders.a);
      sort_facing(db.sites, da.rect.center(), memo.keys, orders.b);
      orders.rect_a = da.rect;
      orders.rect_b = db.rect;
    }

    // Walk both orders in lockstep, consuming capacity, in runs of wires
    // over which neither end changes site (or, overflowing, wraps).
    NetEnd a(capacity[0], orders.a);
    NetEnd b(capacity[1], orders.b);
    double* lengths = buffer.lengths.get() + step.first_wire;
    double net_mm = 0.0;
    long net_overflows = 0;
    for (long wire = 0; wire < step.wires;) {
      a.seek(wire);
      b.seek(wire);
      const long run = std::min({step.wires - wire, a.room(), b.room()});
      net_mm = add_wires(a, b, run, net_mm, total_mm, lengths + wire);
      net_overflows += a.take(run) + b.take(run);
      wire += run;
    }
    buffer.net_mm[p] = net_mm;
    buffer.overflows[p] = net_overflows;
    overflows += net_overflows;
    report.per_net_mm[step.net] = net_mm;
    walked += step.wires;

    // Each end walks its own order on its own capacities, so a die that did
    // not move stays stale exactly while its capacities differ from the
    // reference's after this step (both full, for example, ends it).
    if (!in.valid) continue;
    const Memo::Buffer& reference = memo.buffers[in.buffer[p]];
    for (int e = 0; e < 2; ++e) {
      const std::uint32_t d = step.die[e];
      if (memo.moved[d]) continue;
      const int* ref_capacity = reference.capacity.get() + step.capacity[e];
      memo.stale[d] = !std::equal(capacity[e],
                                  capacity[e] + memo.site_counts[d],
                                  ref_capacity);
    }
  }
  out.total_before[steps] = total_mm;
  out.overflows_before[steps] = overflows;
  for (std::size_t i = 0; i < n; ++i) out.rects[i] = memo.dies[i].rect;
  out.valid = true;
  report.total_mm = total_mm;
  report.capacity_overflows = overflows;
  RLPLAN_COUNTER_ADD("bump.wires_walked", walked);
  RLPLAN_COUNTER_ADD("bump.wires_replayed", replayed);
  return report;
}

}  // namespace rlplan::bump
