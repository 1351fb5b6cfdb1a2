#include "bump/assigner.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

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

/// One end of a net being walked: its die's sites in facing order.
class NetEnd {
 public:
  NetEnd(std::vector<BumpSite>& sites, const FacingOrder& order)
      : sites_(sites.data()),
        order_(order.sites.data()),
        positions_(order.positions.data()),
        n_(order.sites.size()) {}

  /// Skips the sites already full at wire `wire`. Once every site is full,
  /// the end wraps around its facing order for the rest of the net, starting
  /// at slot wire % n and counting up from there.
  void seek(long wire) {
    if (overflow_) return;
    while (next_ < n_ && sites_[order_[next_]].capacity <= 0) ++next_;
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
                     : sites_[order_[next_]].capacity;
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
      sites_[order_[next_]].capacity -= static_cast<int>(wires);
      return 0;
    }
    wrap_ += static_cast<std::size_t>(wires);
    if (wrap_ == n_) wrap_ = 0;
    return wires;
  }

 private:
  BumpSite* sites_;
  const std::uint32_t* order_;
  const Point* positions_;
  std::size_t n_;
  std::size_t next_ = 0;
  std::size_t wrap_ = 0;
  bool overflow_ = false;
};

/// Adds the lengths of the next `count` wires between ends `a` and `b` to
/// both sums, one wire at a time in wire order, so they round exactly as a
/// wire-by-wire walk does; returns the new net sum. Kept out of line so both
/// sums stay in registers: inlined into assign(), GCC keeps one on the stack
/// and its store-reload latency lands on the chain of dependent adds.
[[gnu::noinline]] double add_wires(const NetEnd& a, const NetEnd& b,
                                   long count, double net_mm,
                                   double& total_mm) {
  const Point* pa = a.position();
  const Point* pb = b.position();
  const std::size_t stride_a = a.stride();
  const std::size_t stride_b = b.stride();
  double total = total_mm;
  for (long k = 0; k < count; ++k) {
    const auto i = static_cast<std::size_t>(k);
    const double len = manhattan(pa[i * stride_a], pb[i * stride_b]);
    net_mm += len;
    total += len;
  }
  total_mm = total;
  return net_mm;
}

}  // namespace

struct BumpAssigner::Memo {
  /// A die's peripheral sites. Positions depend only on `rect`; capacities
  /// are refilled at the start of every call.
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

  std::vector<Die> dies;               ///< by chiplet index
  std::vector<InterChipletNet> nets;   ///< the net list below belongs to
  std::vector<std::size_t> net_order;  ///< descending wire count, stable
  std::vector<Orders> orders;          ///< indexed like nets
  std::vector<SortKey> keys;           ///< sort_facing scratch
};

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

  // Per-chiplet site lists; capacities are consumed across nets so heavily
  // connected dies genuinely compete for peripheral bumps.
  const std::size_t n = system.num_chiplets();
  if (memo.dies.size() < n) memo.dies.resize(n);
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
    } else {
      for (BumpSite& s : die.sites) s.capacity = config_.wires_per_site;
    }
  }

  // Process nets in descending wire count (big buses claim the best-facing
  // bumps first, mirroring TAP-2.5D's prioritized assignment).
  if (memo.nets != system.nets()) {
    memo.nets = system.nets();
    memo.net_order.resize(memo.nets.size());
    std::iota(memo.net_order.begin(), memo.net_order.end(), 0u);
    std::stable_sort(memo.net_order.begin(), memo.net_order.end(),
                     [&](std::size_t x, std::size_t y) {
                       return memo.nets[x].wires > memo.nets[y].wires;
                     });
    memo.orders.assign(memo.nets.size(), {});
  }

  WirelengthReport report;
  report.per_net_mm.assign(memo.nets.size(), 0.0);
  double total_mm = 0.0;
  for (const std::size_t net_idx : memo.net_order) {
    const InterChipletNet& net = memo.nets[net_idx];
    if (net.a >= n || net.b >= n || net.a == net.b) {
      throw std::invalid_argument("BumpAssigner: net " +
                                  std::to_string(net_idx) +
                                  " needs two distinct chiplets in range");
    }
    Memo::Die& da = memo.dies[net.a];
    Memo::Die& db = memo.dies[net.b];

    // Order each die's sites by how well they face the partner die.
    Memo::Orders& orders = memo.orders[net_idx];
    if (orders.a.sites.empty() || !(orders.rect_a == da.rect) ||
        !(orders.rect_b == db.rect)) {
      sort_facing(da.sites, db.rect.center(), memo.keys, orders.a);
      sort_facing(db.sites, da.rect.center(), memo.keys, orders.b);
      orders.rect_a = da.rect;
      orders.rect_b = db.rect;
    }

    // Walk both orders in lockstep, consuming capacity, in runs of wires
    // over which neither end changes site (or, overflowing, wraps).
    NetEnd a(da.sites, orders.a);
    NetEnd b(db.sites, orders.b);
    double net_mm = 0.0;
    for (long wire = 0; wire < net.wires;) {
      a.seek(wire);
      b.seek(wire);
      const long run = std::min({net.wires - wire, a.room(), b.room()});
      net_mm = add_wires(a, b, run, net_mm, total_mm);
      report.capacity_overflows += a.take(run) + b.take(run);
      report.wires_assigned += run;
      wire += run;
    }
    report.per_net_mm[net_idx] = net_mm;
  }
  report.total_mm = total_mm;
  return report;
}

}  // namespace rlplan::bump
