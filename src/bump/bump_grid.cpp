#include "bump/bump_grid.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <tuple>

namespace rlplan::bump {

namespace {

/// Evenly spaced points along a segment from a to b (inclusive endpoints),
/// one per `pitch` of `len`, at least 1. `len` is the ring rect's own w or
/// h: the distance between corners rebuilt as (x + w) - x can round below
/// w, and a ring edge that is an exact multiple of the pitch would then
/// lose a point at some positions of the die but not at others.
void emit_segment(const Point& a, const Point& b, double len, double pitch,
                  std::vector<Point>& out) {
  const auto n = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::floor(len / pitch)) + 1);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = n == 1 ? 0.0 : static_cast<double>(i) / double(n - 1);
    out.push_back({a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t});
  }
}

}  // namespace

std::vector<BumpSite> make_peripheral_sites(const Rect& footprint,
                                            const BumpGridConfig& config) {
  if (config.pitch_mm <= 0.0) {
    throw std::invalid_argument("BumpGridConfig: pitch must be positive");
  }
  if (config.rings < 1) {
    throw std::invalid_argument("BumpGridConfig: rings must be >= 1");
  }
  if (config.wires_per_site < 1) {
    throw std::invalid_argument("BumpGridConfig: wires_per_site must be >= 1");
  }

  std::vector<BumpSite> sites;
  for (int ring = 0; ring < config.rings; ++ring) {
    const double inset =
        config.edge_margin_mm + static_cast<double>(ring) * config.pitch_mm;
    const Rect r = footprint.inflated(-inset);
    if (r.w <= 0.0 || r.h <= 0.0) break;  // die too small for further rings

    std::vector<Point> ring_points;
    const Point ll{r.x, r.y};
    const Point lr{r.right(), r.y};
    const Point ur{r.right(), r.top()};
    const Point ul{r.x, r.top()};
    // CCW: bottom, right, top, left. Drop each segment's final point to
    // avoid duplicating corners.
    std::vector<Point> seg;
    for (const auto& [a, b, len] :
         {std::tuple{ll, lr, r.w}, {lr, ur, r.h}, {ur, ul, r.w},
          {ul, ll, r.h}}) {
      seg.clear();
      emit_segment(a, b, len, config.pitch_mm, seg);
      if (seg.size() > 1) seg.pop_back();
      ring_points.insert(ring_points.end(), seg.begin(), seg.end());
    }
    for (const auto& p : ring_points) {
      sites.push_back({p, config.wires_per_site});
    }
  }
  if (sites.empty()) {
    // Degenerate tiny die: one site at the center.
    sites.push_back({footprint.center(), config.wires_per_site});
  }
  return sites;
}

long total_capacity(const std::vector<BumpSite>& sites) {
  long cap = 0;
  for (const auto& s : sites) cap += s.capacity;
  return cap;
}

}  // namespace rlplan::bump
