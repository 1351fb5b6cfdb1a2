// Test-only reference for bump::BumpAssigner::assign(): a from-scratch
// assigner with no memo, which the library implementation must match bit
// for bit (bump_test's differential fuzz). Every call regenerates every
// die's sites, stable_sorts both endpoints' sites per net and walks the
// wires one at a time, recording each wire's route.
#pragma once

#include <algorithm>
#include <cstddef>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "bump/assigner.h"
#include "bump/bump_grid.h"
#include "core/chiplet.h"
#include "core/floorplan.h"

namespace rlplan::bump::oracle {

/// One wire's endpoints after assignment.
struct WireRoute {
  std::size_t net_index = 0;
  Point from;  ///< bump on chiplet net.a
  Point to;    ///< bump on chiplet net.b
  double length_mm = 0.0;  ///< Manhattan
};

inline WirelengthReport assign_with_routes(const BumpGridConfig& config,
                                           const ChipletSystem& system,
                                           const Floorplan& floorplan,
                                           std::vector<WireRoute>& routes) {
  WirelengthReport report;
  report.per_net_mm.assign(system.nets().size(), 0.0);
  routes.clear();

  // Per-chiplet site lists; capacities are consumed across nets so heavily
  // connected dies genuinely compete for peripheral bumps.
  std::vector<std::vector<BumpSite>> sites(system.num_chiplets());
  for (std::size_t i = 0; i < system.num_chiplets(); ++i) {
    if (!floorplan.is_placed(i)) {
      throw std::logic_error("BumpAssigner: chiplet " + std::to_string(i) +
                             " is unplaced");
    }
    sites[i] = make_peripheral_sites(floorplan.rect_of(i), config);
  }

  // Process nets in descending wire count (big buses claim the best-facing
  // bumps first, mirroring TAP-2.5D's prioritized assignment).
  std::vector<std::size_t> net_order(system.nets().size());
  std::iota(net_order.begin(), net_order.end(), 0u);
  std::stable_sort(net_order.begin(), net_order.end(),
                   [&](std::size_t x, std::size_t y) {
                     return system.nets()[x].wires > system.nets()[y].wires;
                   });

  for (const std::size_t net_idx : net_order) {
    const InterChipletNet& net = system.nets()[net_idx];
    auto& sa = sites[net.a];
    auto& sb = sites[net.b];
    const Point ca = floorplan.rect_of(net.a).center();
    const Point cb = floorplan.rect_of(net.b).center();

    // Order each die's sites by how well they face the partner die.
    std::vector<std::size_t> oa(sa.size()), ob(sb.size());
    std::iota(oa.begin(), oa.end(), 0u);
    std::iota(ob.begin(), ob.end(), 0u);
    std::stable_sort(oa.begin(), oa.end(), [&](std::size_t x, std::size_t y) {
      return manhattan(sa[x].position, cb) < manhattan(sa[y].position, cb);
    });
    std::stable_sort(ob.begin(), ob.end(), [&](std::size_t x, std::size_t y) {
      return manhattan(sb[x].position, ca) < manhattan(sb[y].position, ca);
    });

    // Walk both ordered lists in lockstep, consuming capacity.
    std::size_t ia = 0, ib = 0;
    for (int wire = 0; wire < net.wires; ++wire) {
      while (ia < oa.size() && sa[oa[ia]].capacity <= 0) ++ia;
      while (ib < ob.size() && sb[ob[ib]].capacity <= 0) ++ib;
      std::size_t site_a, site_b;
      if (ia < oa.size()) {
        site_a = oa[ia];
        --sa[site_a].capacity;
      } else {
        // Capacity exhausted: wrap around the best-facing sites.
        site_a = oa[static_cast<std::size_t>(wire) % oa.size()];
        ++report.capacity_overflows;
      }
      if (ib < ob.size()) {
        site_b = ob[ib];
        --sb[site_b].capacity;
      } else {
        site_b = ob[static_cast<std::size_t>(wire) % ob.size()];
        ++report.capacity_overflows;
      }
      const double len =
          manhattan(sa[site_a].position, sb[site_b].position);
      report.per_net_mm[net_idx] += len;
      report.total_mm += len;
      ++report.wires_assigned;
      routes.push_back(
          {net_idx, sa[site_a].position, sb[site_b].position, len});
    }
  }
  return report;
}

inline WirelengthReport assign(const BumpGridConfig& config,
                               const ChipletSystem& system,
                               const Floorplan& floorplan) {
  std::vector<WireRoute> routes;
  return assign_with_routes(config, system, floorplan, routes);
}

}  // namespace rlplan::bump::oracle
