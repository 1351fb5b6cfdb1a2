#include "bump/assigner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bump/bump_grid.h"
#include "bump_oracle.h"
#include "fuzz_util.h"
#include "systems/synthetic.h"
#include "util/rng.h"

namespace rlplan::bump {
namespace {

TEST(BumpGrid, GeneratesPeripheralSites) {
  const Rect die{10.0, 10.0, 8.0, 6.0};
  BumpGridConfig config;
  config.pitch_mm = 1.0;
  config.rings = 1;
  config.edge_margin_mm = 0.5;
  const auto sites = make_peripheral_sites(die, config);
  EXPECT_GT(sites.size(), 10u);
  // All sites inside the die, within the margin band.
  for (const auto& s : sites) {
    EXPECT_TRUE(die.contains(s.position));
    EXPECT_FALSE(die.inflated(-1.6).contains(s.position))
        << "site deep inside the die core";
    EXPECT_EQ(s.capacity, config.wires_per_site);
  }
}

TEST(BumpGrid, MoreRingsMoreSites) {
  const Rect die{0.0, 0.0, 10.0, 10.0};
  BumpGridConfig one;
  one.rings = 1;
  BumpGridConfig three;
  three.rings = 3;
  EXPECT_GT(make_peripheral_sites(die, three).size(),
            make_peripheral_sites(die, one).size());
}

TEST(BumpGrid, TinyDieFallsBackToCenterSite) {
  const Rect die{0.0, 0.0, 0.3, 0.3};
  BumpGridConfig config;
  config.edge_margin_mm = 0.25;
  const auto sites = make_peripheral_sites(die, config);
  ASSERT_EQ(sites.size(), 1u);
  EXPECT_EQ(sites[0].position, die.center());
}

TEST(BumpGrid, DeterministicOrder) {
  const Rect die{2.0, 3.0, 9.0, 7.0};
  const auto a = make_peripheral_sites(die, {});
  const auto b = make_peripheral_sites(die, {});
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].position, b[i].position);
  }
}

TEST(BumpGrid, RejectsBadConfig) {
  const Rect die{0.0, 0.0, 5.0, 5.0};
  BumpGridConfig bad;
  bad.pitch_mm = 0.0;
  EXPECT_THROW(make_peripheral_sites(die, bad), std::invalid_argument);
  bad = {};
  bad.rings = 0;
  EXPECT_THROW(make_peripheral_sites(die, bad), std::invalid_argument);
  bad = {};
  bad.wires_per_site = 0;
  EXPECT_THROW(make_peripheral_sites(die, bad), std::invalid_argument);
}

ChipletSystem simple_pair(int wires) {
  return ChipletSystem("p", 40.0, 20.0,
                       {{"a", 8.0, 8.0, 10.0}, {"b", 8.0, 8.0, 10.0}},
                       {{0, 1, wires}});
}

TEST(BumpAssigner, AssignsAllWires) {
  const auto sys = simple_pair(100);
  Floorplan fp(sys);
  fp.place(0, {2.0, 6.0});
  fp.place(1, {30.0, 6.0});
  const BumpAssigner assigner;
  const auto report = assigner.assign(sys, fp);
  EXPECT_EQ(report.wires_assigned, 100);
  EXPECT_GT(report.total_mm, 0.0);
  EXPECT_EQ(report.per_net_mm.size(), 1u);
  EXPECT_DOUBLE_EQ(report.per_net_mm[0], report.total_mm);
}

TEST(BumpAssigner, WirelengthScalesWithDistance) {
  const auto sys = simple_pair(64);
  Floorplan near_fp(sys);
  near_fp.place(0, {2.0, 6.0});
  near_fp.place(1, {12.0, 6.0});
  Floorplan far_fp(sys);
  far_fp.place(0, {2.0, 6.0});
  far_fp.place(1, {30.0, 6.0});
  const BumpAssigner assigner;
  EXPECT_LT(assigner.assign(sys, near_fp).total_mm,
            assigner.assign(sys, far_fp).total_mm);
}

TEST(BumpAssigner, WirelengthLowerBoundedByGapTimesWires) {
  // Each wire spans at least the inter-die gap along x.
  const auto sys = simple_pair(32);
  Floorplan fp(sys);
  fp.place(0, {0.0, 6.0});   // right edge at 8
  fp.place(1, {30.0, 6.0});  // left edge at 30 -> gap 22
  const BumpAssigner assigner;
  const auto report = assigner.assign(sys, fp);
  EXPECT_GE(report.total_mm, 32 * (30.0 - 8.0) * 0.9);
}

TEST(BumpAssigner, BetterThanWorstCaseCenterEstimate) {
  // Facing-edge bumps beat center-to-center distance for adjacent dies.
  const auto sys = simple_pair(16);
  Floorplan fp(sys);
  fp.place(0, {2.0, 6.0});
  fp.place(1, {20.0, 6.0});
  const BumpAssigner assigner;
  const auto report = assigner.assign(sys, fp);
  const double center_wl = fp.center_wirelength();
  EXPECT_LT(report.total_mm, center_wl);
}

TEST(BumpAssigner, CapacityOverflowsReported) {
  // A die with tiny perimeter capacity but a huge bus must overflow.
  BumpGridConfig config;
  config.pitch_mm = 4.0;
  config.rings = 1;
  config.wires_per_site = 1;
  const auto sys = simple_pair(500);
  Floorplan fp(sys);
  fp.place(0, {2.0, 6.0});
  fp.place(1, {30.0, 6.0});
  const BumpAssigner assigner(config);
  const auto report = assigner.assign(sys, fp);
  EXPECT_EQ(report.wires_assigned, 500);
  EXPECT_GT(report.capacity_overflows, 0);
}

TEST(BumpAssigner, NoOverflowWithAmpleCapacity) {
  const auto sys = simple_pair(32);
  Floorplan fp(sys);
  fp.place(0, {2.0, 6.0});
  fp.place(1, {30.0, 6.0});
  const BumpAssigner assigner;  // default: 16 wires x many sites
  EXPECT_EQ(assigner.assign(sys, fp).capacity_overflows, 0);
}

TEST(BumpAssigner, ThrowsOnUnplacedEndpoint) {
  const auto sys = simple_pair(8);
  Floorplan fp(sys);
  fp.place(0, {2.0, 6.0});
  const BumpAssigner assigner;
  EXPECT_THROW(assigner.assign(sys, fp), std::logic_error);
}

TEST(BumpAssigner, ThrowsOnMalformedNet) {
  // ChipletSystem's constructor does not validate; assign() must not index
  // out of range or double-book one die's capacity on a self-loop.
  const ChipletSystem out_of_range(
      "r", 40.0, 20.0, {{"a", 8.0, 8.0, 1.0}, {"b", 8.0, 8.0, 1.0}},
      {{0, 2, 8}});
  const ChipletSystem self_loop("s", 40.0, 20.0,
                                {{"a", 8.0, 8.0, 1.0}, {"b", 8.0, 8.0, 1.0}},
                                {{0, 1, 8}, {1, 1, 8}});
  for (const ChipletSystem* sys : {&out_of_range, &self_loop}) {
    Floorplan fp(*sys);
    fp.place(0, {2.0, 6.0});
    fp.place(1, {30.0, 6.0});
    EXPECT_THROW(BumpAssigner().assign(*sys, fp), std::invalid_argument);
  }
}

TEST(BumpOracle, RoutesMatchReport) {
  const auto sys = simple_pair(24);
  Floorplan fp(sys);
  fp.place(0, {2.0, 6.0});
  fp.place(1, {28.0, 6.0});
  std::vector<oracle::WireRoute> routes;
  const auto report = oracle::assign_with_routes({}, sys, fp, routes);
  ASSERT_EQ(routes.size(), 24u);
  double total = 0.0;
  const Rect ra = fp.rect_of(0);
  const Rect rb = fp.rect_of(1);
  for (const auto& r : routes) {
    EXPECT_EQ(r.net_index, 0u);
    EXPECT_TRUE(ra.contains(r.from));
    EXPECT_TRUE(rb.contains(r.to));
    EXPECT_DOUBLE_EQ(r.length_mm, manhattan(r.from, r.to));
    total += r.length_mm;
  }
  EXPECT_NEAR(total, report.total_mm, 1e-9);
}

TEST(BumpAssigner, MultiNetCompetitionConsumesCapacity) {
  // A hub die connected to two partners: the second net must use sites
  // farther from its partner because the first consumed the best ones.
  const ChipletSystem sys("hub", 60.0, 20.0,
                          {{"hub", 8.0, 8.0, 10.0},
                           {"l", 8.0, 8.0, 10.0},
                           {"r", 8.0, 8.0, 10.0}},
                          {{0, 1, 200}, {0, 2, 200}});
  Floorplan fp(sys);
  fp.place(0, {26.0, 6.0});
  fp.place(1, {2.0, 6.0});
  fp.place(2, {50.0, 6.0});
  const BumpAssigner assigner;
  const auto report = assigner.assign(sys, fp);
  EXPECT_EQ(report.wires_assigned, 400);
  // Both nets should have similar lengths by symmetry.
  EXPECT_NEAR(report.per_net_mm[0], report.per_net_mm[1],
              report.per_net_mm[0] * 0.2);
}

TEST(BumpGrid, TotalCapacity) {
  std::vector<BumpSite> sites{{{0, 0}, 4}, {{1, 0}, 4}, {{2, 0}, 8}};
  EXPECT_EQ(total_capacity(sites), 16);
}

// ----------------------------------------------- differential fuzz ------
//
// The memoized assign() against the from-scratch oracle (bump_oracle.h):
// every WirelengthReport field must be bit-identical (EXPECT_EQ on doubles)
// on every call, hits and misses alike.

using rlplan::testing::fuzz_scale;
using systems::NetTopology;

constexpr NetTopology kTopologies[] = {
    NetTopology::kRandom, NetTopology::kStar, NetTopology::kChain,
    NetTopology::kRing,   NetTopology::kMesh, NetTopology::kBipartite};

/// EXPECT_EQs every report field against the oracle's; on a mismatch also
/// appends `context` to the nightly failure artifact.
bool matches_oracle(const BumpAssigner& assigner, const ChipletSystem& sys,
                    const Floorplan& fp, const std::string& context) {
  const WirelengthReport want = oracle::assign(assigner.config(), sys, fp);
  const WirelengthReport got = assigner.assign(sys, fp);
  bool ok = got.total_mm == want.total_mm &&
            got.wires_assigned == want.wires_assigned &&
            got.capacity_overflows == want.capacity_overflows &&
            got.per_net_mm.size() == want.per_net_mm.size();
  EXPECT_EQ(got.total_mm, want.total_mm) << context;
  EXPECT_EQ(got.wires_assigned, want.wires_assigned) << context;
  EXPECT_EQ(got.capacity_overflows, want.capacity_overflows) << context;
  EXPECT_EQ(got.per_net_mm.size(), want.per_net_mm.size()) << context;
  for (std::size_t k = 0; ok && k < want.per_net_mm.size(); ++k) {
    ok = got.per_net_mm[k] == want.per_net_mm[k];
    EXPECT_EQ(got.per_net_mm[k], want.per_net_mm[k])
        << context << " net " << k;
  }
  if (!ok) rlplan::testing::report_failure_seed("bump_test", context);
  return ok;
}

/// Rings 1-3, pitch 0.5-4 mm, 1-32 wires per site; margins up to 2 mm push
/// the smallest dies onto the center-site fallback.
BumpGridConfig random_grid(Rng& rng) {
  BumpGridConfig c;
  c.rings = static_cast<int>(rng.uniform_int(std::int64_t{1}, 3));
  c.pitch_mm = rng.uniform(0.5, 4.0);
  c.wires_per_site = static_cast<int>(rng.uniform_int(std::int64_t{1}, 32));
  c.edge_margin_mm = rng.uniform(0.0, 2.0);
  return c;
}

/// A family instance with 2-64 dies, square or sliver-shaped, some small
/// enough for the center-site fallback.
ChipletSystem random_family(Rng& rng, NetTopology topology) {
  systems::FamilyConfig fc;
  fc.chiplets = static_cast<std::size_t>(rng.uniform_int(std::int64_t{2}, 64));
  fc.topology = topology;
  fc.min_dim_mm = rng.uniform(0.4, 3.0);
  fc.max_dim_mm = fc.min_dim_mm + rng.uniform(0.0, 8.0);
  fc.max_aspect = rng.bernoulli(0.3) ? 3.0 : 1.0;
  fc.min_wires = 1;
  fc.max_wires = 512;
  const double side = std::max(
      3.0 * fc.max_dim_mm,
      std::sqrt(3.0 * static_cast<double>(fc.chiplets)) * fc.max_dim_mm);
  fc.interposer_w_mm = side;
  fc.interposer_h_mm = side;
  return systems::generate_family(fc, rng.next(), "fuzz");
}

/// Any in-bounds lower-left corner: the assigner has no legality notion, so
/// overlapping placements are valid inputs.
Point random_position(const ChipletSystem& sys, std::size_t i, bool rotated,
                      Rng& rng) {
  const Chiplet& c = sys.chiplet(i);
  const double w = rotated ? c.height : c.width;
  const double h = rotated ? c.width : c.height;
  return {rng.uniform(0.0, std::max(sys.interposer_width() - w, 0.0)),
          rng.uniform(0.0, std::max(sys.interposer_height() - h, 0.0))};
}

Floorplan random_floorplan(const ChipletSystem& sys, Rng& rng) {
  Floorplan fp(sys);
  for (std::size_t i = 0; i < sys.num_chiplets(); ++i) {
    const bool rotated = rng.bernoulli(0.3);
    fp.place(i, random_position(sys, i, rotated, rng), rotated);
  }
  return fp;
}

/// One SA-style move: displace, rotate in place, or swap two dies.
void random_move(Floorplan& fp, Rng& rng) {
  const ChipletSystem& sys = fp.system();
  const std::size_t n = sys.num_chiplets();
  const std::size_t i = rng.uniform_int(std::uint64_t{n});
  const Placement p = *fp.placement(i);
  const double u = rng.uniform();
  if (u < 0.5) {
    fp.place(i, random_position(sys, i, p.rotated, rng), p.rotated);
  } else if (u < 0.75) {
    fp.place(i, p.position, !p.rotated);
  } else {
    std::size_t j = rng.uniform_int(std::uint64_t{n - 1});
    if (j >= i) ++j;
    const Placement q = *fp.placement(j);
    fp.place(i, q.position, p.rotated);
    fp.place(j, p.position, q.rotated);
  }
}

/// Runs a seeded move tape on one long-lived assigner, rejecting (reverting)
/// about half the moves the way SA does, and checks every call.
bool run_tape(const BumpAssigner& assigner, Floorplan& fp, int moves,
              Rng& rng, const std::string& context) {
  if (!matches_oracle(assigner, fp.system(), fp, context + " initial")) {
    return false;
  }
  for (int m = 0; m < moves; ++m) {
    const Floorplan before = fp;
    random_move(fp, rng);
    const std::string where = context + " move " + std::to_string(m);
    if (!matches_oracle(assigner, fp.system(), fp, where)) return false;
    if (rng.bernoulli(0.5)) {
      fp = before;
      if (!matches_oracle(assigner, fp.system(), fp, where + " revert")) {
        return false;
      }
    }
  }
  return true;
}

TEST(BumpAssignerFuzz, MoveTapesMatchOracle) {
  const int cases = 24 * fuzz_scale();
  long calls_checked = 0;
  for (int k = 0; k < cases; ++k) {
    const std::uint64_t seed = 0xB0A5ULL * 1000003ULL + k;
    const NetTopology topology = kTopologies[k % std::size(kTopologies)];
    const std::string context = "MoveTapesMatchOracle seed=" +
                                std::to_string(seed) +
                                " topology=" + systems::to_string(topology);
    Rng rng(seed);
    const BumpAssigner assigner(random_grid(rng));
    const ChipletSystem sys = random_family(rng, topology);
    Floorplan fp = random_floorplan(sys, rng);
    const int moves = 16;
    if (!run_tape(assigner, fp, moves, rng, context)) return;
    calls_checked += 1 + moves;
  }
  EXPECT_GE(calls_checked, 17L * cases);
}

TEST(BumpAssignerFuzz, TinyDiesUseCenterSites) {
  // Dies below twice the edge margin get one center site; mixed with normal
  // dies they must still match the oracle through a move tape.
  Rng rng(0x71417ULL);
  std::vector<Chiplet> chiplets;
  for (int i = 0; i < 12; ++i) {
    const double s = i % 3 == 0 ? rng.uniform(0.1, 0.45) : rng.uniform(2, 6);
    chiplets.push_back({"c" + std::to_string(i), s, s * rng.uniform(0.8, 1.25),
                        1.0});
  }
  std::vector<InterChipletNet> nets;
  for (std::size_t i = 1; i < chiplets.size(); ++i) {
    nets.push_back({rng.uniform_int(std::uint64_t{i}), i,
                    static_cast<int>(rng.uniform_int(std::int64_t{1}, 300))});
  }
  const ChipletSystem sys("tiny", 40.0, 40.0, chiplets, nets);
  BumpGridConfig config;
  config.edge_margin_mm = 0.25;
  const BumpAssigner assigner(config);
  Floorplan fp = random_floorplan(sys, rng);
  ASSERT_EQ(make_peripheral_sites(fp.rect_of(0), config).size(), 1u);
  EXPECT_TRUE(run_tape(assigner, fp, 60, rng, "TinyDiesUseCenterSites"));
}

TEST(BumpAssignerFuzz, AlternatingSystemsShareDiesNotNets) {
  // Same dies, different net lists of the same length: die sites may be
  // reused across the two, facing orders and net priorities may not.
  Rng rng(0xA17E4ULL);
  const ChipletSystem a = random_family(rng, NetTopology::kRing);
  std::vector<InterChipletNet> shifted;
  for (const InterChipletNet& net : a.nets()) {
    shifted.push_back({(net.a + 1) % a.num_chiplets(),
                       (net.b + 1) % a.num_chiplets(),
                       static_cast<int>(rng.uniform_int(std::int64_t{1}, 512))});
  }
  const ChipletSystem b("b", a.interposer_width(), a.interposer_height(),
                        a.chiplets(), shifted);
  ASSERT_EQ(a.chiplets(), b.chiplets());
  const BumpAssigner assigner;
  Floorplan fa = random_floorplan(a, rng);
  Floorplan fb(b);
  for (int step = 0; step < 40; ++step) {
    // fb mirrors fa's placements, so every die rect is shared.
    for (std::size_t i = 0; i < a.num_chiplets(); ++i) {
      fb.place(i, fa.placement(i)->position, fa.placement(i)->rotated);
    }
    const std::string context = "Alternating step " + std::to_string(step);
    if (!matches_oracle(assigner, a, fa, context + " a")) return;
    if (!matches_oracle(assigner, b, fb, context + " b")) return;
    random_move(fa, rng);
  }
}

TEST(BumpAssignerFuzz, CopyMidStreamMatchesOracle) {
  Rng rng(0xC0B1ULL);
  const ChipletSystem sys = random_family(rng, NetTopology::kMesh);
  BumpGridConfig config;
  config.wires_per_site = 4;
  const BumpAssigner original(config);
  Floorplan fp = random_floorplan(sys, rng);
  ASSERT_TRUE(run_tape(original, fp, 20, rng, "CopyMidStream before"));
  const BumpAssigner copy = original;
  BumpAssigner assigned;
  assigned = original;
  EXPECT_EQ(copy.config().wires_per_site, 4);
  EXPECT_EQ(assigned.config().wires_per_site, 4);
  // The original and both copies continue on diverging tapes.
  Floorplan fp_copy = fp;
  Floorplan fp_assigned = fp;
  Rng rng_copy(rng.next());
  Rng rng_assigned(rng.next());
  EXPECT_TRUE(run_tape(original, fp, 20, rng, "CopyMidStream original"));
  EXPECT_TRUE(run_tape(copy, fp_copy, 20, rng_copy, "CopyMidStream copy"));
  EXPECT_TRUE(
      run_tape(assigned, fp_assigned, 20, rng_assigned, "CopyMidStream ="));
}

TEST(BumpAssignerFuzz, ConcurrentCallsMatchSerial) {
  Rng rng(0x7EADULL);
  const ChipletSystem sys = random_family(rng, NetTopology::kRandom);
  std::vector<Floorplan> tape{random_floorplan(sys, rng)};
  for (int m = 0; m < 48; ++m) {
    tape.push_back(tape.back());
    random_move(tape.back(), rng);
  }
  std::vector<WirelengthReport> serial;
  {
    const BumpAssigner fresh;
    for (const Floorplan& fp : tape) serial.push_back(fresh.assign(sys, fp));
  }
  const BumpAssigner shared;
  constexpr int kThreads = 4;
  std::vector<std::vector<WirelengthReport>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the tape from a different offset, so the memo
      // sees interleaved, unrelated floorplans.
      for (std::size_t k = 0; k < tape.size(); ++k) {
        const std::size_t idx = (k + 11 * t) % tape.size();
        got[t].push_back(shared.assign(sys, tape[idx]));
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t k = 0; k < tape.size(); ++k) {
      const WirelengthReport& want = serial[(k + 11 * t) % tape.size()];
      EXPECT_EQ(got[t][k].total_mm, want.total_mm);
      EXPECT_EQ(got[t][k].per_net_mm, want.per_net_mm);
      EXPECT_EQ(got[t][k].wires_assigned, want.wires_assigned);
      EXPECT_EQ(got[t][k].capacity_overflows, want.capacity_overflows);
    }
  }
}

}  // namespace
}  // namespace rlplan::bump
