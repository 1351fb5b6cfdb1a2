#include "bump/assigner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <utility>
#include <string>
#include <thread>
#include <vector>

#include "bump/bump_grid.h"
#include "bump_oracle.h"
#include "fuzz_util.h"
#include "obs/metrics.h"
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

TEST(BumpGrid, SiteCountDoesNotDependOnPosition) {
  // At the default grid, half-mm dies have ring edges that are exact
  // multiples of the pitch (5.5 mm: rings of 5 and 3 mm). Each edge's point
  // count must come out the same wherever the die sits.
  const BumpGridConfig config;
  EXPECT_EQ(make_peripheral_sites({0.0, 0.0, 5.5, 5.5}, config).size(), 32u);
  Rng rng(0x517E5ULL);
  for (const double w : {3.5, 4.5, 5.5, 6.5, 7.5}) {
    for (const double h : {3.5, 5.5, 7.5}) {
      const std::size_t want =
          make_peripheral_sites({0.0, 0.0, w, h}, config).size();
      for (int k = 0; k < 1000; ++k) {
        const Rect die{rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0), w,
                       h};
        ASSERT_EQ(make_peripheral_sites(die, config).size(), want)
            << w << " x " << h << " mm die at (" << die.x << ", " << die.y
            << ")";
      }
    }
  }
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
/// enough for the center-site fallback, and 1 to `max_wires` wires per net.
ChipletSystem random_family(Rng& rng, NetTopology topology,
                            int max_wires = 512) {
  systems::FamilyConfig fc;
  fc.chiplets = static_cast<std::size_t>(rng.uniform_int(std::int64_t{2}, 64));
  fc.topology = topology;
  fc.min_dim_mm = rng.uniform(0.4, 3.0);
  fc.max_dim_mm = fc.min_dim_mm + rng.uniform(0.0, 8.0);
  fc.max_aspect = rng.bernoulli(0.3) ? 3.0 : 1.0;
  fc.min_wires = 1;
  fc.max_wires = max_wires;
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

// --------------------------------------------- record-replay streams ------
//
// assign() replays each call from one of its two recorded assignments: the
// one whose first step on a moved die comes latest. These streams vary
// which record is the better reference, and with 1-4 wires per site they
// fill every site, so a die's capacities drift from the reference's and
// become equal again.

/// 1-4 wires per site at a pitch of 0.5-1.5 mm: every site fills, while
/// a die with many sites still has room left for later nets.
BumpGridConfig tight_grid(Rng& rng) {
  BumpGridConfig c;
  c.rings = static_cast<int>(rng.uniform_int(std::int64_t{1}, 3));
  c.pitch_mm = rng.uniform(0.5, 1.5);
  c.wires_per_site = static_cast<int>(rng.uniform_int(std::int64_t{1}, 4));
  c.edge_margin_mm = rng.uniform(0.0, 0.5);
  return c;
}

/// One seeded case of a stream test: a family system, in every other case
/// on a tight grid with at most 64 wires per net, so that dies fill some
/// of their sites and a moved die's partners fill other ones.
struct StreamCase {
  StreamCase(const std::string& test, std::uint64_t salt, int k)
      : seed(salt * 1000003ULL + static_cast<std::uint64_t>(k)),
        rng(seed),
        assigner(k % 2 == 0 ? random_grid(rng) : tight_grid(rng)),
        sys(random_family(rng, kTopologies[(k / 2) % std::size(kTopologies)],
                          k % 2 == 0 ? 512 : 64)),
        context(test + " seed=" + std::to_string(seed) + " wires/site=" +
                std::to_string(assigner.config().wires_per_site)) {}

  std::uint64_t seed;
  Rng rng;
  BumpAssigner assigner;
  ChipletSystem sys;
  std::string context;
};

TEST(BumpAssignerFuzz, PopulationRoundsMatchOracle) {
  // Population SA: 2-16 candidates off one current floorplan, then one of
  // them (in a fifth of the rounds, none) becomes current.
  for (int k = 0; k < 8 * fuzz_scale(); ++k) {
    StreamCase c("PopulationRounds", 0x909ULL, k);
    Floorplan current = random_floorplan(c.sys, c.rng);
    if (!matches_oracle(c.assigner, c.sys, current, c.context)) return;
    for (int round = 0; round < 5; ++round) {
      const auto population =
          static_cast<std::size_t>(c.rng.uniform_int(std::int64_t{2}, 16));
      std::vector<Floorplan> candidates(population, current);
      for (std::size_t j = 0; j < population; ++j) {
        random_move(candidates[j], c.rng);
        if (!matches_oracle(c.assigner, c.sys, candidates[j],
                            c.context + " round " + std::to_string(round) +
                                " candidate " + std::to_string(j))) {
          return;
        }
      }
      if (c.rng.bernoulli(0.8)) {
        current = candidates[c.rng.uniform_int(std::uint64_t{population})];
      }
    }
  }
}

TEST(BumpAssignerFuzz, RejectChainsMatchOracle) {
  // Runs of 5-12 rejected candidates off one floorplan, each run ended by a
  // candidate that is accepted.
  for (int k = 0; k < 8 * fuzz_scale(); ++k) {
    StreamCase c("RejectChains", 0x4E7ULL, k);
    Floorplan current = random_floorplan(c.sys, c.rng);
    if (!matches_oracle(c.assigner, c.sys, current, c.context)) return;
    for (int chain = 0; chain < 4; ++chain) {
      const auto rejects = c.rng.uniform_int(std::int64_t{5}, 12);
      for (std::int64_t r = 0; r <= rejects; ++r) {
        Floorplan candidate = current;
        random_move(candidate, c.rng);
        if (!matches_oracle(c.assigner, c.sys, candidate,
                            c.context + " chain " + std::to_string(chain) +
                                " call " + std::to_string(r))) {
          return;
        }
        if (r == rejects) current = std::move(candidate);
      }
    }
  }
}

TEST(BumpAssignerFuzz, ThreeFloorplanCyclesMatchOracle) {
  // A, B, C, A, B, C, ...: each of the three differs from the one before by
  // 1-3 moves or is unrelated, and every seventh call one of them moves on.
  for (int k = 0; k < 12 * fuzz_scale(); ++k) {
    StreamCase c("ThreeFloorplanCycles", 0xABCULL, k);
    std::vector<Floorplan> cycle{random_floorplan(c.sys, c.rng)};
    for (int i = 1; i < 3; ++i) {
      cycle.push_back(c.rng.bernoulli(0.25) ? random_floorplan(c.sys, c.rng)
                                            : cycle.back());
      const auto moves = c.rng.uniform_int(std::int64_t{1}, 3);
      for (std::int64_t m = 0; m < moves; ++m) random_move(cycle.back(), c.rng);
    }
    for (int call = 0; call < 30; ++call) {
      if (call % 7 == 6) {
        random_move(cycle[c.rng.uniform_int(std::uint64_t{3})], c.rng);
      }
      if (!matches_oracle(c.assigner, c.sys, cycle[call % 3],
                          c.context + " call " + std::to_string(call))) {
        return;
      }
    }
  }
}

TEST(BumpAssignerFuzz, JumpsAndRepeatsMatchOracle) {
  // A move tape with reverts, broken by jumps to unrelated floorplans and by
  // the same floorplan called 2-4 times in a row.
  for (int k = 0; k < 8 * fuzz_scale(); ++k) {
    StreamCase c("JumpsAndRepeats", 0x1A4ULL, k);
    Floorplan fp = random_floorplan(c.sys, c.rng);
    for (int step = 0; step < 24; ++step) {
      const std::string where = c.context + " step " + std::to_string(step);
      const double u = c.rng.uniform();
      long calls = 1;
      if (u < 0.2) {
        fp = random_floorplan(c.sys, c.rng);
      } else if (u < 0.4) {
        calls = c.rng.uniform_int(std::int64_t{2}, 4);
      } else {
        const Floorplan before = fp;
        random_move(fp, c.rng);
        if (!matches_oracle(c.assigner, c.sys, fp, where + " move")) return;
        if (c.rng.bernoulli(0.5)) fp = before;
      }
      for (long r = 0; r < calls; ++r) {
        if (!matches_oracle(c.assigner, c.sys, fp,
                            where + " call " + std::to_string(r))) {
          return;
        }
      }
    }
  }
}

TEST(BumpAssignerFuzz, SystemSwitchWithSameNetCountMatchesOracle) {
  // Two systems with as many nets on one assigner, each with its own current
  // floorplan: the same net list over dies resized (so their site counts
  // change with the system), or the same dies with the nets rewired.
  for (int k = 0; k < 6 * fuzz_scale(); ++k) {
    StreamCase c("SystemSwitch", 0x5A17ULL, k);
    const ChipletSystem& a = c.sys;
    const bool resize = c.rng.bernoulli(0.5);
    std::vector<Chiplet> chiplets = a.chiplets();
    std::vector<InterChipletNet> nets = a.nets();
    if (resize) {
      for (Chiplet& chiplet : chiplets) {
        chiplet.width *= c.rng.uniform(0.5, 1.5);
        chiplet.height *= c.rng.uniform(0.5, 1.5);
      }
    } else {
      for (InterChipletNet& net : nets) {
        net = {(net.a + 1) % a.num_chiplets(), (net.b + 1) % a.num_chiplets(),
               static_cast<int>(c.rng.uniform_int(std::int64_t{1}, 512))};
      }
    }
    const ChipletSystem b("b", a.interposer_width(), a.interposer_height(),
                          chiplets, nets);
    ASSERT_EQ(a.nets().size(), b.nets().size());
    Floorplan fa = random_floorplan(a, c.rng);
    Floorplan fb = random_floorplan(b, c.rng);
    for (int step = 0; step < 16; ++step) {
      const bool on_a = c.rng.bernoulli(0.5);
      Floorplan& fp = on_a ? fa : fb;
      if (step >= 2) random_move(fp, c.rng);
      if (!matches_oracle(c.assigner, on_a ? a : b, fp,
                          c.context + (resize ? " resized" : " rewired") +
                              " step " + std::to_string(step))) {
        return;
      }
    }
  }
}

/// A system of 6-40 dies with sides of 3.5-7.5 mm in whole-mm steps, whose
/// rings at the default grid are exact multiples of the pitch: a spanning
/// tree of nets plus extras, 1-400 wires each.
ChipletSystem ring_aligned_system(Rng& rng) {
  const auto n =
      static_cast<std::size_t>(rng.uniform_int(std::int64_t{6}, 40));
  const auto side = [&rng] {
    return 3.5 + static_cast<double>(rng.uniform_int(std::int64_t{0}, 4));
  };
  std::vector<Chiplet> chiplets;
  for (std::size_t i = 0; i < n; ++i) {
    chiplets.push_back({"h" + std::to_string(i), side(), side(), 1.0});
  }
  const auto wires = [&rng] {
    return static_cast<int>(rng.uniform_int(std::int64_t{1}, 400));
  };
  std::vector<InterChipletNet> nets;
  for (std::size_t i = 1; i < n; ++i) {
    nets.push_back({rng.uniform_int(std::uint64_t{i}), i, wires()});
  }
  for (std::size_t e = 0; e < n / 2; ++e) {
    const std::size_t i = rng.uniform_int(std::uint64_t{n});
    const std::size_t j = (i + 1 + rng.uniform_int(std::uint64_t{n - 1})) % n;
    nets.push_back({i, j, wires()});
  }
  const double extent = 8.0 * std::sqrt(3.0 * static_cast<double>(n));
  return ChipletSystem("half-mm", extent, extent, chiplets, nets);
}

TEST(BumpAssignerFuzz, RingAlignedDiesMatchOracle) {
  for (int k = 0; k < 8 * fuzz_scale(); ++k) {
    const std::uint64_t seed = 0x4A1FULL * 1000003ULL + k;
    Rng rng(seed);
    BumpGridConfig config;  // pitch 1 mm, margin 0.25 mm
    if (k % 2 == 1) {
      config.wires_per_site =
          static_cast<int>(rng.uniform_int(std::int64_t{1}, 4));
    }
    const BumpAssigner assigner(config);
    const ChipletSystem sys = ring_aligned_system(rng);
    Floorplan fp = random_floorplan(sys, rng);
    if (!run_tape(assigner, fp, 24, rng,
                  "RingAlignedDies seed=" + std::to_string(seed))) {
      return;
    }
  }
}

// ------------------------------------------------------ work counters ----

/// The process-wide totals of bump.wires_walked and bump.wires_replayed.
std::pair<std::uint64_t, std::uint64_t> wire_counts() {
  std::pair<std::uint64_t, std::uint64_t> counts{0, 0};
  for (const obs::MetricValue& m :
       obs::MetricsRegistry::instance().snapshot()) {
    if (m.name == "bump.wires_walked") counts.first = m.count;
    if (m.name == "bump.wires_replayed") counts.second = m.count;
  }
  return counts;
}

TEST(BumpAssigner, WorkCountersCountWalkedAndReplayedWires) {
  // A chain 0-1-2-3-4 with ample capacity, walked 40, 30, 20, 10 wires.
  const ChipletSystem sys("chain", 80.0, 40.0,
                          {{"c0", 8.0, 8.0, 1.0},
                           {"c1", 8.0, 8.0, 1.0},
                           {"c2", 8.0, 8.0, 1.0},
                           {"c3", 8.0, 8.0, 1.0},
                           {"c4", 8.0, 8.0, 1.0}},
                          {{0, 1, 40}, {1, 2, 30}, {2, 3, 20}, {3, 4, 10}});
  Floorplan fp(sys);
  for (std::size_t i = 0; i < 5; ++i) {
    fp.place(i, {2.0 + 14.0 * static_cast<double>(i), 16.0});
  }
  const BumpAssigner assigner;
  obs::set_metrics_enabled(true);
  const auto work = [&](const Floorplan& f) {
    const auto before = wire_counts();
    EXPECT_TRUE(matches_oracle(assigner, sys, f, "WorkCounters"));
    const auto after = wire_counts();
    return std::pair{after.first - before.first,
                     after.second - before.second};
  };
  using Work = std::pair<std::uint64_t, std::uint64_t>;
  EXPECT_EQ(work(fp), (Work{100, 0})) << "the first call walks every wire";
  EXPECT_EQ(work(fp), (Work{0, 0})) << "an identical call copies its record";

  // Die 4's one net is the last step: earlier steps are copied.
  Floorplan last = fp;
  last.place(4, {58.0, 2.0});
  EXPECT_EQ(work(last), (Work{10, 0}));

  // Die 0 moves above die 1: net 0-1 walks, die 1 faces die 0 with other
  // sites, so its next net 1-2 walks too. Die 2's own sites fill as before,
  // so nets 2-3 and 3-4 replay.
  Floorplan first = last;
  first.place(0, {16.0, 28.0});
  EXPECT_EQ(work(first), (Work{70, 30}));

  // Die 2 moves: nets 1-2 and 2-3 walk, and die 3's drift walks 3-4; net
  // 0-1, before the first change, is copied.
  Floorplan middle = first;
  middle.place(2, {30.0, 2.0});
  EXPECT_EQ(work(middle), (Work{60, 0}));
  obs::set_metrics_enabled(false);
}

}  // namespace
}  // namespace rlplan::bump
