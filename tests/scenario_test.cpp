// Scenario loader/validator + generator-family coverage: schema errors,
// out-of-range fields, serialization round trips, family structure, and
// (when RLPLANNER_SCENARIO_DIR is defined by the build) validation of every
// scenario JSON shipped in the repository suite.
#include "systems/scenario.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>

#include "core/netlist.h"
#include "fuzz_util.h"
#include "rl/planner.h"
#include "systems/synthetic.h"
#include "systems/systems.h"
#include "util/json.h"
#include "util/rng.h"

namespace rlplan::systems {
namespace {

Scenario parse_scenario(const std::string& text) {
  return scenario_from_json(util::parse_json(text));
}

const char* kFamilyScenario = R"({
  "name": "star16",
  "description": "hub and spoke",
  "seed": 3,
  "system": {
    "family": {
      "topology": "star",
      "chiplets": 16,
      "seed": 7,
      "interposer_mm": [70, 70],
      "die_mm": [3, 9],
      "power_w": [4, 18],
      "max_aspect": 1.5
    }
  },
  "budget": {"sa_evaluations": 2000, "rl_epochs": 1, "rl_grid": 12},
  "envelope": {"max_temp_c": 110, "max_wirelength_mm": 26000,
               "min_sa_evals_per_sec": 50}
})";

const char* kInlineScenario = R"({
  "name": "tiny-inline",
  "system": {
    "name": "tiny",
    "interposer_mm": [30, 30],
    "dies": [
      {"name": "cpu", "mm": [10, 8], "power_w": 30},
      {"name": "mem", "mm": [6, 6], "power_w": 8}
    ],
    "nets": [["cpu", "mem", 256]]
  },
  "envelope": {"max_temp_c": 120, "max_wirelength_mm": 5000}
})";

TEST(Scenario, LoadsFamilyScenario) {
  const Scenario s = parse_scenario(kFamilyScenario);
  EXPECT_EQ(s.name, "star16");
  EXPECT_EQ(s.seed, 3u);
  ASSERT_TRUE(s.family.has_value());
  EXPECT_EQ(s.family->topology, NetTopology::kStar);
  EXPECT_EQ(s.family->chiplets, 16u);
  EXPECT_EQ(s.family_seed, 7u);
  EXPECT_EQ(s.budget.sa_evaluations, 2000);
  EXPECT_EQ(s.budget.rl_epochs, 1);
  EXPECT_EQ(s.budget.rl_grid, 12u);
  EXPECT_TRUE(s.budget.run_sa);  // defaults survive partial budget objects
  EXPECT_DOUBLE_EQ(s.envelope.max_temp_c, 110.0);
  EXPECT_DOUBLE_EQ(s.envelope.min_sa_evals_per_sec, 50.0);
  EXPECT_DOUBLE_EQ(s.envelope.min_rl_steps_per_sec, 0.0);

  const ChipletSystem sys = s.build_system();
  EXPECT_EQ(sys.num_chiplets(), 16u);
  EXPECT_EQ(sys.name(), "star16");
}

TEST(Scenario, LoadsInlineScenario) {
  const Scenario s = parse_scenario(kInlineScenario);
  ASSERT_TRUE(s.inline_system.has_value());
  const ChipletSystem sys = s.build_system();
  EXPECT_EQ(sys.name(), "tiny");
  ASSERT_EQ(sys.num_chiplets(), 2u);
  EXPECT_EQ(sys.chiplet(0).name, "cpu");
  EXPECT_DOUBLE_EQ(sys.chiplet(0).width, 10.0);
  ASSERT_EQ(sys.nets().size(), 1u);
  EXPECT_EQ(sys.nets()[0].wires, 256);
}

TEST(Scenario, BuiltinsResolve) {
  const Scenario s = parse_scenario(R"({
    "name": "mgpu", "system": {"builtin": "multi_gpu"},
    "envelope": {"max_temp_c": 100, "max_wirelength_mm": 100000}
  })");
  EXPECT_EQ(s.build_system(), make_multi_gpu_system());
  for (const char* name :
       {"multi_gpu", "cpu_dram", "ascend910", "table3/1", "table3/5"}) {
    EXPECT_GT(make_builtin_system(name).num_chiplets(), 0u) << name;
  }
  EXPECT_THROW(make_builtin_system("nope"), ScenarioError);
  EXPECT_THROW(make_builtin_system("table3/6"), ScenarioError);
}

TEST(Scenario, MalformedJsonFileRejected) {
  const auto dir = std::filesystem::temp_directory_path() / "rlplan-scen-bad";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "bad.json").string();
  std::ofstream(path) << "{ not json";
  EXPECT_THROW(load_scenario_file(path), ScenarioError);
  EXPECT_THROW(load_scenario_file((dir / "absent.json").string()),
               ScenarioError);
  std::filesystem::remove_all(dir);
}

TEST(Scenario, MissingFieldsRejected) {
  // No system.
  EXPECT_THROW(parse_scenario(R"({"name": "x",
      "envelope": {"max_temp_c": 100, "max_wirelength_mm": 100}})"),
               ScenarioError);
  // No envelope.
  EXPECT_THROW(parse_scenario(R"({"name": "x",
      "system": {"builtin": "multi_gpu"}})"),
               ScenarioError);
  // Envelope missing required ceilings.
  EXPECT_THROW(parse_scenario(R"({"name": "x",
      "system": {"builtin": "multi_gpu"},
      "envelope": {"max_wirelength_mm": 100}})"),
               util::JsonError);
  // No name.
  EXPECT_THROW(parse_scenario(R"({"system": {"builtin": "multi_gpu"},
      "envelope": {"max_temp_c": 100, "max_wirelength_mm": 100}})"),
               ScenarioError);
  // Inline dies without interposer.
  EXPECT_THROW(parse_scenario(R"({"name": "x",
      "system": {"dies": [{"name": "a", "mm": [5, 5], "power_w": 1}]},
      "envelope": {"max_temp_c": 100, "max_wirelength_mm": 100}})"),
               ScenarioError);
}

TEST(Scenario, InlineSystemSizeCapsRejected) {
  // A corrupt (or hostile) scenario with an absurd die/net count must fail
  // with a named cap, before any per-entry validation work.
  const auto build = [](std::size_t num_dies, std::size_t num_nets) {
    std::string dies;
    for (std::size_t i = 0; i < num_dies; ++i) {
      if (i > 0) dies += ",";
      dies += "{\"name\": \"d" + std::to_string(i) +
              "\", \"mm\": [1, 1], \"power_w\": 1}";
    }
    std::string nets;
    for (std::size_t i = 0; i < num_nets; ++i) {
      if (i > 0) nets += ",";
      nets += "[\"d0\", \"d1\", 1]";
    }
    return std::string(R"({"name": "big", "system": {"interposer_mm":
        [2000, 2000], "dies": [)") + dies + R"(], "nets": [)" + nets + R"(]},
        "envelope": {"max_temp_c": 100, "max_wirelength_mm": 100}})";
  };
  EXPECT_THROW(parse_scenario(build(4097, 0)), ScenarioError);
  EXPECT_THROW(parse_scenario(build(2, 65537)), ScenarioError);
  EXPECT_NO_THROW(parse_scenario(build(2, 3)));
}

TEST(Scenario, OutOfRangeInlineSystemRejected) {
  const auto scen = [](const std::string& dies, const std::string& nets) {
    return std::string(R"({"name": "x", "system": {"interposer_mm": [20, 20],
        "dies": )") + dies + R"(, "nets": )" + nets + R"(},
        "envelope": {"max_temp_c": 100, "max_wirelength_mm": 100}})";
  };
  // Non-positive die dims.
  EXPECT_THROW(
      parse_scenario(scen(R"([{"name":"a","mm":[0,5],"power_w":1}])", "[]")),
      ScenarioError);
  // Die exceeds the interposer.
  EXPECT_THROW(
      parse_scenario(scen(R"([{"name":"a","mm":[25,5],"power_w":1}])", "[]")),
      ScenarioError);
  // Negative power.
  EXPECT_THROW(
      parse_scenario(scen(R"([{"name":"a","mm":[5,5],"power_w":-1}])", "[]")),
      ScenarioError);
  // Duplicate die name.
  EXPECT_THROW(parse_scenario(scen(
                   R"([{"name":"a","mm":[5,5],"power_w":1},
                       {"name":"a","mm":[4,4],"power_w":1}])",
                   "[]")),
               ScenarioError);
  // Net referencing an unknown die.
  EXPECT_THROW(parse_scenario(scen(R"([{"name":"a","mm":[5,5],"power_w":1},
                                       {"name":"b","mm":[4,4],"power_w":1}])",
                                   R"([["a", "zz", 4]])")),
               ScenarioError);
  // Non-positive wire count.
  EXPECT_THROW(parse_scenario(scen(R"([{"name":"a","mm":[5,5],"power_w":1},
                                       {"name":"b","mm":[4,4],"power_w":1}])",
                                   R"([["a", "b", 0]])")),
               ScenarioError);
  // A wire count past INT_MAX is a schema error, checked before the cast to
  // int (the cast alone is undefined behaviour).
  EXPECT_THROW(parse_scenario(scen(R"([{"name":"a","mm":[5,5],"power_w":1},
                                       {"name":"b","mm":[4,4],"power_w":1}])",
                                   R"([["a", "b", 1e10]])")),
               ScenarioError);
}

TEST(Scenario, BadSourceCombinationsRejected) {
  // Two sources at once.
  EXPECT_THROW(parse_scenario(R"({"name": "x",
      "system": {"builtin": "multi_gpu", "family": {"chiplets": 4}},
      "envelope": {"max_temp_c": 100, "max_wirelength_mm": 100}})"),
               ScenarioError);
  // Unknown builtin and unknown topology.
  EXPECT_THROW(parse_scenario(R"({"name": "x",
      "system": {"builtin": "warp_core"},
      "envelope": {"max_temp_c": 100, "max_wirelength_mm": 100}})"),
               ScenarioError);
  EXPECT_THROW(parse_scenario(R"({"name": "x",
      "system": {"family": {"topology": "torus", "chiplets": 4}},
      "envelope": {"max_temp_c": 100, "max_wirelength_mm": 100}})"),
               ScenarioError);
  // Fractional wire bounds are schema errors, not silent truncation, and
  // so are bounds past INT_MAX.
  EXPECT_THROW(parse_scenario(R"({"name": "x",
      "system": {"family": {"chiplets": 4, "wires": [32.5, 512]}},
      "envelope": {"max_temp_c": 100, "max_wirelength_mm": 100}})"),
               ScenarioError);
  EXPECT_THROW(parse_scenario(R"({"name": "x",
      "system": {"family": {"chiplets": 4, "wires": [1, 1e10]}},
      "envelope": {"max_temp_c": 100, "max_wirelength_mm": 100}})"),
               ScenarioError);
}

TEST(Scenario, BadBudgetAndEnvelopeRejected) {
  const auto with = [](const std::string& budget, const std::string& env) {
    return std::string(
               R"({"name": "x", "system": {"builtin": "multi_gpu"}, )") +
           R"("budget": )" + budget + R"(, "envelope": )" + env + "}";
  };
  const std::string ok_env =
      R"({"max_temp_c": 100, "max_wirelength_mm": 100})";
  EXPECT_THROW(parse_scenario(with(R"({"sa_evaluations": 0})", ok_env)),
               ScenarioError);
  EXPECT_THROW(parse_scenario(with(R"({"sa_cooling": 1.5})", ok_env)),
               ScenarioError);
  EXPECT_THROW(parse_scenario(with(R"({"rl_grid": 2})", ok_env)),
               ScenarioError);
  // The policy net needs a multiple of 4: refused up front, not after the
  // SA leg.
  EXPECT_THROW(parse_scenario(with(R"({"rl_grid": 10})", ok_env)),
               ScenarioError);
  EXPECT_THROW(parse_scenario(with(R"({"rl_grid": 6})", ok_env)),
               ScenarioError);
  EXPECT_NO_THROW(
      parse_scenario(with(R"({"rl_grid": 6, "run_rl": false})", ok_env)));
  EXPECT_THROW(
      parse_scenario(with(R"({"run_sa": false, "run_rl": false})", ok_env)),
      ScenarioError);
  EXPECT_THROW(parse_scenario(with(
                   R"({})", R"({"max_temp_c": -5, "max_wirelength_mm": 1})")),
               ScenarioError);
  EXPECT_THROW(
      parse_scenario(with(R"({})", R"({"max_temp_c": 100,
          "max_wirelength_mm": 100, "min_sa_evals_per_sec": -1})")),
      ScenarioError);
  // Non-integer counts are schema errors, not silent truncation.
  EXPECT_THROW(parse_scenario(with(R"({"sa_evaluations": 10.5})", ok_env)),
               ScenarioError);
  // Negative counts must not wrap through unsigned casts.
  EXPECT_THROW(parse_scenario(with(R"({"rl_grid": -1})", ok_env)),
               ScenarioError);
  EXPECT_THROW(parse_scenario(with(R"({"sa_evaluations": -5})", ok_env)),
               ScenarioError);
}

TEST(Scenario, UnknownFieldsRejected) {
  // A misspelled member must fail loudly, never fall back to a default.
  EXPECT_THROW(parse_scenario(R"({"name": "x",
      "system": {"family": {"chiplet": 32}},
      "envelope": {"max_temp_c": 100, "max_wirelength_mm": 100}})"),
               ScenarioError);
  EXPECT_THROW(parse_scenario(R"({"name": "x",
      "system": {"builtin": "multi_gpu"},
      "budget": {"sa_evals": 10},
      "envelope": {"max_temp_c": 100, "max_wirelength_mm": 100}})"),
               ScenarioError);
  EXPECT_THROW(parse_scenario(R"({"name": "x",
      "system": {"builtin": "multi_gpu"},
      "envelope": {"max_temp": 100, "max_wirelength_mm": 100}})"),
               ScenarioError);
  EXPECT_THROW(parse_scenario(R"({"name": "x", "sed": 1,
      "system": {"builtin": "multi_gpu"},
      "envelope": {"max_temp_c": 100, "max_wirelength_mm": 100}})"),
               ScenarioError);
  // Negative family counts must not wrap either.
  EXPECT_THROW(parse_scenario(R"({"name": "x",
      "system": {"family": {"chiplets": -1}},
      "envelope": {"max_temp_c": 100, "max_wirelength_mm": 100}})"),
               ScenarioError);
}

TEST(Scenario, FamilyRoundTripIsIdentical) {
  const Scenario s = parse_scenario(kFamilyScenario);
  const Scenario again = scenario_from_json(scenario_to_json(s));
  EXPECT_EQ(again.name, s.name);
  EXPECT_EQ(again.seed, s.seed);
  ASSERT_TRUE(again.family.has_value());
  EXPECT_EQ(*again.family, *s.family);
  EXPECT_EQ(again.family_seed, s.family_seed);
  EXPECT_EQ(again.budget, s.budget);
  EXPECT_EQ(again.envelope, s.envelope);
  // The materialized systems are exactly equal.
  EXPECT_EQ(again.build_system(), s.build_system());
}

TEST(Scenario, InlineRoundTripThroughDiskIsIdentical) {
  const Scenario s = parse_scenario(kInlineScenario);
  const auto dir = std::filesystem::temp_directory_path() / "rlplan-scen-rt";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "rt.json").string();
  save_scenario_file(s, path);
  const Scenario again = load_scenario_file(path);
  EXPECT_EQ(again.budget, s.budget);
  EXPECT_EQ(again.envelope, s.envelope);
  EXPECT_EQ(again.build_system(), s.build_system());
  std::filesystem::remove_all(dir);
}

TEST(Scenario, GeneratedFamilySavedAsInlineRoundTrips) {
  // generate -> freeze as an inline scenario -> save -> load -> identical
  // system (the full "pin a generated instance" workflow).
  FamilyConfig fc;
  fc.chiplets = 6;
  fc.topology = NetTopology::kMesh;
  const ChipletSystem generated = generate_family(fc, 11, "frozen");
  Scenario s;
  s.name = "frozen";
  s.inline_system = generated;
  s.envelope.max_temp_c = 100.0;
  s.envelope.max_wirelength_mm = 100000.0;
  const Scenario again = scenario_from_json(scenario_to_json(s));
  EXPECT_EQ(again.build_system(), generated);
}

TEST(Scenario, SuiteLoaderSortsAndRejectsDuplicates) {
  const auto dir = std::filesystem::temp_directory_path() / "rlplan-suite";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto write = [&](const char* file, const char* name) {
    std::ofstream((dir / file).string())
        << R"({"name": ")" << name
        << R"(", "system": {"builtin": "multi_gpu"},
            "envelope": {"max_temp_c": 100, "max_wirelength_mm": 100}})";
  };
  write("b.json", "beta");
  write("a.json", "alpha");
  std::ofstream((dir / "notes.txt").string()) << "ignored";
  const auto suite = load_scenario_suite(dir.string());
  ASSERT_EQ(suite.size(), 2u);
  EXPECT_EQ(suite[0].name, "alpha");  // filename order, not creation order
  EXPECT_EQ(suite[1].name, "beta");

  write("c.json", "alpha");  // duplicate name
  EXPECT_THROW(load_scenario_suite(dir.string()), ScenarioError);
  EXPECT_THROW(load_scenario_suite((dir / "missing").string()),
               ScenarioError);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------- families --

TEST(Family, DeterministicAndSweepsDieCounts) {
  FamilyConfig fc;
  fc.topology = NetTopology::kRandom;
  for (const std::size_t n : {4u, 16u, 32u, 64u}) {
    fc.chiplets = n;
    fc.min_dim_mm = 2.0;
    fc.max_dim_mm = 6.0;
    fc.interposer_w_mm = fc.interposer_h_mm = n >= 32 ? 90.0 : 60.0;
    const ChipletSystem a = generate_family(fc, 5);
    const ChipletSystem b = generate_family(fc, 5);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.num_chiplets(), n);
    EXPECT_TRUE(is_connected(a.num_chiplets(), a.nets()));
    EXPECT_LE(a.utilization(), fc.max_utilization + 0.15);
    EXPECT_NE(a, generate_family(fc, 6));
  }
}

TEST(Family, StarTopology) {
  FamilyConfig fc;
  fc.chiplets = 9;
  fc.topology = NetTopology::kStar;
  const ChipletSystem sys = generate_family(fc, 2);
  ASSERT_EQ(sys.nets().size(), 8u);
  for (const auto& net : sys.nets()) {
    EXPECT_EQ(net.a, 0u);  // every link touches the hub
    EXPECT_NE(net.b, 0u);
  }
}

TEST(Family, MeshAndRingTopology) {
  FamilyConfig fc;
  fc.chiplets = 12;
  fc.topology = NetTopology::kMesh;
  const ChipletSystem mesh = generate_family(fc, 3);
  EXPECT_TRUE(is_connected(mesh.num_chiplets(), mesh.nets()));
  // A 12-die near-square mesh (3x4) has 2*rows*cols - rows - cols links.
  EXPECT_EQ(mesh.nets().size(), 17u);

  fc.topology = NetTopology::kRing;
  const ChipletSystem ring = generate_family(fc, 3);
  EXPECT_EQ(ring.nets().size(), 12u);  // chain + closing edge
  const auto degrees = wire_degrees(ring.num_chiplets(), ring.nets());
  for (std::size_t i = 0; i < ring.num_chiplets(); ++i) {
    EXPECT_GT(degrees[i], 0);
  }
}

TEST(Family, BipartiteHasNoIntraHalfLinks) {
  FamilyConfig fc;
  fc.chiplets = 10;
  fc.topology = NetTopology::kBipartite;
  fc.extra_net_prob = 0.5;
  const ChipletSystem sys = generate_family(fc, 4);
  const std::size_t split = 5;
  for (const auto& net : sys.nets()) {
    const bool a_left = net.a < split;
    const bool b_left = net.b < split;
    EXPECT_NE(a_left, b_left) << "intra-half net " << net.a << "-" << net.b;
  }
  EXPECT_TRUE(is_connected(sys.num_chiplets(), sys.nets()));
}

TEST(Family, PowerSkewConcentratesPower) {
  FamilyConfig fc;
  fc.chiplets = 40;
  fc.interposer_w_mm = fc.interposer_h_mm = 120.0;
  fc.min_power_w = 1.0;
  fc.max_power_w = 100.0;
  const auto mean_power = [&](double skew) {
    fc.power_skew = skew;
    const ChipletSystem sys = generate_family(fc, 8);
    return sys.total_power() / static_cast<double>(sys.num_chiplets());
  };
  // Skewed draws push most dies toward min_power while keeping the range.
  EXPECT_LT(mean_power(4.0), 0.6 * mean_power(0.0));
}

TEST(Family, AspectExtremesProduceSlivers) {
  FamilyConfig fc;
  fc.chiplets = 12;
  fc.max_aspect = 4.0;
  fc.interposer_w_mm = fc.interposer_h_mm = 80.0;
  const ChipletSystem sys = generate_family(fc, 6);
  double worst = 1.0;
  for (const Chiplet& c : sys.chiplets()) {
    worst = std::max(worst, std::max(c.width / c.height, c.height / c.width));
  }
  EXPECT_GT(worst, 2.0);
  // max_aspect == 1 keeps dies square.
  fc.max_aspect = 1.0;
  const ChipletSystem squares = generate_family(fc, 6);
  for (const Chiplet& c : squares.chiplets()) {
    EXPECT_NEAR(c.width, c.height, 1e-9);
  }
}

TEST(Family, HotspotPairsArePinnedAndWired) {
  FamilyConfig fc;
  fc.chiplets = 8;
  fc.topology = NetTopology::kChain;
  fc.hotspot_pairs = 2;
  fc.hotspot_power_w = 55.0;
  fc.max_wires = 300;
  const ChipletSystem sys = generate_family(fc, 9);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(sys.chiplet(i).power, 55.0);
  }
  // The pair nets ride at full width on top of the chain.
  ASSERT_EQ(sys.nets().size(), 7u + 2u);
  EXPECT_EQ(sys.nets()[7], (InterChipletNet{0, 1, 300}));
  EXPECT_EQ(sys.nets()[8], (InterChipletNet{2, 3, 300}));
}

TEST(Family, ConfigValidation) {
  FamilyConfig fc;
  fc.chiplets = 1;
  EXPECT_THROW(generate_family(fc, 1), std::invalid_argument);
  fc = {};
  fc.max_aspect = 0.5;
  EXPECT_THROW(generate_family(fc, 1), std::invalid_argument);
  fc = {};
  fc.hotspot_pairs = 5;
  fc.chiplets = 8;
  EXPECT_THROW(generate_family(fc, 1), std::invalid_argument);
  fc = {};
  fc.max_dim_mm = 60.0;  // cannot fit the 50 mm interposer
  EXPECT_THROW(generate_family(fc, 1), std::invalid_argument);
  EXPECT_THROW(net_topology_from_string("hypercube"), std::invalid_argument);
  EXPECT_EQ(net_topology_from_string("bipartite"), NetTopology::kBipartite);
  EXPECT_STREQ(to_string(NetTopology::kMesh), "mesh");
}

// ------------------------------------------------------- repository suite --

#ifdef RLPLANNER_SCENARIO_DIR
TEST(ScenarioSuite, ShippedScenariosAreValidAndPlaceable) {
  const auto suite = load_scenario_suite(RLPLANNER_SCENARIO_DIR);
  EXPECT_GE(suite.size(), 12u);
  for (const Scenario& s : suite) {
    SCOPED_TRACE(s.name);
    const ChipletSystem sys = s.build_system();
    EXPECT_GE(sys.num_chiplets(), 2u);
    // Every shipped scenario must admit a legal placement via the same
    // deterministic first-fit both optimizers can fall back on.
    const Floorplan fp =
        rl::first_fit_floorplan(sys, rl::EnvConfig{.grid = 48});
    EXPECT_TRUE(fp.is_complete());
    EXPECT_TRUE(fp.is_legal());
  }
}

// Every shipped scenario file, truncated and with bytes flipped at seeded
// offsets (the count scaled by RLPLANNER_FUZZ_SCALE): parsing it as serve
// parses a submitted scenario either succeeds or throws a
// std::runtime_error — never another exception type or undefined
// behaviour (the sanitizer legs abort on the latter).
TEST(ScenarioSuite, DamagedScenarioFilesLoadOrThrow) {
  const int cases = 20 * rlplan::testing::fuzz_scale();
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(RLPLANNER_SCENARIO_DIR)) {
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    std::ifstream is(files[fi], std::ios::binary);
    const std::string text((std::istreambuf_iterator<char>(is)),
                           std::istreambuf_iterator<char>());
    ASSERT_FALSE(text.empty());
    for (int k = 0; k < cases; ++k) {
      const std::uint64_t seed = 0x5CE9ULL * 1000003ULL + fi * 10007ULL +
                                 static_cast<std::uint64_t>(k);
      Rng rng(seed);
      std::string bad = text;
      if (k % 2 == 0) {
        bad.resize(rng.uniform_int(std::uint64_t{text.size()}));
      } else {
        const std::size_t at = rng.uniform_int(std::uint64_t{text.size()});
        const auto mask = static_cast<unsigned char>(
            1 + rng.uniform_int(std::uint64_t{255}));
        bad[at] = static_cast<char>(static_cast<unsigned char>(bad[at]) ^ mask);
      }
      try {
        parse_scenario(bad);
      } catch (const std::runtime_error&) {
      } catch (...) {
        const std::string context = "DamagedScenarioFilesLoadOrThrow seed=" +
                                    std::to_string(seed) + " file=" +
                                    files[fi].filename().string();
        rlplan::testing::report_failure_seed("scenario_test", context);
        FAIL() << context << ": threw something other than runtime_error";
      }
    }
  }
}
#endif

}  // namespace
}  // namespace rlplan::systems
