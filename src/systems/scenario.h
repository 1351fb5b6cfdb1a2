// Declarative benchmark scenarios.
//
// A scenario is one end-to-end regression case for the optimizers: a problem
// instance (inline die/netlist description, a named builtin benchmark, or a
// parameterized generator family + seed), the optimizer budgets to spend on
// it, and the *golden envelope* its results must stay inside (peak
// temperature and wirelength ceilings, optimizer-throughput floors).
// Scenarios live as JSON files under scenarios/; tools/regress.cpp runs the
// whole suite and gates CI on the envelopes, so adding coverage for a new
// workload is dropping in one JSON file.
//
// Schema (all sizes mm, powers W, temperatures degC):
//
//   {
//     "name": "star16",                // required, [A-Za-z0-9_.-]+
//     "description": "...",            // optional
//     "seed": 3,                       // optimizer seed (default 1)
//     "system": {                      // required, exactly ONE of:
//       "builtin": "multi_gpu",        //  1. named builtin (multi_gpu,
//                                      //     cpu_dram, ascend910, table3/1-5)
//       "family": {                    //  2. generator family
//         "topology": "star",          //     random|star|chain|ring|mesh|
//         "chiplets": 16,              //       bipartite
//         "seed": 7,
//         "interposer_mm": [70, 70],
//         "die_mm": [3, 9],
//         "power_w": [4, 18],
//         "max_aspect": 1.5,
//         "power_skew": 0,
//         "wires": [32, 512],
//         "extra_net_prob": 0.35,
//         "hotspot_pairs": 0,
//         "hotspot_power_w": 0,
//         "max_utilization": 0.5
//       },
//       "dies": [                      //  3. inline system (with "nets",
//         {"name": "cpu", "mm": [10, 8], "power_w": 30}, ...
//       ],
//       "nets": [["cpu", "mem0", 256], ...],
//       "interposer_mm": [50, 50]      //     required for inline systems
//     },
//     "budget": {                      // optional, defaults below
//       "sa_evaluations": 4000, "sa_moves_per_temperature": 40,
//       "sa_cooling": 0.95, "run_sa": true,
//       "rl_epochs": 2, "rl_episodes_per_update": 8, "rl_grid": 12,
//       "run_rl": true
//     },
//     "envelope": {                    // required
//       "max_temp_c": 110,             // required ceiling on ground truth
//       "max_wirelength_mm": 26000,    // required ceiling (microbump WL)
//       "min_sa_evals_per_sec": 0,     // optional throughput floors
//       "min_rl_steps_per_sec": 0      // (0 disables)
//     }
//   }
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/chiplet.h"
#include "systems/synthetic.h"
#include "util/json.h"

namespace rlplan::systems {

/// Scenario file problems throw this (loading, schema, or range errors);
/// messages name the offending field.
class ScenarioError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct ScenarioBudget {
  long sa_evaluations = 4000;
  int sa_moves_per_temperature = 40;
  double sa_cooling = 0.95;
  bool run_sa = true;
  int rl_epochs = 2;
  int rl_episodes_per_update = 8;
  std::size_t rl_grid = 12;  ///< a multiple of 4 when run_rl
  bool run_rl = true;

  bool operator==(const ScenarioBudget& o) const = default;
};

struct ScenarioEnvelope {
  double max_temp_c = 0.0;         ///< required ceiling, ground-truth peak
  double max_wirelength_mm = 0.0;  ///< required ceiling, microbump WL
  double min_sa_evals_per_sec = 0.0;  ///< 0 = no floor
  double min_rl_steps_per_sec = 0.0;  ///< 0 = no floor

  bool operator==(const ScenarioEnvelope& o) const = default;
};

struct Scenario {
  std::string name;
  std::string description;
  std::uint64_t seed = 1;  ///< optimizer seed (not the generator seed)

  // Problem source — exactly one is set (enforced by validate()).
  std::string builtin;                        ///< named builtin, or empty
  std::optional<FamilyConfig> family;         ///< generator family...
  std::uint64_t family_seed = 1;              ///< ...with this seed
  std::optional<ChipletSystem> inline_system; ///< fully explicit instance

  ScenarioBudget budget;
  ScenarioEnvelope envelope;

  /// Schema/range validation (does not build the system). Throws
  /// ScenarioError naming the field.
  void validate() const;

  /// Materializes the problem instance (builtin lookup, family generation,
  /// or a copy of the inline system); the result is validate()d.
  ChipletSystem build_system() const;
};

/// Names accepted by {"system": {"builtin": ...}}: "multi_gpu", "cpu_dram",
/// "ascend910", "table3/1" .. "table3/5".
ChipletSystem make_builtin_system(const std::string& name);

/// JSON <-> Scenario. Parsing validates; serialization of a valid scenario
/// round-trips to an equal scenario (and an identical built system).
Scenario scenario_from_json(const util::JsonValue& json);
util::JsonValue scenario_to_json(const Scenario& scenario);

/// The "system" parts scenario_to_json is built from: a generator family
/// without its seed, and an inline system (name, interposer, dies, nets).
util::JsonValue family_to_json(const FamilyConfig& family);
util::JsonValue inline_system_to_json(const ChipletSystem& system);

Scenario load_scenario_file(const std::string& path);
void save_scenario_file(const Scenario& scenario, const std::string& path);

/// Loads every *.json in `dir` (sorted by filename, so suite order is
/// stable), rejecting duplicate scenario names. Throws ScenarioError when
/// the directory is missing or contains an invalid scenario.
std::vector<Scenario> load_scenario_suite(const std::string& dir);

}  // namespace rlplan::systems
