#include "systems/scenario.h"

#include <algorithm>
#include <cctype>
#include <climits>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "systems/systems.h"

namespace rlplan::systems {

namespace {

[[noreturn]] void fail(const std::string& what) { throw ScenarioError(what); }

bool valid_name(const std::string& name) {
  if (name.empty()) return false;
  return std::all_of(name.begin(), name.end(), [](unsigned char c) {
    return std::isalnum(c) || c == '_' || c == '.' || c == '-';
  });
}

/// {"key": [a, b]} -> (a, b); both finite numbers required.
std::pair<double, double> parse_pair(const util::JsonValue& obj,
                                     const std::string& key,
                                     const std::string& where) {
  const util::JsonValue& v = obj.at(key);
  if (!v.is_array() || v.as_array().size() != 2) {
    fail(where + "." + key + " must be a 2-element array");
  }
  return {v.as_array()[0].as_number(), v.as_array()[1].as_number()};
}

/// Exactly-representable doubles stop at 2^53; also the ceiling for seeds.
constexpr long kMaxCount = 1L << 53;

/// Integer member in [lo, hi]; fractional, out-of-range, and wrapping values
/// are schema errors (negative counts must not sneak through an unsigned
/// cast later).
long checked_count(const util::JsonValue& obj, const std::string& key,
                   long fallback, const std::string& where, long lo = 0,
                   long hi = kMaxCount) {
  const double v = obj.number_or(key, static_cast<double>(fallback));
  // Range-check in the double domain BEFORE casting: double -> long on an
  // out-of-range value (e.g. "seed": 1e300) is undefined behaviour and
  // aborts the UBSan CI leg instead of raising the schema error. The
  // negated comparison also rejects NaN.
  if (!(v >= static_cast<double>(lo) && v <= static_cast<double>(hi))) {
    fail(where + "." + key + " must be in [" + std::to_string(lo) + ", " +
         std::to_string(hi) + "]");
  }
  const long n = static_cast<long>(v);
  if (static_cast<double>(n) != v) {
    fail(where + "." + key + " must be an integer");
  }
  return n;
}

/// A wire count: an integer in [1, INT_MAX]. Range-checked in the double
/// domain before the cast, like checked_count: double -> int on an
/// out-of-range value is undefined behaviour.
int checked_wires(double v, const std::string& what) {
  if (!(v >= 1.0 && v <= static_cast<double>(INT_MAX)) ||
      v != std::floor(v)) {
    fail(what + " must be an integer in [1, " + std::to_string(INT_MAX) +
         "]");
  }
  return static_cast<int>(v);
}

/// Strict schema: members outside `allowed` are errors, so a misspelled
/// field cannot silently fall back to its default.
void reject_unknown(const util::JsonValue& obj,
                    std::initializer_list<const char*> allowed,
                    const std::string& where) {
  for (const auto& [key, value] : obj.as_object()) {
    const bool known =
        std::any_of(allowed.begin(), allowed.end(),
                    [&](const char* a) { return key == a; });
    if (!known) fail(where + ": unknown field \"" + key + "\"");
  }
}

FamilyConfig family_from_json(const util::JsonValue& j) {
  const std::string where = "system.family";
  reject_unknown(j,
                 {"topology", "chiplets", "seed", "interposer_mm", "die_mm",
                  "power_w", "max_aspect", "power_skew", "wires",
                  "extra_net_prob", "hotspot_pairs", "hotspot_power_w",
                  "max_utilization"},
                 where);
  FamilyConfig c;
  try {
    c.topology = net_topology_from_string(j.string_or("topology", "random"));
  } catch (const std::invalid_argument& e) {
    fail(where + ": " + e.what());
  }
  c.chiplets = static_cast<std::size_t>(checked_count(
      j, "chiplets", static_cast<long>(c.chiplets), where, 0, 100000));
  if (j.has("interposer_mm")) {
    std::tie(c.interposer_w_mm, c.interposer_h_mm) =
        parse_pair(j, "interposer_mm", where);
  }
  if (j.has("die_mm")) {
    std::tie(c.min_dim_mm, c.max_dim_mm) = parse_pair(j, "die_mm", where);
  }
  if (j.has("power_w")) {
    std::tie(c.min_power_w, c.max_power_w) = parse_pair(j, "power_w", where);
  }
  c.max_aspect = j.number_or("max_aspect", c.max_aspect);
  c.power_skew = j.number_or("power_skew", c.power_skew);
  if (j.has("wires")) {
    const auto [lo, hi] = parse_pair(j, "wires", where);
    c.min_wires = checked_wires(lo, where + ".wires bound");
    c.max_wires = checked_wires(hi, where + ".wires bound");
  }
  c.extra_net_prob = j.number_or("extra_net_prob", c.extra_net_prob);
  c.hotspot_pairs = static_cast<std::size_t>(checked_count(
      j, "hotspot_pairs", static_cast<long>(c.hotspot_pairs), where, 0,
      100000));
  c.hotspot_power_w = j.number_or("hotspot_power_w", c.hotspot_power_w);
  c.max_utilization = j.number_or("max_utilization", c.max_utilization);
  return c;
}

ChipletSystem inline_system_from_json(const util::JsonValue& sys,
                                      const std::string& scenario_name) {
  reject_unknown(sys, {"name", "interposer_mm", "dies", "nets"}, "system");
  if (!sys.has("interposer_mm")) {
    fail("system.interposer_mm is required for inline systems");
  }
  const auto [iw, ih] = parse_pair(sys, "interposer_mm", "system");

  // Size caps before any per-entry work: a corrupt or hostile scenario file
  // must fail with a clear message, not an OOM or a multi-hour build. Both
  // limits sit far above anything the paper's benchmarks (or the synthetic
  // families) produce.
  constexpr std::size_t kMaxDies = 4096;
  constexpr std::size_t kMaxNets = 65536;
  if (sys.at("dies").as_array().size() > kMaxDies) {
    fail("system.dies: " + std::to_string(sys.at("dies").as_array().size()) +
         " entries exceeds the cap of " + std::to_string(kMaxDies));
  }
  if (const util::JsonValue* jn = sys.find("nets")) {
    if (jn->as_array().size() > kMaxNets) {
      fail("system.nets: " + std::to_string(jn->as_array().size()) +
           " entries exceeds the cap of " + std::to_string(kMaxNets));
    }
  }

  std::vector<Chiplet> dies;
  std::unordered_map<std::string, std::size_t> index_of;
  for (const util::JsonValue& d : sys.at("dies").as_array()) {
    if (!d.is_object()) fail("system.dies entries must be objects");
    reject_unknown(d, {"name", "mm", "power_w"}, "system.dies");
    Chiplet c;
    c.name = d.at("name").as_string();
    std::tie(c.width, c.height) = parse_pair(d, "mm", "system.dies");
    c.power = d.at("power_w").as_number();
    if (c.width <= 0.0 || c.height <= 0.0) {
      fail("system.dies." + c.name + ": die dimensions must be positive");
    }
    if (c.width > iw || c.height > ih) {
      fail("system.dies." + c.name + ": die exceeds the interposer");
    }
    if (c.power < 0.0) {
      fail("system.dies." + c.name + ": negative power");
    }
    if (!index_of.emplace(c.name, dies.size()).second) {
      fail("system.dies: duplicate die name \"" + c.name + "\"");
    }
    dies.push_back(std::move(c));
  }
  if (dies.empty()) fail("system.dies must not be empty");

  std::vector<InterChipletNet> nets;
  if (const util::JsonValue* jnets = sys.find("nets")) {
    for (const util::JsonValue& n : jnets->as_array()) {
      if (!n.is_array() || n.as_array().size() != 3) {
        fail("system.nets entries must be [die_a, die_b, wires]");
      }
      const auto& items = n.as_array();
      InterChipletNet net;
      for (int e = 0; e < 2; ++e) {
        const std::string& die = items[static_cast<std::size_t>(e)].as_string();
        const auto it = index_of.find(die);
        if (it == index_of.end()) {
          fail("system.nets references unknown die \"" + die + "\"");
        }
        (e == 0 ? net.a : net.b) = it->second;
      }
      net.wires = checked_wires(items[2].as_number(), "system.nets: wires");
      nets.push_back(net);
    }
  }

  ChipletSystem system(sys.string_or("name", scenario_name), iw, ih,
                       std::move(dies), std::move(nets));
  try {
    system.validate();
  } catch (const std::invalid_argument& e) {
    fail(std::string("system: ") + e.what());
  }
  return system;
}

ScenarioBudget budget_from_json(const util::JsonValue* j) {
  ScenarioBudget b;
  if (j == nullptr) return b;
  reject_unknown(*j,
                 {"sa_evaluations", "sa_moves_per_temperature", "sa_cooling",
                  "run_sa", "rl_epochs", "rl_episodes_per_update", "rl_grid",
                  "run_rl"},
                 "budget");
  b.sa_evaluations = checked_count(*j, "sa_evaluations", b.sa_evaluations,
                                   "budget", 0, 1000000000000L);
  b.sa_moves_per_temperature = static_cast<int>(
      checked_count(*j, "sa_moves_per_temperature",
                    b.sa_moves_per_temperature, "budget", 0, 1000000000));
  b.sa_cooling = j->number_or("sa_cooling", b.sa_cooling);
  b.run_sa = j->bool_or("run_sa", b.run_sa);
  b.rl_epochs = static_cast<int>(
      checked_count(*j, "rl_epochs", b.rl_epochs, "budget", 0, 1000000000));
  b.rl_episodes_per_update = static_cast<int>(
      checked_count(*j, "rl_episodes_per_update", b.rl_episodes_per_update,
                    "budget", 0, 1000000000));
  b.rl_grid = static_cast<std::size_t>(checked_count(
      *j, "rl_grid", static_cast<long>(b.rl_grid), "budget", 0, 4096));
  b.run_rl = j->bool_or("run_rl", b.run_rl);
  return b;
}

ScenarioEnvelope envelope_from_json(const util::JsonValue& j) {
  reject_unknown(j,
                 {"max_temp_c", "max_wirelength_mm", "min_sa_evals_per_sec",
                  "min_rl_steps_per_sec"},
                 "envelope");
  ScenarioEnvelope e;
  e.max_temp_c = j.at("max_temp_c").as_number();
  e.max_wirelength_mm = j.at("max_wirelength_mm").as_number();
  e.min_sa_evals_per_sec =
      j.number_or("min_sa_evals_per_sec", e.min_sa_evals_per_sec);
  e.min_rl_steps_per_sec =
      j.number_or("min_rl_steps_per_sec", e.min_rl_steps_per_sec);
  return e;
}

}  // namespace

ChipletSystem make_builtin_system(const std::string& name) {
  if (name == "multi_gpu") return make_multi_gpu_system();
  if (name == "cpu_dram") return make_cpu_dram_system();
  if (name == "ascend910") return make_ascend910_system();
  if (name.rfind("table3/", 0) == 0) {
    const std::string idx = name.substr(7);
    if (idx.size() == 1 && idx[0] >= '1' && idx[0] <= '5') {
      return make_table3_cases()[static_cast<std::size_t>(idx[0] - '1')];
    }
  }
  fail("unknown builtin system \"" + name +
       "\" (expected multi_gpu, cpu_dram, ascend910, or table3/1..5)");
}

void Scenario::validate() const {
  if (!valid_name(name)) {
    fail("scenario name \"" + name +
         "\" must be non-empty [A-Za-z0-9_.-]");
  }
  const int sources = (builtin.empty() ? 0 : 1) + (family ? 1 : 0) +
                      (inline_system ? 1 : 0);
  if (sources != 1) {
    fail(name + ": system must have exactly one of builtin / family / dies");
  }
  if (family) {
    try {
      validate_family_config(*family);
    } catch (const std::invalid_argument& e) {
      fail(name + ": " + e.what());
    }
  }
  if (inline_system) {
    try {
      inline_system->validate();
    } catch (const std::invalid_argument& e) {
      fail(name + ": " + e.what());
    }
  }
  if (!budget.run_sa && !budget.run_rl) {
    fail(name + ": budget disables both SA and RL");
  }
  if (budget.run_sa && budget.sa_evaluations <= 0) {
    fail(name + ": budget.sa_evaluations must be positive");
  }
  if (budget.sa_moves_per_temperature <= 0) {
    fail(name + ": budget.sa_moves_per_temperature must be positive");
  }
  if (budget.sa_cooling <= 0.0 || budget.sa_cooling >= 1.0) {
    fail(name + ": budget.sa_cooling must be in (0, 1)");
  }
  if (budget.run_rl &&
      (budget.rl_epochs <= 0 || budget.rl_episodes_per_update <= 0)) {
    fail(name + ": RL budget must be positive");
  }
  if (budget.run_rl && (budget.rl_grid < 4 || budget.rl_grid % 4 != 0)) {
    // The policy net and the RND encoder pool by 4; failing here refuses
    // the scenario before its SA leg spends any budget.
    fail(name + ": budget.rl_grid must be a multiple of 4, at least 4");
  }
  if (envelope.max_temp_c <= 0.0) {
    fail(name + ": envelope.max_temp_c must be positive");
  }
  if (envelope.max_wirelength_mm <= 0.0) {
    fail(name + ": envelope.max_wirelength_mm must be positive");
  }
  if (envelope.min_sa_evals_per_sec < 0.0 ||
      envelope.min_rl_steps_per_sec < 0.0) {
    fail(name + ": envelope throughput floors must be non-negative");
  }
}

ChipletSystem Scenario::build_system() const {
  validate();
  if (!builtin.empty()) return make_builtin_system(builtin);
  if (family) return generate_family(*family, family_seed, name);
  return *inline_system;
}

Scenario scenario_from_json(const util::JsonValue& json) {
  if (!json.is_object()) fail("scenario document must be a JSON object");
  reject_unknown(json,
                 {"name", "description", "seed", "system", "budget",
                  "envelope"},
                 "scenario");
  Scenario s;
  s.name = json.string_or("name", "");
  s.description = json.string_or("description", "");
  s.seed = static_cast<std::uint64_t>(
      checked_count(json, "seed", static_cast<long>(s.seed), "scenario"));

  const util::JsonValue* sys = json.find("system");
  if (sys == nullptr) fail(s.name + ": missing \"system\"");
  if (!sys->is_object()) fail(s.name + ": \"system\" must be an object");
  const int sources = (sys->has("builtin") ? 1 : 0) +
                      (sys->has("family") ? 1 : 0) +
                      (sys->has("dies") ? 1 : 0);
  if (sources != 1) {
    fail(s.name + ": system must have exactly one of builtin / family / dies");
  }
  if (sys->has("builtin")) {
    reject_unknown(*sys, {"builtin"}, "system");
    s.builtin = sys->at("builtin").as_string();
    make_builtin_system(s.builtin);  // reject unknown names at load time
  } else if (sys->has("family")) {
    reject_unknown(*sys, {"family"}, "system");
    s.family = family_from_json(sys->at("family"));
    s.family_seed = static_cast<std::uint64_t>(checked_count(
        sys->at("family"), "seed", static_cast<long>(s.family_seed),
        "system.family"));
  } else {
    s.inline_system = inline_system_from_json(*sys, s.name);
  }

  s.budget = budget_from_json(json.find("budget"));
  const util::JsonValue* env = json.find("envelope");
  if (env == nullptr) fail(s.name + ": missing \"envelope\"");
  s.envelope = envelope_from_json(*env);

  s.validate();
  return s;
}

util::JsonValue family_to_json(const FamilyConfig& c) {
  util::JsonValue j = util::JsonValue::make_object();
  j.set("topology", to_string(c.topology));
  j.set("chiplets", c.chiplets);
  j.set("interposer_mm",
        util::JsonValue::Array{c.interposer_w_mm, c.interposer_h_mm});
  j.set("die_mm", util::JsonValue::Array{c.min_dim_mm, c.max_dim_mm});
  j.set("power_w", util::JsonValue::Array{c.min_power_w, c.max_power_w});
  j.set("max_aspect", c.max_aspect);
  j.set("power_skew", c.power_skew);
  j.set("wires", util::JsonValue::Array{c.min_wires, c.max_wires});
  j.set("extra_net_prob", c.extra_net_prob);
  j.set("hotspot_pairs", c.hotspot_pairs);
  j.set("hotspot_power_w", c.hotspot_power_w);
  j.set("max_utilization", c.max_utilization);
  return j;
}

util::JsonValue inline_system_to_json(const ChipletSystem& s) {
  util::JsonValue j = util::JsonValue::make_object();
  j.set("name", s.name());
  j.set("interposer_mm",
        util::JsonValue::Array{s.interposer_width(), s.interposer_height()});
  util::JsonValue dies = util::JsonValue::make_array();
  for (const Chiplet& c : s.chiplets()) {
    util::JsonValue d = util::JsonValue::make_object();
    d.set("name", c.name);
    d.set("mm", util::JsonValue::Array{c.width, c.height});
    d.set("power_w", c.power);
    dies.push_back(std::move(d));
  }
  j.set("dies", std::move(dies));
  util::JsonValue nets = util::JsonValue::make_array();
  for (const InterChipletNet& n : s.nets()) {
    nets.push_back(util::JsonValue::Array{s.chiplet(n.a).name,
                                          s.chiplet(n.b).name, n.wires});
  }
  j.set("nets", std::move(nets));
  return j;
}

util::JsonValue scenario_to_json(const Scenario& scenario) {
  scenario.validate();
  util::JsonValue j = util::JsonValue::make_object();
  j.set("name", scenario.name);
  if (!scenario.description.empty()) {
    j.set("description", scenario.description);
  }
  j.set("seed", scenario.seed);

  util::JsonValue sys = util::JsonValue::make_object();
  if (!scenario.builtin.empty()) {
    sys.set("builtin", scenario.builtin);
  } else if (scenario.family) {
    util::JsonValue fam = family_to_json(*scenario.family);
    fam.set("seed", scenario.family_seed);
    sys.set("family", std::move(fam));
  } else {
    sys = inline_system_to_json(*scenario.inline_system);
  }
  j.set("system", std::move(sys));

  const ScenarioBudget& b = scenario.budget;
  util::JsonValue budget = util::JsonValue::make_object();
  budget.set("sa_evaluations", b.sa_evaluations);
  budget.set("sa_moves_per_temperature", b.sa_moves_per_temperature);
  budget.set("sa_cooling", b.sa_cooling);
  budget.set("run_sa", b.run_sa);
  budget.set("rl_epochs", b.rl_epochs);
  budget.set("rl_episodes_per_update", b.rl_episodes_per_update);
  budget.set("rl_grid", b.rl_grid);
  budget.set("run_rl", b.run_rl);
  j.set("budget", std::move(budget));

  const ScenarioEnvelope& e = scenario.envelope;
  util::JsonValue envelope = util::JsonValue::make_object();
  envelope.set("max_temp_c", e.max_temp_c);
  envelope.set("max_wirelength_mm", e.max_wirelength_mm);
  envelope.set("min_sa_evals_per_sec", e.min_sa_evals_per_sec);
  envelope.set("min_rl_steps_per_sec", e.min_rl_steps_per_sec);
  j.set("envelope", std::move(envelope));
  return j;
}

Scenario load_scenario_file(const std::string& path) {
  util::JsonValue doc;
  try {
    doc = util::parse_json_file(path);
  } catch (const util::JsonError& e) {
    fail(e.what());  // parse_json_file errors already carry the path
  }
  try {
    return scenario_from_json(doc);
  } catch (const ScenarioError& e) {
    fail(path + ": " + e.what());
  } catch (const util::JsonError& e) {
    // Type/missing-member errors raised while reading fields.
    fail(path + ": " + e.what());
  } catch (const std::invalid_argument& e) {
    fail(path + ": " + e.what());
  }
}

void save_scenario_file(const Scenario& scenario, const std::string& path) {
  util::write_json_file(path, scenario_to_json(scenario));
}

std::vector<Scenario> load_scenario_suite(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    fail(dir + ": not a directory");
  }
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".json") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<Scenario> suite;
  std::unordered_set<std::string> names;
  for (const std::string& path : paths) {
    suite.push_back(load_scenario_file(path));
    if (!names.insert(suite.back().name).second) {
      fail(dir + ": duplicate scenario name \"" + suite.back().name + "\"");
    }
  }
  return suite;
}

}  // namespace rlplan::systems
