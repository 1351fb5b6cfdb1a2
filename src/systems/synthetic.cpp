#include "systems/synthetic.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rlplan::systems {

namespace {
/// prefix + decimal n. Appends instead of using `const char* +
/// std::string&&`, whose inlined copy GCC 12 flags with a -Wrestrict false
/// positive (GCC bug 105329) at -O2 and up, breaking -Werror builds.
std::string numbered(std::string prefix, std::uint64_t n) {
  prefix += std::to_string(n);
  return prefix;
}
}  // namespace

SyntheticSystemGenerator::SyntheticSystemGenerator(SyntheticConfig config)
    : config_(config) {
  if (config_.min_chiplets < 2 ||
      config_.max_chiplets < config_.min_chiplets) {
    throw std::invalid_argument("SyntheticConfig: bad chiplet count range");
  }
  if (config_.min_dim_mm <= 0.0 ||
      config_.max_dim_mm < config_.min_dim_mm) {
    throw std::invalid_argument("SyntheticConfig: bad dimension range");
  }
}

ChipletSystem SyntheticSystemGenerator::generate(
    std::uint64_t seed, const std::string& name) const {
  Rng rng(seed ^ 0x53594e5448ULL);  // namespace the stream: "SYNTH"
  const auto count = static_cast<std::size_t>(rng.uniform_int(
      static_cast<std::int64_t>(config_.min_chiplets),
      static_cast<std::int64_t>(config_.max_chiplets)));

  const double interposer_area =
      config_.interposer_w_mm * config_.interposer_h_mm;
  std::vector<Chiplet> chiplets;
  chiplets.reserve(count);
  double used_area = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    // Redraw dies that would push utilization past the cap so every
    // generated instance is comfortably placeable.
    for (int attempt = 0; attempt < 64; ++attempt) {
      const double w = rng.uniform(config_.min_dim_mm, config_.max_dim_mm);
      const double h = rng.uniform(config_.min_dim_mm, config_.max_dim_mm);
      if ((used_area + w * h) / interposer_area > config_.max_utilization &&
          attempt < 63) {
        continue;
      }
      const double p = rng.uniform(config_.min_power_w, config_.max_power_w);
      chiplets.push_back({numbered("c", i), w, h, p});
      used_area += w * h;
      break;
    }
  }

  // Connectivity: random spanning tree first, then extra edges.
  std::vector<InterChipletNet> nets;
  for (std::size_t i = 1; i < chiplets.size(); ++i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(std::uint64_t{i}));
    const int wires = static_cast<int>(rng.uniform_int(
        static_cast<std::int64_t>(config_.min_wires),
        static_cast<std::int64_t>(config_.max_wires)));
    nets.push_back({j, i, wires});
  }
  for (std::size_t i = 0; i < chiplets.size(); ++i) {
    for (std::size_t j = i + 1; j < chiplets.size(); ++j) {
      if (!rng.bernoulli(config_.extra_net_prob)) continue;
      const int wires = static_cast<int>(rng.uniform_int(
          static_cast<std::int64_t>(config_.min_wires),
          static_cast<std::int64_t>(config_.max_wires)));
      nets.push_back({i, j, wires});
    }
  }

  ChipletSystem system(
      name.empty() ? numbered("synthetic-", seed) : name,
      config_.interposer_w_mm, config_.interposer_h_mm, std::move(chiplets),
      std::move(nets));
  system.validate();
  return system;
}

Floorplan random_legal_floorplan(const ChipletSystem& system, Rng& rng,
                                 int max_tries, double spacing_mm) {
  Floorplan fp(system);
  const double iw = system.interposer_width();
  const double ih = system.interposer_height();
  for (const std::size_t i : system.placement_order_by_area()) {
    const Chiplet& c = system.chiplet(i);
    bool placed = false;
    for (int t = 0; t < max_tries && !placed; ++t) {
      const Point pos{rng.uniform(0.0, std::max(iw - c.width, 0.0)),
                      rng.uniform(0.0, std::max(ih - c.height, 0.0))};
      if (fp.can_place(i, pos, false, spacing_mm)) {
        fp.place(i, pos, false);
        placed = true;
      }
    }
    if (!placed) {
      // Deterministic fallback: fine scan, left-to-right, bottom-to-top.
      constexpr std::size_t kScan = 96;
      for (std::size_t a = 0; a < kScan * kScan && !placed; ++a) {
        const Point pos{
            iw * static_cast<double>(a % kScan) / kScan,
            ih * static_cast<double>(a / kScan) / kScan};
        if (fp.can_place(i, pos, false, spacing_mm)) {
          fp.place(i, pos, false);
          placed = true;
        }
      }
    }
    if (!placed) {
      throw std::runtime_error("random_legal_floorplan: cannot place " +
                               c.name);
    }
  }
  return fp;
}

const char* to_string(NetTopology topology) {
  switch (topology) {
    case NetTopology::kRandom: return "random";
    case NetTopology::kStar: return "star";
    case NetTopology::kChain: return "chain";
    case NetTopology::kRing: return "ring";
    case NetTopology::kMesh: return "mesh";
    case NetTopology::kBipartite: return "bipartite";
  }
  return "?";
}

NetTopology net_topology_from_string(const std::string& name) {
  for (const NetTopology t :
       {NetTopology::kRandom, NetTopology::kStar, NetTopology::kChain,
        NetTopology::kRing, NetTopology::kMesh, NetTopology::kBipartite}) {
    if (name == to_string(t)) return t;
  }
  throw std::invalid_argument("unknown net topology \"" + name + "\"");
}

void validate_family_config(const FamilyConfig& c) {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("FamilyConfig: " + what);
  };
  if (c.chiplets < 2) fail("need at least 2 chiplets");
  if (c.interposer_w_mm <= 0.0 || c.interposer_h_mm <= 0.0) {
    fail("non-positive interposer");
  }
  if (c.min_dim_mm <= 0.0 || c.max_dim_mm < c.min_dim_mm) {
    fail("bad die dimension range");
  }
  if (c.max_aspect < 1.0) fail("max_aspect must be >= 1");
  if (c.min_power_w < 0.0 || c.max_power_w < c.min_power_w) {
    fail("bad power range");
  }
  if (c.power_skew < 0.0) fail("power_skew must be >= 0");
  if (c.min_wires < 1 || c.max_wires < c.min_wires) fail("bad wire range");
  if (c.extra_net_prob < 0.0 || c.extra_net_prob > 1.0) {
    fail("extra_net_prob outside [0, 1]");
  }
  if (2 * c.hotspot_pairs > c.chiplets) {
    fail("hotspot pairs exceed the die count");
  }
  if (c.hotspot_power_w < 0.0) fail("negative hotspot power");
  if (c.max_utilization <= 0.0 || c.max_utilization > 1.0) {
    fail("max_utilization outside (0, 1]");
  }
  // The widest legal die must fit the interposer, or generation can never
  // terminate legally.
  const double longest = c.max_dim_mm * std::sqrt(c.max_aspect);
  if (longest > c.interposer_w_mm || longest > c.interposer_h_mm) {
    fail("max_dim_mm at max_aspect exceeds the interposer");
  }
}

namespace {

std::vector<InterChipletNet> family_nets(const FamilyConfig& c, Rng& rng) {
  const std::size_t n = c.chiplets;
  const auto draw_wires = [&] {
    return static_cast<int>(rng.uniform_int(
        static_cast<std::int64_t>(c.min_wires),
        static_cast<std::int64_t>(c.max_wires)));
  };
  std::vector<InterChipletNet> nets;
  switch (c.topology) {
    case NetTopology::kRandom:
      for (std::size_t i = 1; i < n; ++i) {
        const auto j =
            static_cast<std::size_t>(rng.uniform_int(std::uint64_t{i}));
        nets.push_back({j, i, draw_wires()});
      }
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
          if (rng.bernoulli(c.extra_net_prob)) {
            nets.push_back({i, j, draw_wires()});
          }
        }
      }
      break;
    case NetTopology::kStar:
      for (std::size_t i = 1; i < n; ++i) nets.push_back({0, i, draw_wires()});
      break;
    case NetTopology::kChain:
      for (std::size_t i = 1; i < n; ++i) {
        nets.push_back({i - 1, i, draw_wires()});
      }
      break;
    case NetTopology::kRing:
      for (std::size_t i = 1; i < n; ++i) {
        nets.push_back({i - 1, i, draw_wires()});
      }
      if (n > 2) nets.push_back({0, n - 1, draw_wires()});
      break;
    case NetTopology::kMesh: {
      // Near-square logical grid; dies beyond rows*cols never exist because
      // cols is the ceiling, so every index < n maps to a unique cell.
      const auto rows = static_cast<std::size_t>(
          std::max(1.0, std::floor(std::sqrt(static_cast<double>(n)))));
      const std::size_t cols = (n + rows - 1) / rows;
      for (std::size_t i = 0; i < n; ++i) {
        const std::size_t r = i / cols;
        const std::size_t col = i % cols;
        if (col + 1 < cols && i + 1 < n) nets.push_back({i, i + 1, draw_wires()});
        if (r + 1 < rows && i + cols < n) {
          nets.push_back({i, i + cols, draw_wires()});
        }
      }
      break;
    }
    case NetTopology::kBipartite: {
      // Halves A = [0, split), B = [split, n). Connectivity guarantee first:
      // pairing B die k with A die k % split touches every die on both sides
      // (split <= n - split always). Then random cross edges.
      const std::size_t split = n / 2;
      const std::size_t nb = n - split;
      for (std::size_t k = 0; k < nb; ++k) {
        nets.push_back({k % split, split + k, draw_wires()});
      }
      for (std::size_t a = 0; a < split; ++a) {
        for (std::size_t b = split; b < n; ++b) {
          if (rng.bernoulli(c.extra_net_prob)) {
            nets.push_back({a, b, draw_wires()});
          }
        }
      }
      break;
    }
  }
  return nets;
}

}  // namespace

ChipletSystem generate_family(const FamilyConfig& config, std::uint64_t seed,
                              const std::string& name) {
  validate_family_config(config);
  Rng rng(seed ^ 0x46414d494cULL);  // namespace the stream: "FAMIL"
  const std::size_t n = config.chiplets;
  const double interposer_area =
      config.interposer_w_mm * config.interposer_h_mm;

  std::vector<Chiplet> chiplets;
  chiplets.reserve(n);
  double used_area = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const double scale = rng.uniform(config.min_dim_mm, config.max_dim_mm);
      const double log_a = rng.uniform(-std::log(config.max_aspect),
                                       std::log(config.max_aspect));
      const double sqrt_a = std::exp(0.5 * log_a);
      double w = scale * sqrt_a;
      double h = scale / sqrt_a;
      // A sliver draw can exceed the interposer even though the config cap
      // admits it; clamp conservatively rather than rejecting (keeps the
      // draw count seed-stable).
      w = std::min(w, config.interposer_w_mm);
      h = std::min(h, config.interposer_h_mm);
      if ((used_area + w * h) / interposer_area > config.max_utilization &&
          attempt < 63) {
        continue;
      }
      const double u = rng.uniform();
      const double power =
          config.min_power_w +
          (config.max_power_w - config.min_power_w) *
              std::pow(u, 1.0 + config.power_skew);
      chiplets.push_back({numbered("c", i), w, h, power});
      used_area += w * h;
      break;
    }
  }

  std::vector<InterChipletNet> nets = family_nets(config, rng);

  // Hotspot-adjacent pairs: pin (0,1), (2,3), ... to the hotspot power and
  // wire each pair at full width.
  const double hot_w = config.hotspot_power_w > 0.0 ? config.hotspot_power_w
                                                    : config.max_power_w;
  for (std::size_t p = 0; p < config.hotspot_pairs; ++p) {
    const std::size_t a = 2 * p;
    const std::size_t b = 2 * p + 1;
    chiplets[a].power = hot_w;
    chiplets[b].power = hot_w;
    nets.push_back({a, b, config.max_wires});
  }

  std::string system_name = name;
  if (system_name.empty()) {
    system_name = std::string("family-") + to_string(config.topology) + "-" +
                  std::to_string(n) + "-" + std::to_string(seed);
  }
  ChipletSystem system(system_name, config.interposer_w_mm,
                       config.interposer_h_mm, std::move(chiplets),
                       std::move(nets));
  system.validate();
  return system;
}

std::vector<ChipletSystem> make_table3_cases() {
  SyntheticConfig config;
  config.interposer_w_mm = 40.0;
  config.interposer_h_mm = 40.0;
  config.min_chiplets = 4;
  config.max_chiplets = 7;
  config.min_dim_mm = 5.0;
  config.max_dim_mm = 12.0;
  // Power range keeps the 40x40 mm cases in the realistic 75-95 degC window
  // under the default stack (the paper's Table III regime).
  config.min_power_w = 5.0;
  config.max_power_w = 22.0;
  const SyntheticSystemGenerator gen(config);
  std::vector<ChipletSystem> cases;
  for (int i = 1; i <= 5; ++i) {
    cases.push_back(gen.generate(100 + static_cast<std::uint64_t>(i),
                                 "Case" + std::to_string(i)));
  }
  return cases;
}

}  // namespace rlplan::systems
