#include "serve/cache.h"

#include <cstring>
#include <filesystem>
#include <optional>

#include "obs/metrics.h"
#include "util/log.h"
#include "util/timer.h"

namespace rlplan::serve {

namespace {

// FNV-1a, 64-bit. A streaming digest over the exact bit patterns of the
// inputs: doubles hash by their IEEE-754 image (so 0.0 != -0.0, which is
// fine — equal *constructions* produce equal keys, and nothing constructs
// negative zeros), strings by their bytes plus a terminator so adjacent
// fields cannot alias ("ab"+"c" vs "a"+"bc").
struct Fnv1a {
  std::uint64_t state = 0xcbf29ce484222325ULL;

  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      state ^= p[i];
      state *= 0x100000001b3ULL;
    }
  }
  void f64(double v) {
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    bytes(&bits, sizeof(bits));
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void boolean(bool v) { u64(v ? 1 : 0); }
  void str(const std::string& s) {
    bytes(s.data(), s.size());
    const unsigned char terminator = 0xff;
    bytes(&terminator, 1);
  }
};

void hash_material(Fnv1a& h, const thermal::Material& m) {
  h.str(m.name);
  h.f64(m.conductivity);
}

}  // namespace

std::uint64_t layer_stack_hash(const thermal::LayerStack& stack) {
  Fnv1a h;
  h.u64(stack.num_layers());
  for (const thermal::Layer& layer : stack.layers()) {
    h.str(layer.name);
    h.f64(layer.thickness);
    hash_material(h, layer.material);
    h.boolean(layer.is_chiplet_layer);
  }
  hash_material(h, stack.fill_material());
  h.f64(stack.h_top());
  h.f64(stack.h_bottom());
  h.f64(stack.ambient_c());
  return h.state;
}

std::uint64_t characterization_key(std::uint64_t stack_hash,
                                   const thermal::CharacterizationConfig& cc,
                                   double interposer_w_mm,
                                   double interposer_h_mm) {
  Fnv1a h;
  h.u64(stack_hash);
  h.u64(cc.solver.dims.rows);
  h.u64(cc.solver.dims.cols);
  h.u64(cc.auto_axis_points);
  h.boolean(cc.geometric_axes);
  h.u64(cc.position_points);
  h.u64(static_cast<std::uint64_t>(cc.model_config.source_subsamples));
  h.u64(static_cast<std::uint64_t>(cc.model_config.receiver_probes));
  h.boolean(cc.model_config.use_images);
  h.f64(interposer_w_mm);
  h.f64(interposer_h_mm);
  return h.state;
}

CharacterizationCache::CharacterizationCache(
    thermal::LayerStack stack, thermal::CharacterizationConfig config)
    : stack_(std::move(stack)), config_(std::move(config)) {
  stack_hash_ = layer_stack_hash(stack_);
}

const thermal::FastThermalModel& CharacterizationCache::get(
    double interposer_w_mm, double interposer_h_mm) {
  const std::uint64_t key = characterization_key(
      stack_hash_, config_, interposer_w_mm, interposer_h_mm);
  Entry* entry;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    entry = &entries_[key];
  }
  bool characterized = false;
  std::call_once(entry->once, [&] {
    const Timer timer;
    thermal::ThermalCharacterizer charac(stack_, config_);
    entry->model.emplace(charac.characterize(interposer_w_mm,
                                             interposer_h_mm));
    characterized = true;
    const double seconds = timer.seconds();
    characterize_ns_.fetch_add(static_cast<std::uint64_t>(seconds * 1e9),
                               std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    RLPLAN_COUNTER_INC("serve.cache.miss");
    RLPLAN_INFO << "characterized " << interposer_w_mm << "x"
                << interposer_h_mm << " mm (" << seconds << " s, key "
                << key << ")";
  });
  if (!characterized) {
    // Includes threads that waited on another thread's in-flight
    // characterization: the work was shared, which is the cache's point.
    hits_.fetch_add(1, std::memory_order_relaxed);
    RLPLAN_COUNTER_INC("serve.cache.hit");
  }
  return *entry->model;
}

std::size_t CharacterizationCache::entries() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

CharacterizationCacheStats CharacterizationCache::stats() const {
  CharacterizationCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.characterize_seconds =
      static_cast<double>(characterize_ns_.load(std::memory_order_relaxed)) *
      1e-9;
  return s;
}

std::string scenario_family_key(const systems::Scenario& scenario) {
  // A readable prefix, then for families and inline systems a digest of the
  // exact values that define the instance, so two scenarios share a key only
  // when they differ in the family seed alone — exactly the population a
  // shared policy generalizes over. Builtin names identify their systems.
  std::string key;
  std::optional<Fnv1a> digest;
  if (scenario.family.has_value()) {
    const systems::FamilyConfig& f = *scenario.family;
    key = std::string("family-") + to_string(f.topology) + "-" +
          std::to_string(f.chiplets) + "x" +
          std::to_string(static_cast<long>(f.interposer_w_mm));
    Fnv1a& h = digest.emplace();
    h.u64(f.chiplets);
    h.f64(f.interposer_w_mm);
    h.f64(f.interposer_h_mm);
    h.f64(f.min_dim_mm);
    h.f64(f.max_dim_mm);
    h.f64(f.max_aspect);
    h.f64(f.min_power_w);
    h.f64(f.max_power_w);
    h.f64(f.power_skew);
    h.u64(static_cast<std::uint64_t>(f.topology));
    h.u64(static_cast<std::uint64_t>(f.min_wires));
    h.u64(static_cast<std::uint64_t>(f.max_wires));
    h.f64(f.extra_net_prob);
    h.u64(f.hotspot_pairs);
    h.f64(f.hotspot_power_w);
    h.f64(f.max_utilization);
  } else if (!scenario.builtin.empty()) {
    key = "builtin-" + scenario.builtin;
  } else {
    key = "inline-" + scenario.name;
    if (scenario.inline_system.has_value()) {
      const ChipletSystem& sys = *scenario.inline_system;
      Fnv1a& h = digest.emplace();
      h.f64(sys.interposer_width());
      h.f64(sys.interposer_height());
      h.u64(sys.num_chiplets());
      for (const Chiplet& c : sys.chiplets()) {
        h.str(c.name);
        h.f64(c.width);
        h.f64(c.height);
        h.f64(c.power);
      }
      h.u64(sys.nets().size());
      for (const InterChipletNet& n : sys.nets()) {
        h.u64(n.a);
        h.u64(n.b);
        h.u64(static_cast<std::uint64_t>(n.wires));
      }
    }
  }
  key += "-g" + std::to_string(scenario.budget.rl_grid);
  if (digest) {
    constexpr char kHex[] = "0123456789abcdef";
    std::string hex(16, '0');
    std::uint64_t v = digest->state;
    for (std::size_t i = hex.size(); i-- > 0; v >>= 4) hex[i] = kHex[v & 0xf];
    key += "-" + hex;
  }
  for (char& c : key) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                    c == '-';
    if (!ok) c = '_';
  }
  return key;
}

WarmStartCache::WarmStartCache(std::string dir) : dir_(std::move(dir)) {}

std::optional<std::string> WarmStartCache::lookup(
    const std::string& family_key) {
  if (!enabled()) return std::nullopt;
  const std::string path = dir_ + "/" + family_key + ".ckpt";
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) || ec) return std::nullopt;
  return path;
}

std::string WarmStartCache::store_path(const std::string& family_key) {
  if (!enabled()) return {};
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);  // best effort; save reports
  return dir_ + "/" + family_key + ".ckpt";
}

WarmStartCacheStats WarmStartCache::stats() const {
  WarmStartCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.stores = stores_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace rlplan::serve
