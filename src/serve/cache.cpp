#include "serve/cache.h"

#include <bit>
#include <filesystem>
#include <optional>

#include "obs/metrics.h"
#include "util/log.h"
#include "util/timer.h"

namespace rlplan::serve {

namespace {

// FNV-1a, 64-bit, over the bytes of `text`.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t state = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    state ^= c;
    state *= 0x100000001b3ULL;
  }
  return state;
}

}  // namespace

CharacterizationCache::CharacterizationCache(
    thermal::LayerStack stack, thermal::CharacterizationConfig config)
    : stack_(std::move(stack)), config_(std::move(config)) {}

const thermal::FastThermalModel& CharacterizationCache::get(
    double interposer_w_mm, double interposer_h_mm) {
  const std::pair key{std::bit_cast<std::uint64_t>(interposer_w_mm),
                      std::bit_cast<std::uint64_t>(interposer_h_mm)};
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
                << interposer_h_mm << " mm (" << seconds << " s)";
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
  // instance's scenario JSON (a family's without its seed), so two scenarios
  // share a key only when they differ in the family seed alone — exactly the
  // population a shared policy generalizes over. Builtin names identify
  // their systems.
  std::string key;
  std::string instance;
  if (scenario.family.has_value()) {
    const systems::FamilyConfig& f = *scenario.family;
    key = std::string("family-") + to_string(f.topology) + "-" +
          std::to_string(f.chiplets) + "x" +
          std::to_string(static_cast<long>(f.interposer_w_mm));
    instance = systems::family_to_json(f).dump();
  } else if (!scenario.builtin.empty()) {
    key = "builtin-" + scenario.builtin;
  } else {
    key = "inline-" + scenario.name;
    if (scenario.inline_system.has_value()) {
      instance = systems::inline_system_to_json(*scenario.inline_system).dump();
    }
  }
  key += "-g" + std::to_string(scenario.budget.rl_grid);
  if (!instance.empty()) {
    constexpr char kHex[] = "0123456789abcdef";
    std::string hex(16, '0');
    std::uint64_t v = fnv1a(instance);
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
