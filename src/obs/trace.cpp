#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/metrics.h"
#include "util/json.h"
#include "util/stats.h"

namespace rlplan::obs {

namespace detail {
std::atomic<bool> g_trace_enabled{false};
}  // namespace detail

void set_trace_enabled(bool enabled) {
  detail::g_trace_enabled.store(enabled, std::memory_order_relaxed);
}

void set_enabled(bool enabled) {
  set_trace_enabled(enabled);
  set_metrics_enabled(enabled);
}

namespace {

// Every field is an atomic written by the owning thread with relaxed order
// and read by the exporter; the slot may be concurrently overwritten on ring
// wrap during export, which at worst yields one torn *event* (not torn
// memory) in a diagnostic stream.
struct EventSlot {
  std::atomic<const char*> name{nullptr};
  std::atomic<std::uint64_t> begin_ns{0};
  std::atomic<std::uint64_t> end_ns{0};
  std::atomic<std::int64_t> arg{kNoArg};
};

// Events per thread's ring: 65536 slots of 32 bytes, 2 MiB a thread.
constexpr std::size_t kRingCapacity = std::size_t{1} << 16;

struct TraceRing {
  explicit TraceRing(int tid_)
      : slots(new EventSlot[kRingCapacity]), tid(tid_) {}

  std::unique_ptr<EventSlot[]> slots;
  int tid;
  // Total events ever pushed; head % kRingCapacity is the next write slot.
  std::atomic<std::uint64_t> head{0};
};

struct TraceState {
  std::mutex mutex;
  std::vector<std::unique_ptr<TraceRing>> rings;
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
};

TraceState& state() {
  // Leaked: threads may record spans during static destruction.
  static TraceState* s = new TraceState();
  return *s;
}

TraceRing& local_ring() {
  thread_local TraceRing* cached = nullptr;
  if (cached == nullptr) {
    TraceState& s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    const int tid = static_cast<int>(s.rings.size()) + 1;
    s.rings.push_back(std::make_unique<TraceRing>(tid));
    cached = s.rings.back().get();
  }
  return *cached;
}

struct CollectedEvent {
  const char* name;
  std::uint64_t begin_ns;
  std::uint64_t end_ns;
  std::int64_t arg;
  int tid;
};

std::vector<CollectedEvent> collect_events() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  std::vector<CollectedEvent> out;
  for (const auto& ring : s.rings) {
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::uint64_t n = std::min<std::uint64_t>(head, kRingCapacity);
    for (std::uint64_t i = head - n; i < head; ++i) {
      const EventSlot& slot = ring->slots[i % kRingCapacity];
      const char* name = slot.name.load(std::memory_order_relaxed);
      if (name == nullptr) continue;
      out.push_back({name, slot.begin_ns.load(std::memory_order_relaxed),
                     slot.end_ns.load(std::memory_order_relaxed),
                     slot.arg.load(std::memory_order_relaxed), ring->tid});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const CollectedEvent& a, const CollectedEvent& b) {
              if (a.begin_ns != b.begin_ns) return a.begin_ns < b.begin_ns;
              return a.end_ns > b.end_ns;  // parents before children
            });
  return out;
}

std::string g_trace_out_path;    // set by RLPLANNER_TRACE_OUT
std::string g_metrics_out_path;  // set by RLPLANNER_METRICS_OUT

void at_exit_export() {
  if (!g_trace_out_path.empty()) {
    try {
      write_chrome_trace(g_trace_out_path);
    } catch (...) {
    }
  }
  if (!g_metrics_out_path.empty()) {
    try {
      MetricsRegistry::instance().write_jsonl(g_metrics_out_path);
    } catch (...) {
    }
  }
}

bool env_truthy(const char* value) {
  return value != nullptr && value[0] != '\0' &&
         !(value[0] == '0' && value[1] == '\0');
}

struct EnvInit {
  EnvInit() {
    state();  // pin the epoch before any span
    bool enable = env_truthy(std::getenv("RLPLANNER_TRACE"));
    if (const char* out = std::getenv("RLPLANNER_TRACE_OUT");
        out != nullptr && out[0] != '\0') {
      g_trace_out_path = out;
      enable = true;
    }
    if (const char* out = std::getenv("RLPLANNER_METRICS_OUT");
        out != nullptr && out[0] != '\0') {
      g_metrics_out_path = out;
      enable = true;
    }
    if (enable) set_enabled(true);
    if (!g_trace_out_path.empty() || !g_metrics_out_path.empty()) {
      std::atexit(&at_exit_export);
    }
  }
};
const EnvInit g_env_init;

}  // namespace

namespace detail {

std::uint64_t trace_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - state().epoch)
          .count());
}

void record_span(const char* name, std::uint64_t begin_ns,
                 std::uint64_t end_ns, std::int64_t arg) {
  TraceRing& ring = local_ring();
  const std::uint64_t head = ring.head.load(std::memory_order_relaxed);
  EventSlot& slot = ring.slots[head % kRingCapacity];
  slot.name.store(name, std::memory_order_relaxed);
  slot.begin_ns.store(begin_ns, std::memory_order_relaxed);
  slot.end_ns.store(end_ns, std::memory_order_relaxed);
  slot.arg.store(arg, std::memory_order_relaxed);
  ring.head.store(head + 1, std::memory_order_release);
}

}  // namespace detail

TraceStats trace_stats() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  TraceStats stats;
  stats.threads = s.rings.size();
  for (const auto& ring : s.rings) {
    const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
    stats.recorded += std::min<std::uint64_t>(head, kRingCapacity);
    stats.dropped += head > kRingCapacity ? head - kRingCapacity : 0;
  }
  return stats;
}

void reset_trace() {
  TraceState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  for (const auto& ring : s.rings) {
    // Clear names first so a concurrent exporter skips stale slots.
    for (std::size_t i = 0; i < kRingCapacity; ++i) {
      ring->slots[i].name.store(nullptr, std::memory_order_relaxed);
    }
    ring->head.store(0, std::memory_order_release);
  }
}

util::JsonValue chrome_trace_json() {
  const std::vector<CollectedEvent> events = collect_events();
  util::JsonValue trace_events = util::JsonValue::make_array();
  for (const CollectedEvent& e : events) {
    util::JsonValue row = util::JsonValue::make_object();
    row.set("name", e.name);
    // Family prefix ("thermal.evaluate" -> "thermal") doubles as the Chrome
    // category so families can be toggled in the viewer.
    const std::string name(e.name);
    const std::size_t dot = name.find('.');
    row.set("cat", dot == std::string::npos ? name : name.substr(0, dot));
    row.set("ph", "X");
    row.set("ts", static_cast<double>(e.begin_ns) / 1e3);
    row.set("dur", static_cast<double>(e.end_ns - e.begin_ns) / 1e3);
    row.set("pid", 1);
    row.set("tid", e.tid);
    if (e.arg != kNoArg) {
      util::JsonValue args = util::JsonValue::make_object();
      args.set("v", static_cast<double>(e.arg));
      row.set("args", std::move(args));
    }
    trace_events.push_back(std::move(row));
  }
  util::JsonValue root = util::JsonValue::make_object();
  root.set("displayTimeUnit", "ms");
  root.set("traceEvents", std::move(trace_events));
  return root;
}

void write_chrome_trace(const std::string& path) {
  util::write_json_file(path, chrome_trace_json(), 0);
}

util::JsonValue trace_summary_json() {
  const std::vector<CollectedEvent> events = collect_events();
  std::map<std::string, RunningStats> by_name;
  for (const CollectedEvent& e : events) {
    by_name[e.name].add(static_cast<double>(e.end_ns - e.begin_ns) / 1e3);
  }
  util::JsonValue arr = util::JsonValue::make_array();
  for (const auto& [name, stats] : by_name) {
    util::JsonValue row = util::JsonValue::make_object();
    row.set("name", name);
    row.set("count", static_cast<double>(stats.count()));
    row.set("total_ms", stats.sum() / 1e3);
    row.set("mean_us", stats.mean());
    row.set("min_us", stats.min());
    row.set("max_us", stats.max());
    arr.push_back(std::move(row));
  }
  return arr;
}

}  // namespace rlplan::obs
