// Scoped trace spans on per-thread ring buffers, exported as Chrome
// trace_event JSON.
//
//   void FastThermalModel::evaluate(...) {
//     RLPLAN_TRACE_SPAN("thermal.evaluate");
//     ...
//   }
//
// The RAII span records begin/end timestamps (steady_clock nanoseconds
// relative to a process-wide epoch) into a ring of 65536 events (2 MiB)
// owned by the current thread — no locks, no allocation on the hot path, and
// a single relaxed atomic load when tracing is disabled. When a ring wraps,
// the oldest events are overwritten and counted as dropped (trace_stats()).
//
// Span names must be string literals (or otherwise outlive the process): the
// ring stores the pointer, not a copy. Naming follows the metrics convention:
// "<family>.<detail>" with family in {"thermal", "sa", "rl", "pool", ...}.
//
// Export targets:
//   * write_chrome_trace(path)  — chrome://tracing / Perfetto "traceEvents"
//     JSON ("X" complete events, ts/dur in microseconds).
//   * trace_summary_json()      — one aggregated row per span name (count,
//     total/mean/min/max duration); perfbench reads its layer times here.
//   * tools/trace_report        — offline self-time/total-time profile.
//
// Environment hooks (read once at static-init time, so existing binaries can
// be traced without new flags):
//   RLPLANNER_TRACE=1            enable tracing + metrics for the process.
//   RLPLANNER_TRACE_OUT=f.json   enable and write a Chrome trace at exit.
//   RLPLANNER_METRICS_OUT=f.jsonl enable and write a metrics JSONL at exit.
//
// Determinism contract: spans only read clocks and write telemetry buffers;
// they never feed back into any computation, so enabling tracing cannot
// change optimizer outputs (CI runs the differential suites with
// RLPLANNER_TRACE=1 to keep this true).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>

namespace rlplan::util {
class JsonValue;
}

namespace rlplan::obs {

namespace detail {
extern std::atomic<bool> g_trace_enabled;
std::uint64_t trace_now_ns();
void record_span(const char* name, std::uint64_t begin_ns,
                 std::uint64_t end_ns, std::int64_t arg);
}  // namespace detail

inline bool trace_enabled() {
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
}
void set_trace_enabled(bool enabled);

/// Convenience: flips tracing AND metrics together (the usual way telemetry
/// is switched on by tool flags).
void set_enabled(bool enabled);

/// Sentinel for "span has no argument tag".
inline constexpr std::int64_t kNoArg =
    std::numeric_limits<std::int64_t>::min();

/// RAII span. Cost when disabled: one relaxed load. Cost when enabled: two
/// steady_clock reads plus one ring-slot write (~50 ns).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, std::int64_t arg = kNoArg) {
    if (!trace_enabled()) return;
    name_ = name;
    arg_ = arg;
    begin_ns_ = detail::trace_now_ns();
  }
  ~TraceSpan() {
    if (name_ != nullptr) {
      detail::record_span(name_, begin_ns_, detail::trace_now_ns(), arg_);
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;  // nullptr => tracing was off at entry
  std::uint64_t begin_ns_ = 0;
  std::int64_t arg_ = 0;
};

struct TraceStats {
  std::uint64_t recorded = 0;  // spans currently held in rings
  std::uint64_t dropped = 0;   // overwritten by ring wrap-around
  std::size_t threads = 0;     // rings (threads that recorded >= 1 span)
};
TraceStats trace_stats();

/// Drops all buffered events (thread registrations stay).
void reset_trace();

/// {"traceEvents": [...]} with "X" (complete) events — load in
/// chrome://tracing or https://ui.perfetto.dev. Events carry pid 1 and a
/// small sequential tid per recording thread.
util::JsonValue chrome_trace_json();
void write_chrome_trace(const std::string& path);

/// Aggregated per-name rows: name, count, total_ms, mean_us, min_us, max_us.
util::JsonValue trace_summary_json();

}  // namespace rlplan::obs

#define RLPLAN_TRACE_CONCAT2(a, b) a##b
#define RLPLAN_TRACE_CONCAT(a, b) RLPLAN_TRACE_CONCAT2(a, b)

/// RLPLAN_TRACE_SPAN("family.name") or RLPLAN_TRACE_SPAN("family.name", arg)
/// where arg is an int64 tag exported as args.v in the Chrome trace.
#define RLPLAN_TRACE_SPAN(...)                                       \
  const ::rlplan::obs::TraceSpan RLPLAN_TRACE_CONCAT(                \
      rlplan_trace_span_, __COUNTER__) {                             \
    __VA_ARGS__                                                      \
  }
