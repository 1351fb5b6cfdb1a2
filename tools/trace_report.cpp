// Offline profile of a Chrome trace produced by the obs layer:
//
//   trace_report --trace=trace.json [--top=30]
//
// Prints per-span-name total time (sum of span durations), self time (total
// minus time spent in spans nested inside on the same thread), call count,
// and averages — "where did this run's 40 s go" as one table, sorted by self
// time — plus a rollup by span family (the prefix before the first '.').
// Works on any trace_event JSON containing "X" (complete) events with
// ts/dur/tid fields, so traces from other tools load too.
//
// Exits 2 on a missing/unparseable trace and 1 on a trace with no events
// (a traced run that recorded nothing is almost always a bug — tracing was
// never enabled).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "util/json.h"

namespace {

using rlplan::util::JsonValue;

struct Event {
  std::string name;
  double ts_us = 0.0;
  double dur_us = 0.0;
  int tid = 0;
  double child_us = 0.0;  // filled by the nesting sweep
};

struct NameAgg {
  std::uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};

std::string family_of(const std::string& name) {
  const std::size_t dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

/// Computes per-event child time with a per-thread stack sweep. Events must
/// be sorted by (ts asc, end desc) so a parent always precedes its children.
void compute_nesting(std::vector<Event>& events) {
  std::map<int, std::vector<Event*>> stacks;  // tid -> open-span stack
  for (Event& e : events) {
    auto& stack = stacks[e.tid];
    while (!stack.empty() &&
           stack.back()->ts_us + stack.back()->dur_us <= e.ts_us) {
      stack.pop_back();
    }
    if (!stack.empty()) stack.back()->child_us += e.dur_us;
    stack.push_back(&e);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path =
      rlplan::bench::flag_str(argc, argv, "trace", "trace.json");
  const auto top = rlplan::bench::flag_int<std::size_t>(argc, argv, "top", 30);

  JsonValue root;
  try {
    root = rlplan::util::parse_json_file(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[trace_report] %s\n", e.what());
    return 2;
  }
  const JsonValue* trace_events = root.find("traceEvents");
  if (trace_events == nullptr || !trace_events->is_array()) {
    std::fprintf(stderr, "[trace_report] %s has no traceEvents array\n",
                 path.c_str());
    return 2;
  }

  std::vector<Event> events;
  events.reserve(trace_events->as_array().size());
  for (const JsonValue& row : trace_events->as_array()) {
    if (!row.is_object() || row.string_or("ph", "X") != "X") continue;
    Event e;
    e.name = row.string_or("name", "?");
    e.ts_us = row.number_or("ts", 0.0);
    e.dur_us = row.number_or("dur", 0.0);
    e.tid = static_cast<int>(row.number_or("tid", 0.0));
    events.push_back(std::move(e));
  }
  if (events.empty()) {
    std::fprintf(stderr, "[trace_report] %s contains no complete events\n",
                 path.c_str());
    return 1;
  }

  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
    return a.dur_us > b.dur_us;  // parents before equal-start children
  });
  compute_nesting(events);

  std::map<std::string, NameAgg> by_name;
  std::map<std::string, NameAgg> by_family;
  double wall_lo = events.front().ts_us, wall_hi = 0.0;
  for (const Event& e : events) {
    const double self = std::max(e.dur_us - e.child_us, 0.0);
    NameAgg& n = by_name[e.name];
    ++n.count;
    n.total_us += e.dur_us;
    n.self_us += self;
    NameAgg& f = by_family[family_of(e.name)];
    ++f.count;
    f.total_us += e.dur_us;
    f.self_us += self;
    wall_hi = std::max(wall_hi, e.ts_us + e.dur_us);
  }

  std::vector<std::pair<std::string, NameAgg>> rows(by_name.begin(),
                                                    by_name.end());
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_us > b.second.self_us;
  });

  std::printf("trace: %s  (%zu events, %zu span names, %.1f ms wall)\n\n",
              path.c_str(), events.size(), rows.size(),
              (wall_hi - wall_lo) / 1e3);
  std::printf("%-36s %9s %11s %11s %10s\n", "span", "count", "total(ms)",
              "self(ms)", "avg(us)");
  for (std::size_t i = 0; i < rows.size() && i < top; ++i) {
    const auto& [name, agg] = rows[i];
    std::printf("%-36s %9llu %11.2f %11.2f %10.1f\n", name.c_str(),
                static_cast<unsigned long long>(agg.count), agg.total_us / 1e3,
                agg.self_us / 1e3,
                agg.total_us / static_cast<double>(agg.count));
  }
  if (rows.size() > top) {
    std::printf("... (%zu more; raise --top)\n", rows.size() - top);
  }

  std::printf("\n%-36s %9s %11s %11s\n", "family", "count", "total(ms)",
              "self(ms)");
  std::vector<std::pair<std::string, NameAgg>> fams(by_family.begin(),
                                                    by_family.end());
  std::sort(fams.begin(), fams.end(), [](const auto& a, const auto& b) {
    return a.second.self_us > b.second.self_us;
  });
  for (const auto& [name, agg] : fams) {
    std::printf("%-36s %9llu %11.2f %11.2f\n", name.c_str(),
                static_cast<unsigned long long>(agg.count), agg.total_us / 1e3,
                agg.self_us / 1e3);
  }
  return 0;
}
