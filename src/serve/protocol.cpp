#include "serve/protocol.h"

#include <exception>
#include <limits>
#include <stdexcept>

#include "robust/robust.h"

namespace rlplan::serve {

namespace {

/// A request field outside what the daemon accepts; answered with
/// "bad request: <field> ...".
class BadRequest : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

std::string error_line(const std::string& message) {
  util::JsonValue out = util::JsonValue::make_object();
  out.set("ok", false);
  out.set("error", message);
  return out.dump();
}

/// request[field], or `fallback` when absent, checked to lie in [lo, hi]
/// before any cast: NaN and infinities fail too. `range` names the bounds
/// in the error.
double checked_number(const util::JsonValue& request, const char* field,
                      double fallback, double lo, double hi,
                      const char* range) {
  const double v = request.number_or(field, fallback);
  if (!(v >= lo && v <= hi)) {
    throw BadRequest(std::string(field) + " must be a number in " + range);
  }
  return v;
}

std::uint64_t parse_id(const util::JsonValue& request) {
  // Doubles hold every integer up to 2^53 exactly; job ids count up from 1.
  return static_cast<std::uint64_t>(
      checked_number(request, "id", -1.0, 0.0, 0x1p53, "[0, 2^53]"));
}

std::string unknown_job(std::uint64_t id) {
  return "unknown job id " + std::to_string(id);
}

}  // namespace

util::JsonValue job_info_to_json(const JobInfo& info) {
  util::JsonValue out = util::JsonValue::make_object();
  out.set("id", info.id);
  out.set("name", info.name);
  out.set("state", to_string(info.state));
  out.set("priority", info.priority);
  if (!info.phase.empty()) out.set("phase", info.phase);
  out.set("queued_seconds", info.queued_seconds);
  out.set("run_seconds", info.run_seconds);
  if (!info.error.empty()) out.set("error", info.error);
  return out;
}

util::JsonValue engine_stats_to_json(const EngineStats& stats) {
  util::JsonValue out = util::JsonValue::make_object();
  out.set("queue_depth", stats.queue_depth);
  out.set("running", stats.running);
  out.set("submitted", stats.submitted);
  out.set("completed", stats.completed);
  out.set("failed", stats.failed);
  out.set("cancelled", stats.cancelled);

  util::JsonValue cache = util::JsonValue::make_object();
  cache.set("hits", stats.cache.hits);
  cache.set("misses", stats.cache.misses);
  cache.set("hit_rate", stats.cache.hit_rate());
  cache.set("characterize_seconds", stats.cache.characterize_seconds);
  out.set("model_cache", std::move(cache));

  util::JsonValue warm = util::JsonValue::make_object();
  warm.set("hits", stats.warm.hits);
  warm.set("misses", stats.warm.misses);
  warm.set("stores", stats.warm.stores);
  out.set("warm_cache", std::move(warm));

  out.set("latency_p50_s", stats.latency_p50_s);
  out.set("latency_p99_s", stats.latency_p99_s);
  return out;
}

bool RequestHandler::handle_line(
    const std::string& line,
    const std::function<void(const std::string&)>& sink) {
  util::JsonValue request;
  std::string op;
  try {
    request = util::parse_json(line);
    op = request.string_or("op", "");
    if (op.empty()) throw util::JsonError("request needs an \"op\" string");
  } catch (const std::exception& e) {
    sink(error_line(std::string("bad request: ") + e.what()));
    return true;
  }

  try {
    if (op == "submit") {
      const util::JsonValue* scenario_json = request.find("scenario");
      if (scenario_json == nullptr) {
        sink(error_line("submit needs a \"scenario\" object"));
        return true;
      }
      SubmitOptions opts;
      opts.priority = static_cast<int>(checked_number(
          request, "priority", 0.0, std::numeric_limits<int>::min(),
          std::numeric_limits<int>::max(), "[-2^31, 2^31 - 1]"));
      opts.warm_start = request.bool_or("warm_start", false);
      opts.deadline_s =
          checked_number(request, "deadline_s", 0.0, 0.0,
                         std::numeric_limits<double>::max(), "[0, inf)");
      systems::Scenario scenario = systems::scenario_from_json(*scenario_json);
      const std::string name = scenario.name;
      const std::uint64_t id = engine_.submit(std::move(scenario), opts);
      util::JsonValue out = util::JsonValue::make_object();
      out.set("ok", true);
      out.set("op", "submit");
      out.set("id", id);
      out.set("name", name);
      sink(out.dump());
      return true;
    }

    if (op == "status") {
      const std::uint64_t id = parse_id(request);
      const std::optional<JobInfo> info = engine_.info(id);
      if (!info) {
        sink(error_line(unknown_job(id)));
        return true;
      }
      util::JsonValue out = util::JsonValue::make_object();
      out.set("ok", true);
      out.set("op", "status");
      out.set("job", job_info_to_json(*info));
      sink(out.dump());
      return true;
    }

    if (op == "cancel") {
      const std::uint64_t id = parse_id(request);
      const bool known = engine_.cancel(id);
      util::JsonValue out = util::JsonValue::make_object();
      out.set("ok", true);
      out.set("op", "cancel");
      out.set("id", id);
      out.set("known", known);
      sink(out.dump());
      return true;
    }

    if (op == "result") {
      const std::uint64_t id = parse_id(request);
      const bool wait = request.bool_or("wait", true);
      const bool stream_progress = request.bool_or("progress", false);
      std::optional<JobInfo> info;
      if (wait) {
        info = engine_.wait(
            id, stream_progress
                    ? std::function<void(const JobInfo&)>(
                          [&](const JobInfo& snap) {
                            util::JsonValue event =
                                util::JsonValue::make_object();
                            event.set("ok", true);
                            event.set("event", "progress");
                            event.set("id", snap.id);
                            event.set("phase", snap.phase);
                            event.set("state", to_string(snap.state));
                            sink(event.dump());
                          })
                    : std::function<void(const JobInfo&)>{});
      } else {
        info = engine_.info(id);
      }
      if (!info) {
        sink(error_line(unknown_job(id)));
        return true;
      }
      const std::optional<util::JsonValue> payload = engine_.result_json(id);
      if (!payload) {
        sink(error_line("job " + std::to_string(id) + " not finished"));
        return true;
      }
      util::JsonValue out = util::JsonValue::make_object();
      out.set("ok", true);
      out.set("op", "result");
      out.set("job", job_info_to_json(*info));
      out.set("result", *payload);
      sink(out.dump());
      return true;
    }

    if (op == "stats") {
      util::JsonValue out = util::JsonValue::make_object();
      out.set("ok", true);
      out.set("op", "stats");
      out.set("stats", engine_stats_to_json(engine_.stats()));
      sink(out.dump());
      return true;
    }

    if (op == "shutdown") {
      engine_.request_shutdown();
      util::JsonValue out = util::JsonValue::make_object();
      out.set("ok", true);
      out.set("op", "shutdown");
      sink(out.dump());
      return false;  // close this connection; the server owner tears down
    }

    sink(error_line("unknown op \"" + op + "\""));
    return true;
  } catch (const BadRequest& e) {
    sink(error_line(std::string("bad request: ") + e.what()));
    return true;
  } catch (const std::exception& e) {
    sink(error_line(std::string(op) + " failed: " + e.what()));
    return true;
  }
}

}  // namespace rlplan::serve
