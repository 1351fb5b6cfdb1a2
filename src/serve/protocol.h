// JSONL request protocol — the daemon's wire surface, transport-free.
//
// One request per line, one JSON object per response line; "result" requests
// may stream progress-event lines before the final response. Keeping the
// handler independent of sockets means the protocol tests drive it with
// plain strings (no ports, no timing) and the TCP server (serve/server.h)
// stays a dumb line pump.
//
// Requests ({"op": ...}):
//   submit   {op, scenario:{...}, priority?, warm_start?, deadline_s?}
//            -> {ok:true, op:"submit", id, name}
//            The scenario object uses the exact schema of scenario files
//            (systems/scenario.h scenario_from_json).
//   status   {op, id} -> {ok:true, op:"status", job:{...}}
//   cancel   {op, id} -> {ok:true, op:"cancel", id, known:bool}
//   result   {op, id, wait?:bool=true, progress?:bool=false}
//            -> with wait: blocks until terminal; progress:true first
//               streams {ok:true, event:"progress", id, phase, state} lines.
//            -> {ok:true, op:"result", job:{...}, result:{...}}
//               (result payload = run_result_to_json; {} for jobs cancelled
//               before running). Without wait, a non-terminal job answers
//               {ok:false, error:"job N not finished"}.
//   stats    {op} -> {ok:true, op:"stats", stats:{...}}
//   shutdown {op} -> {ok:true, op:"shutdown"} and the connection closes;
//            the transport owner observes ServeEngine::shutdown_requested().
//
// Every error is {ok:false, error:"..."} — malformed JSON, unknown op,
// unknown id, bad scenario. An id outside [0, 2^53], a priority outside
// int's range or a negative deadline_s is "bad request: <field> ...".
// Errors never kill the connection; only "shutdown" (or the client hanging
// up) does.
#pragma once

#include <cstddef>
#include <functional>
#include <string>

#include "serve/engine.h"
#include "util/json.h"

namespace rlplan::serve {

/// Hard cap on one request line, enforced by the server's framing layer
/// before parsing (a peer streaming an unbounded line must not OOM the
/// daemon). Scenario JSON is the largest legitimate payload; 1 MiB is ~100x
/// the biggest suite scenario.
inline constexpr std::size_t kMaxLineBytes = 1 << 20;

util::JsonValue job_info_to_json(const JobInfo& info);
util::JsonValue engine_stats_to_json(const EngineStats& stats);

/// Stateless per-connection request interpreter over a shared engine.
class RequestHandler {
 public:
  explicit RequestHandler(ServeEngine& engine) : engine_(engine) {}

  /// Handles one request line, emitting response line(s) — WITHOUT trailing
  /// newline — through `sink`. Returns false when the connection should
  /// close (a "shutdown" request); true to keep serving. Never throws.
  bool handle_line(const std::string& line,
                   const std::function<void(const std::string&)>& sink);

 private:
  ServeEngine& engine_;
};

}  // namespace rlplan::serve
