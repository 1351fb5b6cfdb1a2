// serve — the floorplanning-as-a-service daemon.
//
// Listens on a loopback TCP socket speaking the JSONL protocol
// (serve/protocol.h): clients submit scenario-JSON jobs, poll or stream
// status, cancel mid-flight, and fetch results that are bit-identical to a
// direct `regress` run of the same scenario+seed. Jobs share the process's
// cross-request caches — thermal characterization by interposer footprint,
// and (opt-in per job) warm-start policy checkpoints by scenario family —
// which is the whole point of serving instead of cold CLI runs.
//
// Usage: serve [--host=127.0.0.1] [--port=0] [--workers=N]
//              [--warm-dir=DIR] [--port-file=PATH] [--metrics=PATH]
//
//   --port=0       bind an ephemeral port (the default; read it from stdout
//                  or --port-file, which CI uses to rendezvous)
//   --workers=N    concurrent job lanes (default: hardware concurrency)
//   --warm-dir     enables the warm-start checkpoint cache
//   --port-file    write the bound port (atomically) once listening
//   --metrics      dump the metrics registry as JSONL on shutdown
//
// Shutdown: SIGTERM/SIGINT or a protocol {"op":"shutdown"} request — both
// drain to the same path: stop accepting, cancel in-flight jobs
// cooperatively, join everything, exit 0. CI's serve-smoke gate asserts that
// exit status.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "bench/bench_util.h"
#include "obs/metrics.h"
#include "robust/robust.h"
#include "serve/engine.h"
#include "serve/server.h"
#include "thermal/layer_stack.h"
#include "util/fs.h"
#include "util/log.h"

using namespace rlplan;

int main(int argc, char** argv) {
  const std::string host = bench::flag_str(argc, argv, "host", "127.0.0.1");
  // Parsed into the stored types: --port=70000 or --workers=-1 exits 2.
  const auto port = bench::flag_int<std::uint16_t>(argc, argv, "port", 0);
  const auto workers = bench::flag_int<std::size_t>(argc, argv, "workers", 0);
  const std::string warm_dir = bench::flag_str(argc, argv, "warm-dir", "");
  const std::string port_file = bench::flag_str(argc, argv, "port-file", "");
  const std::string metrics_path = bench::flag_str(argc, argv, "metrics", "");

  const robust::CancelToken signal_token = robust::CancelToken::create();
  robust::install_signal_cancel(signal_token);

  serve::ServeEngineConfig config;
  config.workers = workers;
  config.runner.warm_dir = warm_dir;

  try {
    serve::ServeEngine engine(thermal::LayerStack::default_2p5d(), config);
    serve::JsonlServer server(engine, {host, port});
    server.start();

    std::fprintf(stdout, "serve: listening on %s:%u (%zu workers)\n",
                 host.c_str(), static_cast<unsigned>(server.port()),
                 engine.workers());
    std::fflush(stdout);
    if (!port_file.empty()) {
      util::atomic_write_file(port_file,
                              std::to_string(server.port()) + "\n");
    }

    // Park until a signal or a protocol shutdown request. Both are edge
    // signals observed here — the single place that owns teardown order.
    while (!signal_token.cancelled() && !engine.shutdown_requested()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    const char* why = engine.shutdown_requested() ? "protocol request"
                                                  : "signal";
    std::fprintf(stderr, "serve: shutting down (%s)\n", why);
    server.stop();
    engine.shutdown();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "serve: fatal: %s\n", e.what());
    return 1;
  }

  if (!metrics_path.empty()) {
    obs::MetricsRegistry::instance().write_jsonl(metrics_path);
    std::fprintf(stderr, "serve: wrote metrics to %s\n",
                 metrics_path.c_str());
  }
  std::fprintf(stderr, "serve: clean shutdown\n");
  return 0;
}
