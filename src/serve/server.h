// JSONL-over-TCP transport for the serve daemon.
//
// A deliberately thin layer: accept connections on a loopback (by default)
// socket, split the byte stream into newline-framed request lines under the
// kMaxLineBytes cap, and feed each line to a per-connection RequestHandler.
// All protocol intelligence lives in serve/protocol.*; all scheduling lives
// in serve/engine.*.
//
// Threading: one accept thread plus one thread per live connection (the
// daemon's concurrency ceiling is the engine's worker lanes, not connection
// count — a connection thread spends its life blocked on read() or inside
// ServeEngine::wait()). stop() shuts the listen socket and every live
// connection down, then joins all threads; it is idempotent and safe to call
// from a signal-driven path.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.h"

namespace rlplan::serve {

struct ServerConfig {
  std::string host = "127.0.0.1";  ///< bind address (loopback by default)
  std::uint16_t port = 0;          ///< 0 = ephemeral (read back via port())
};

class JsonlServer {
 public:
  JsonlServer(ServeEngine& engine, ServerConfig config = {});
  ~JsonlServer();  ///< implies stop()

  JsonlServer(const JsonlServer&) = delete;
  JsonlServer& operator=(const JsonlServer&) = delete;

  /// Binds, listens, and starts the accept thread. Throws std::runtime_error
  /// (with errno text) on bind/listen failure.
  void start();

  /// The bound port — the ephemeral port when config.port was 0. Valid after
  /// start().
  std::uint16_t port() const { return port_; }

  /// Closes the listen socket, hangs up every live connection, joins all
  /// threads. Idempotent.
  void stop();

 private:
  void accept_loop();
  void connection_loop(int fd);

  ServeEngine& engine_;
  ServerConfig config_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};

  std::mutex conn_mutex_;
  std::vector<int> conn_fds_;            ///< live connection sockets
  std::vector<std::thread> conn_threads_;
};

}  // namespace rlplan::serve
