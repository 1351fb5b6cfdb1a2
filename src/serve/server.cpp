#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "obs/metrics.h"
#include "util/log.h"

namespace rlplan::serve {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Writes the whole buffer, retrying partial writes. MSG_NOSIGNAL: a peer
/// that hung up must surface as an error return, not SIGPIPE.
bool send_all(int fd, const char* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t sent = ::send(fd, data + off, n - off, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(sent);
  }
  return true;
}

bool send_line(int fd, const std::string& line) {
  std::string framed = line;
  framed.push_back('\n');
  return send_all(fd, framed.data(), framed.size());
}

}  // namespace

JsonlServer::JsonlServer(ServeEngine& engine, ServerConfig config)
    : engine_(engine), config_(std::move(config)) {}

JsonlServer::~JsonlServer() { stop(); }

void JsonlServer::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("bad bind address: " + config_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = saved;
    throw_errno("bind " + config_.host + ":" + std::to_string(config_.port));
  }
  if (::listen(listen_fd_, 64) < 0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    errno = saved;
    throw_errno("listen");
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) <
      0) {
    throw_errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);
  RLPLAN_INFO << "serve: listening on " << config_.host << ":" << port_;

  accept_thread_ = std::thread([this] { accept_loop(); });
}

void JsonlServer::stop() {
  if (stopping_.exchange(true)) {
    if (accept_thread_.joinable()) accept_thread_.join();
    return;
  }
  if (listen_fd_ >= 0) {
    // shutdown() wakes the blocked accept() (EINVAL on Linux); the fd stays
    // open until the accept thread joins so its number cannot be recycled
    // under a still-running accept() call.
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  {
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Connection threads are only ever joined here: finished ones join
  // instantly, live ones were just woken by the shutdown() above. (Thread
  // objects accumulate until stop() — fine for a daemon whose connection
  // count is client-scale, and it keeps every join on one path.)
  std::vector<std::thread> threads;
  {
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    threads.swap(conn_threads_);
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
}

void JsonlServer::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // stop() shut the listen socket down (or a transient accept failure
      // raced with teardown) — either way, no more connections.
      if (stopping_.load(std::memory_order_relaxed)) return;
      if (errno == ECONNABORTED) continue;
      RLPLAN_WARN << "serve: accept failed: " << std::strerror(errno);
      return;
    }
    // Checked under the lock stop() takes before it shuts every registered
    // connection down: a connection registers before that sweep (and is
    // shut down by it) or sees stopping_ and is never registered.
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    if (stopping_.load(std::memory_order_relaxed)) {
      ::close(fd);
      return;
    }
    RLPLAN_COUNTER_INC("serve.connections");
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { connection_loop(fd); });
  }
}

void JsonlServer::connection_loop(int fd) {
  RequestHandler handler(engine_);
  const auto sink = [fd](const std::string& line) { send_line(fd, line); };

  std::string buffer;
  char chunk[4096];
  bool keep_alive = true;
  bool overflowed = false;
  while (keep_alive && !overflowed) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // peer hung up, or stop() shut us down
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = buffer.find('\n', start);
      if (nl == std::string::npos) break;
      std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.size() > kMaxLineBytes) {
        send_line(fd, "{\"ok\":false,\"error\":\"request line exceeds " +
                          std::to_string(kMaxLineBytes) + " bytes\"}");
        overflowed = true;
        break;
      }
      if (line.empty()) continue;  // blank keep-alive lines are fine
      if (!handler.handle_line(line, sink)) {
        keep_alive = false;
        break;
      }
    }
    buffer.erase(0, start);
    if (buffer.size() > kMaxLineBytes) {
      // An unterminated line already past the cap: reject before buffering
      // more — this is the OOM guard, not a formality.
      send_line(fd, "{\"ok\":false,\"error\":\"request line exceeds " +
                        std::to_string(kMaxLineBytes) + " bytes\"}");
      overflowed = true;
    }
  }

  // Deregister before closing: once closed, accept() may hand the same
  // number to a new connection, whose registration a later erase would
  // remove too — and stop() would never shut that connection down.
  {
    const std::lock_guard<std::mutex> lock(conn_mutex_);
    conn_fds_.erase(std::remove(conn_fds_.begin(), conn_fds_.end(), fd),
                    conn_fds_.end());
  }
  ::shutdown(fd, SHUT_RDWR);
  ::close(fd);
}

}  // namespace rlplan::serve
