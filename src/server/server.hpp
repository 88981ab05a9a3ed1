// POSIX-socket HTTP server (estimation daemon).
//
// A fixed-size acceptor/worker pool with no external dependencies: one
// acceptor thread multiplexes accept() against a self-pipe wakeup, and a
// configurable number of worker threads each own one connection at a time,
// serving keep-alive request sequences through the Router. The design goals
// are the ROADMAP's serving ones, scaled to a single process:
//
//  * shared hot state — all workers run on one Service, so the estimate
//    cache and T-factory cache warm up across requests and clients;
//  * bounded resources — fixed thread count, bounded header/body limits,
//    receive timeouts on idle keep-alive connections, bounded job backlog
//    (the queue's own limit) behind the async endpoints;
//  * graceful drain — request_stop() is async-signal-safe (the qre_serve
//    SIGINT/SIGTERM handlers call it): the listener closes first, in-flight
//    requests complete, idle connections are shut down, queued async jobs
//    flip to cancelled, and stop() joins every thread.
//
// Binding to port 0 selects an ephemeral port (port() reports it), which is
// how tests run a real loopback server without port collisions.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "server/http.hpp"
#include "server/router.hpp"

namespace qre::server {

struct ServerOptions {
  /// IPv4 address to bind. Loopback by default: exposing an estimation
  /// daemon beyond localhost is a deployment decision (docs/server.md).
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port, reported by port().
  std::uint16_t port = 0;
  /// Connection worker threads (each owns one connection at a time).
  std::size_t num_workers = 4;
  /// recv timeout on an open connection; bounds how long an idle keep-alive
  /// socket can pin a worker.
  int receive_timeout_seconds = 30;
  /// send timeout: how long a response write waits for a reader that
  /// takes no bytes (see send_all), so a stalled reader wedges a worker
  /// for about this long, while a slow one that keeps reading is served.
  /// A timed-out write closes the connection. 0 disables.
  int send_timeout_seconds = 30;
  /// Header/body size bounds for request parsing.
  ReadLimits limits;
  /// Optional serving-metrics sink (not owned): when set, workers drive the
  /// in-flight connection gauge, and requests rejected before router
  /// dispatch (malformed framing → 400, oversized → 413) are counted under
  /// the "(malformed)" / "(too-large)" route labels. qre_serve wires the
  /// Service's instance so GET /metrics sees the transport.
  Metrics* metrics = nullptr;
  /// Optional access log (not owned): when set, pre-router rejects are
  /// logged too — the router logs everything that reaches dispatch.
  AccessLog* access_log = nullptr;
};

class Server {
 public:
  Server(Router& router, ServerOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the acceptor + workers. Throws qre::Error
  /// when the socket cannot be set up (address in use, bad address, ...).
  void start();

  /// The bound port (after start()); resolves port 0 to the real one.
  std::uint16_t port() const { return port_; }

  /// Requests a graceful shutdown. Async-signal-safe: an atomic store plus
  /// a self-pipe write, nothing else — safe to call from SIGINT/SIGTERM
  /// handlers, from any thread, and more than once.
  void request_stop();

  /// Blocks until a shutdown was requested and the acceptor wound down.
  /// Does not join the workers; call stop() after.
  void wait();

  /// Full graceful shutdown: request_stop(), join the acceptor, complete
  /// in-flight requests, shut down idle connections, join the workers.
  /// Idempotent; the destructor calls it as a backstop.
  void stop();

 private:
  void acceptor_loop();
  void worker_loop(std::size_t slot);
  void serve_connection(int fd);

  Router& router_;
  ServerOptions options_;

  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::uint16_t port_ = 0;
  bool started_ = false;

  std::atomic<bool> stop_requested_{false};

  Mutex mutex_;
  CondVar connections_available_;
  CondVar acceptor_done_cv_;
  std::deque<int> pending_connections_ QRE_GUARDED_BY(mutex_);
  bool acceptor_done_ QRE_GUARDED_BY(mutex_) = false;
  // per worker slot; -1 when idle
  std::vector<int> active_fds_ QRE_GUARDED_BY(mutex_);

  std::thread acceptor_;
  std::vector<std::thread> workers_;
};

}  // namespace qre::server
