#include "server/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/error.hpp"
#include "common/failpoint.hpp"

namespace qre::server {

namespace {

void close_quietly(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw_error(what + ": " + std::strerror(errno));
}

}  // namespace

Server::Server(Router& router, ServerOptions options)
    : router_(router), options_(options) {
  if (options_.num_workers == 0) options_.num_workers = 1;
  active_fds_.assign(options_.num_workers, -1);
}

Server::~Server() { stop(); }

void Server::start() {
  QRE_REQUIRE(!started_, "server already started");
  // A stopped Server may be started again: clear the previous run's
  // shutdown state or the new acceptor/workers would exit immediately.
  stop_requested_.store(false);
  {
    MutexLock lock(mutex_);
    acceptor_done_ = false;
  }

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) throw_errno("self-pipe");
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    throw_error("invalid bind address '" + options_.bind_address + "' (IPv4 only)");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    throw_errno("bind " + options_.bind_address + ":" + std::to_string(options_.port));
  }
  if (::listen(listen_fd_, 128) != 0) throw_errno("listen");

  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    throw_errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  started_ = true;
  acceptor_ = std::thread([this] { acceptor_loop(); });
  workers_.reserve(options_.num_workers);
  for (std::size_t slot = 0; slot < options_.num_workers; ++slot) {
    workers_.emplace_back([this, slot] { worker_loop(slot); });
  }
}

void Server::request_stop() {
  stop_requested_.store(true);
  if (wake_write_fd_ >= 0) {
    const char byte = 'x';
    // A full pipe just means a wakeup is already pending; ignore the result.
    [[maybe_unused]] ssize_t n = ::write(wake_write_fd_, &byte, 1);
  }
}

void Server::wait() {
  MutexLock lock(mutex_);
  while (!acceptor_done_ && started_) acceptor_done_cv_.wait(mutex_);
}

void Server::stop() {
  if (!started_) return;
  request_stop();
  if (acceptor_.joinable()) acceptor_.join();
  {
    MutexLock lock(mutex_);
    // Connections that never reached a worker are closed unserved — serving
    // them now could block shutdown behind clients that never send a byte.
    for (int fd : pending_connections_) ::close(fd);
    pending_connections_.clear();
    // Wake workers blocked in recv on idle keep-alive connections. Writes
    // of in-flight responses are unaffected (read side only).
    for (int fd : active_fds_) {
      if (fd >= 0) ::shutdown(fd, SHUT_RD);
    }
  }
  connections_available_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  close_quietly(wake_read_fd_);
  close_quietly(wake_write_fd_);
  started_ = false;
}

void Server::acceptor_loop() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_read_fd_, POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (stop_requested_.load() || (fds[1].revents & POLLIN) != 0) break;
    if ((fds[0].revents & POLLIN) == 0) continue;

    const int conn = ::accept(listen_fd_, nullptr, nullptr);
    if (conn < 0) continue;

    if (options_.receive_timeout_seconds > 0) {
      timeval timeout{};
      timeout.tv_sec = options_.receive_timeout_seconds;
      ::setsockopt(conn, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    }
    const int one = 1;
    ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

    {
      MutexLock lock(mutex_);
      pending_connections_.push_back(conn);
    }
    connections_available_.notify_one();
  }

  close_quietly(listen_fd_);
  {
    MutexLock lock(mutex_);
    acceptor_done_ = true;
  }
  acceptor_done_cv_.notify_all();
  connections_available_.notify_all();
}

void Server::worker_loop(std::size_t slot) {
  for (;;) {
    int fd = -1;
    {
      MutexLock lock(mutex_);
      while (pending_connections_.empty() && !stop_requested_.load()) {
        connections_available_.wait(mutex_);
      }
      if (pending_connections_.empty()) return;  // stopping and drained
      fd = pending_connections_.front();
      pending_connections_.pop_front();
      active_fds_[slot] = fd;
    }
    if (options_.metrics != nullptr) options_.metrics->connection_opened();
    serve_connection(fd);
    if (options_.metrics != nullptr) options_.metrics->connection_closed();
    {
      MutexLock lock(mutex_);
      active_fds_[slot] = -1;
    }
    ::close(fd);
  }
}

void Server::serve_connection(int fd) {
  const ByteSource source = socket_source(fd);
  const ByteSink sink = [fd, timeout = options_.send_timeout_seconds](ByteSink::Pieces pieces) {
    // Injected write fault = the peer became unwritable: abandon the
    // response, report failure so the connection closes.
    try {
      QRE_FAILPOINT("server.conn.before_write");
    } catch (const Error&) {
      return false;
    }
    return send_all(fd, pieces, nullptr, timeout);
  };

  std::string buffer;
  for (;;) {
    // Injected read fault = the peer vanished mid-stream: drop the
    // connection without a response, like a real half-open socket.
    try {
      QRE_FAILPOINT("server.conn.before_read");
    } catch (const Error&) {
      break;
    }
    Request request;
    const ReadStatus status = read_request(source, buffer, request, options_.limits);
    if (status == ReadStatus::kClosed || status == ReadStatus::kTimeout) break;
    if (status == ReadStatus::kBadRequest || status == ReadStatus::kTooLarge) {
      // Rejected before router dispatch — still observable: the reject is
      // counted in Metrics, carries an X-Request-Id, and lands in the
      // access log, so abusive traffic shows up like any other traffic.
      const bool too_large = status == ReadStatus::kTooLarge;
      const char* route = too_large ? "(too-large)" : "(malformed)";
      const char* body =
          too_large
              ? R"({"error": {"code": "too-large", "message": "request exceeds size limits"}})"
              : R"({"error": {"code": "bad-request", "message": "malformed HTTP request"}})";
      const std::string request_id = next_request_id();
      const Response reject{.status = too_large ? 413 : 400,
                            .body = std::string(body) + "\n",
                            .extra_headers = {{"X-Request-Id", request_id}}};
      std::uint64_t bytes_out = 0;
      const ByteSink counting_sink = [&](ByteSink::Pieces pieces) {
        for (std::string_view piece : pieces) bytes_out += piece.size();
        return sink(pieces);
      };
      write_response(counting_sink, reject, false);
      if (options_.metrics != nullptr) {
        options_.metrics->record(route, reject.status, 0.0);
      }
      if (options_.access_log != nullptr) {
        // The method is usually empty: nothing parsed.
        options_.access_log->record(
            {.id = request_id, .method = request.method,
             .path = request.method.empty() ? std::string() : request.path(), .route = route,
             .status = reject.status, .bytes_out = bytes_out,
             .failpoints_armed = failpoint::active_count()});
      }
      break;
    }
    const bool alive = router_.handle(request, sink);
    // Graceful drain: finish the request that was in flight, then close
    // even if the client asked for keep-alive.
    if (!alive || stop_requested_.load()) break;
  }
}

}  // namespace qre::server
