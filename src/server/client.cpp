#include "server/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <random>
#include <thread>

namespace qre::server {

namespace {

std::atomic<std::uint64_t> g_process_retries{0};

/// Uniform jitter in [backoff/2, backoff]: desynchronizes clients that
/// failed together so they do not retry together.
int jittered_ms(int backoff_ms) {
  if (backoff_ms <= 1) return backoff_ms;
  thread_local std::minstd_rand rng{std::random_device{}()};
  const int half = backoff_ms / 2;
  return half + static_cast<int>(rng() % static_cast<unsigned>(backoff_ms - half + 1));
}

/// Retry-After in whole seconds (the HTTP-date form is not supported);
/// -1 when absent or unparseable.
int retry_after_ms(const std::vector<Header>& headers) {
  const std::string* value = find_header(headers, "Retry-After");
  if (value == nullptr || value->empty() ||
      value->find_first_not_of("0123456789") != std::string::npos) {
    return -1;
  }
  if (value->size() > 4) return -1;  // > 9999 s: treat as hostile/garbage
  return std::atoi(value->c_str()) * 1000;
}

}  // namespace

std::uint64_t Client::process_retries() {
  return g_process_retries.load(std::memory_order_relaxed);
}

Client::~Client() { disconnect(); }

void Client::disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

bool Client::connect_if_needed(std::string& error) {
  if (fd_ >= 0) {
    // Reused keep-alive connection: a non-blocking peek detects a FIN the
    // server already sent (idle timeout, graceful stop), so the request is
    // written to a live socket instead of discovering the close afterwards
    // — which matters for POSTs, where a blind resend could double-submit.
    char probe;
    const ssize_t n = ::recv(fd_, &probe, 1, MSG_PEEK | MSG_DONTWAIT);
    if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK)) {
      disconnect();
    } else {
      return true;
    }
  }
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    error = std::string("socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    error = "invalid host address '" + host_ + "' (IPv4 only)";
    disconnect();
    return false;
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    error = std::string("connect: ") + std::strerror(errno);
    disconnect();
    return false;
  }
  return true;
}

Client::Result Client::request(const std::string& method, const std::string& target,
                               const std::string& body,
                               const std::vector<Header>& headers) {
  // DELETE is idempotent here by the server's own contract: repeating a
  // cancel is answered consistently (cancelling/409), never doubly applied.
  const bool idempotent = method == "GET" || method == "HEAD" || method == "DELETE";
  int backoff_ms = policy_.initial_backoff_ms;
  for (int attempt = 0;; ++attempt) {
    bool transport_retriable = false;
    Result result = request_once(method, target, body, headers, idempotent, transport_retriable);

    int wait_ms = -1;
    if (!result.ok) {
      if (transport_retriable) wait_ms = jittered_ms(backoff_ms);
    } else if (idempotent &&
               (result.status == 408 || result.status == 429 || result.status == 503)) {
      const int hinted = retry_after_ms(result.headers);
      wait_ms = hinted >= 0 ? std::min(hinted, policy_.max_retry_after_ms)
                            : jittered_ms(backoff_ms);
    }
    if (wait_ms < 0 || attempt + 1 >= policy_.max_attempts) return result;

    ++retries_;
    g_process_retries.fetch_add(1, std::memory_order_relaxed);
    if (wait_ms > 0) std::this_thread::sleep_for(std::chrono::milliseconds(wait_ms));
    backoff_ms = std::min(backoff_ms * 2, policy_.max_backoff_ms);
  }
}

Client::Result Client::request_once(const std::string& method, const std::string& target,
                                    const std::string& body,
                                    const std::vector<Header>& headers, bool idempotent,
                                    bool& transport_retriable) {
  Result result;

  std::string message = method + " " + target + " HTTP/1.1\r\n";
  message += "Host: " + host_ + ":" + std::to_string(port_) + "\r\n";
  for (const Header& h : headers) message += h.name + ": " + h.value + "\r\n";
  if (!body.empty() || method == "POST" || method == "PUT") {
    message += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  }
  message += "\r\n";
  const std::string_view pieces[] = {message, body};

  // One transparent retry for the keep-alive race the pre-send peek cannot
  // fully close (the server finishes our connection between peek and send).
  // Non-idempotent methods only retry when NO request byte reached the
  // wire — a consumed-but-unanswered POST must not be blindly resent (it
  // could, e.g., double-submit an async job).
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (!connect_if_needed(result.error)) {
      // Nothing reached the wire, so even a POST may retry — except on a
      // malformed address, which no amount of retrying fixes.
      transport_retriable = result.error.rfind("invalid host", 0) != 0;
      return result;
    }

    std::size_t sent = 0;
    if (!send_all(fd_, pieces, &sent)) {
      disconnect();
      result.error = "send failed";
      transport_retriable = idempotent || sent == 0;
      if (transport_retriable) continue;  // retry on a fresh connection
      return result;
    }

    ParsedResponse response;
    const ReadStatus status = read_response(socket_source(fd_), buffer_, response, {});
    if (status == ReadStatus::kClosed && attempt == 0 && idempotent) {
      disconnect();
      result.error = "connection closed before response";
      continue;
    }
    if (status != ReadStatus::kOk) {
      disconnect();
      if (result.error.empty()) result.error = "failed to read response";
      // The request reached the wire but no response came back: safe to
      // retry only when re-execution is harmless.
      transport_retriable = idempotent;
      return result;
    }

    result.ok = true;
    result.error.clear();
    result.status = response.status;
    result.headers = std::move(response.headers);
    result.body = std::move(response.body);

    const std::string* connection = find_header(result.headers, "Connection");
    if (connection != nullptr && *connection == "close") disconnect();
    return result;
  }
  // Both keep-alive-race attempts failed; every path that lands here was a
  // retriable transport failure.
  transport_retriable = true;
  return result;
}

}  // namespace qre::server
