#include "server/http.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>

namespace qre::server {

namespace {

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) s.remove_suffix(1);
  return s;
}

/// Grows `buffer` until it holds at least `want` bytes (or the source
/// drains). Returns kOk, kClosed (EOF before `want`), kTimeout, or
/// kBadRequest (hard read error).
ReadStatus fill_until(const ByteSource& src, std::string& buffer, std::size_t want) {
  char chunk[8192];
  while (buffer.size() < want) {
    const long n = src(chunk, sizeof chunk);
    if (n == 0) return ReadStatus::kClosed;
    if (n == -2) return ReadStatus::kTimeout;
    if (n < 0) return ReadStatus::kBadRequest;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  return ReadStatus::kOk;
}

/// Grows `buffer` until `delim` appears (search starts from 0; the buffer
/// is small at this point). Caps the scan at `limit` bytes.
ReadStatus fill_until_delim(const ByteSource& src, std::string& buffer,
                            std::string_view delim, std::size_t limit,
                            std::size_t* pos_out) {
  char chunk[8192];
  for (;;) {
    const std::size_t pos = buffer.find(delim);
    if (pos != std::string::npos) {
      *pos_out = pos;
      return ReadStatus::kOk;
    }
    if (buffer.size() > limit) return ReadStatus::kTooLarge;
    const long n = src(chunk, sizeof chunk);
    if (n == 0) return ReadStatus::kClosed;
    if (n == -2) return ReadStatus::kTimeout;
    if (n < 0) return ReadStatus::kBadRequest;
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

/// Splits a header block (between start line and blank line) into Headers.
bool parse_headers(std::string_view block, std::vector<Header>& out) {
  while (!block.empty()) {
    std::size_t eol = block.find('\n');
    std::string_view line = block.substr(0, eol == std::string_view::npos ? block.size() : eol);
    block.remove_prefix(eol == std::string_view::npos ? block.size() : eol + 1);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) return false;
    out.push_back({std::string(trim(line.substr(0, colon))),
                   std::string(trim(line.substr(colon + 1)))});
  }
  return true;
}

bool parse_content_length(std::string_view text, std::size_t& out) {
  if (text.empty()) return false;
  std::size_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    if (value > (SIZE_MAX - 9) / 10) return false;
    value = value * 10 + static_cast<std::size_t>(c - '0');
  }
  out = value;
  return true;
}

bool is_chunked(const std::vector<Header>& headers) {
  const std::string* te = find_header(headers, "Transfer-Encoding");
  if (te == nullptr) return false;
  // The only coding we produce or accept is "chunked" (possibly last in a
  // list); a case-insensitive substring check covers both.
  std::string lower;
  lower.reserve(te->size());
  for (char c : *te) lower.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  return lower.find("chunked") != std::string::npos;
}

/// Consumes a chunked body from buffer+src into `body`. The buffer is left
/// holding any bytes after the terminating trailer (keep-alive pipelining).
ReadStatus read_chunked_body(const ByteSource& src, std::string& buffer, std::string& body,
                             const ReadLimits& limits) {
  for (;;) {
    std::size_t eol = 0;
    ReadStatus status = fill_until_delim(src, buffer, "\n", limits.max_header_bytes, &eol);
    if (status != ReadStatus::kOk) {
      return status == ReadStatus::kClosed ? ReadStatus::kBadRequest : status;
    }
    std::string_view size_line(buffer.data(), eol);
    if (!size_line.empty() && size_line.back() == '\r') size_line.remove_suffix(1);
    // Chunk extensions (";...") are legal; ignore them.
    if (const std::size_t semi = size_line.find(';'); semi != std::string_view::npos) {
      size_line = size_line.substr(0, semi);
    }
    size_line = trim(size_line);
    if (size_line.empty()) return ReadStatus::kBadRequest;
    std::size_t chunk_size = 0;
    for (char c : size_line) {
      int digit;
      if (c >= '0' && c <= '9') digit = c - '0';
      else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
      else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
      else return ReadStatus::kBadRequest;
      if (chunk_size > (SIZE_MAX >> 4)) return ReadStatus::kBadRequest;
      chunk_size = (chunk_size << 4) | static_cast<std::size_t>(digit);
    }
    buffer.erase(0, eol + 1);

    if (chunk_size == 0) {
      // Trailer section: lines until a blank one.
      for (;;) {
        std::size_t teol = 0;
        status = fill_until_delim(src, buffer, "\n", limits.max_header_bytes, &teol);
        if (status != ReadStatus::kOk) {
          return status == ReadStatus::kClosed ? ReadStatus::kBadRequest : status;
        }
        std::string_view line(buffer.data(), teol);
        if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
        buffer.erase(0, teol + 1);
        if (line.empty()) return ReadStatus::kOk;
      }
    }

    if (body.size() + chunk_size > limits.max_body_bytes) return ReadStatus::kTooLarge;
    status = fill_until(src, buffer, chunk_size + 1);  // data + at least the LF
    if (status != ReadStatus::kOk) {
      return status == ReadStatus::kClosed ? ReadStatus::kBadRequest : status;
    }
    body.append(buffer, 0, chunk_size);
    buffer.erase(0, chunk_size);
    // Consume the CRLF (or LF) that closes the chunk.
    if (buffer[0] == '\r') {
      if (fill_until(src, buffer, 2) != ReadStatus::kOk) return ReadStatus::kBadRequest;
      if (buffer[1] != '\n') return ReadStatus::kBadRequest;
      buffer.erase(0, 2);
    } else if (buffer[0] == '\n') {
      buffer.erase(0, 1);
    } else {
      return ReadStatus::kBadRequest;
    }
  }
}

/// Shared header-block + body framing for requests and responses.
/// `start_line` receives the first line (CR stripped); `headers`/`body` are
/// filled in. `allow_eof_body` enables close-delimited bodies (responses).
ReadStatus read_message(const ByteSource& src, std::string& buffer, const ReadLimits& limits,
                        bool allow_eof_body, std::string& start_line,
                        std::vector<Header>& headers, std::string& body) {
  // Locate the end of the header block: CRLFCRLF, tolerating bare LFs.
  std::size_t header_end = 0;
  std::size_t body_start = 0;
  {
    char chunk[8192];
    for (;;) {
      std::size_t pos = buffer.find("\r\n\r\n");
      std::size_t alt = buffer.find("\n\n");
      if (pos != std::string::npos && (alt == std::string::npos || pos < alt)) {
        header_end = pos;
        body_start = pos + 4;
        break;
      }
      if (alt != std::string::npos) {
        header_end = alt;
        body_start = alt + 2;
        break;
      }
      if (buffer.size() > limits.max_header_bytes) return ReadStatus::kTooLarge;
      const long n = src(chunk, sizeof chunk);
      if (n == 0) return buffer.empty() ? ReadStatus::kClosed : ReadStatus::kBadRequest;
      if (n == -2) return ReadStatus::kTimeout;
      if (n < 0) return ReadStatus::kBadRequest;
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
  }

  std::string_view head(buffer.data(), header_end);
  const std::size_t first_eol = head.find('\n');
  std::string_view first =
      head.substr(0, first_eol == std::string_view::npos ? head.size() : first_eol);
  if (!first.empty() && first.back() == '\r') first.remove_suffix(1);
  start_line.assign(first);
  std::string_view header_block =
      first_eol == std::string_view::npos ? std::string_view() : head.substr(first_eol + 1);
  if (!parse_headers(header_block, headers)) return ReadStatus::kBadRequest;
  buffer.erase(0, body_start);

  if (is_chunked(headers)) {
    return read_chunked_body(src, buffer, body, limits);
  }
  if (const std::string* length = find_header(headers, "Content-Length")) {
    std::size_t n = 0;
    if (!parse_content_length(*length, n)) return ReadStatus::kBadRequest;
    if (n > limits.max_body_bytes) return ReadStatus::kTooLarge;
    const ReadStatus status = fill_until(src, buffer, n);
    if (status != ReadStatus::kOk) {
      return status == ReadStatus::kClosed ? ReadStatus::kBadRequest : status;
    }
    body.assign(buffer, 0, n);
    buffer.erase(0, n);
    return ReadStatus::kOk;
  }
  if (allow_eof_body) {
    // Close-delimited body: drain to EOF.
    char chunk[8192];
    for (;;) {
      if (buffer.size() > limits.max_body_bytes) return ReadStatus::kTooLarge;
      const long n = src(chunk, sizeof chunk);
      if (n == 0) break;
      if (n == -2) return ReadStatus::kTimeout;
      if (n < 0) return ReadStatus::kBadRequest;
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
    body = std::move(buffer);
    buffer.clear();
  }
  return ReadStatus::kOk;
}

}  // namespace

const std::string* find_header(const std::vector<Header>& headers, std::string_view name) {
  for (const Header& h : headers) {
    if (iequals(h.name, name)) return &h.value;
  }
  return nullptr;
}

std::string Request::path() const {
  const std::size_t q = target.find('?');
  return q == std::string::npos ? target : target.substr(0, q);
}

std::string Request::query() const {
  const std::size_t q = target.find('?');
  return q == std::string::npos ? std::string() : target.substr(q + 1);
}

bool Request::keep_alive() const {
  if (const std::string* connection = header("Connection")) {
    if (iequals(*connection, "close")) return false;
    if (iequals(*connection, "keep-alive")) return true;
  }
  return version == "HTTP/1.1";  // HTTP/1.0 defaults to close
}

bool Request::accepts(std::string_view mime) const {
  const std::string* accept = header("Accept");
  return accept != nullptr && accept->find(mime) != std::string::npos;
}

ReadStatus read_request(const ByteSource& src, std::string& buffer, Request& out,
                        const ReadLimits& limits) {
  std::string start_line;
  const ReadStatus status =
      read_message(src, buffer, limits, /*allow_eof_body=*/false, start_line, out.headers,
                   out.body);
  if (status != ReadStatus::kOk) return status;

  // "METHOD SP target SP HTTP/x.y"
  const std::size_t sp1 = start_line.find(' ');
  const std::size_t sp2 = start_line.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1) return ReadStatus::kBadRequest;
  out.method = start_line.substr(0, sp1);
  out.target = start_line.substr(sp1 + 1, sp2 - sp1 - 1);
  out.version = start_line.substr(sp2 + 1);
  if (out.method.empty() || out.target.empty() || out.version.rfind("HTTP/", 0) != 0) {
    return ReadStatus::kBadRequest;
  }
  return ReadStatus::kOk;
}

ReadStatus read_response(const ByteSource& src, std::string& buffer, ParsedResponse& out,
                         const ReadLimits& limits) {
  std::string start_line;
  const ReadStatus status =
      read_message(src, buffer, limits, /*allow_eof_body=*/true, start_line, out.headers,
                   out.body);
  if (status != ReadStatus::kOk) return status;

  // "HTTP/x.y SP status SP reason"
  const std::size_t sp1 = start_line.find(' ');
  if (sp1 == std::string::npos || start_line.rfind("HTTP/", 0) != 0) {
    return ReadStatus::kBadRequest;
  }
  const std::size_t sp2 = start_line.find(' ', sp1 + 1);
  const std::string code = start_line.substr(
      sp1 + 1, sp2 == std::string::npos ? std::string::npos : sp2 - sp1 - 1);
  if (code.size() != 3 || !std::isdigit(static_cast<unsigned char>(code[0]))) {
    return ReadStatus::kBadRequest;
  }
  out.status = (code[0] - '0') * 100 + (code[1] - '0') * 10 + (code[2] - '0');
  out.reason = sp2 == std::string::npos ? std::string() : start_line.substr(sp2 + 1);
  return ReadStatus::kOk;
}

std::string_view status_text(int status) {
  switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 422: return "Unprocessable Entity";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return status >= 200 && status < 300 ? "OK" : "Error";
  }
}

namespace {

std::string head_lines(int status, const std::string& content_type, bool close,
                       const std::vector<Header>& extra) {
  std::string head = "HTTP/1.1 " + std::to_string(status) + " " +
                     std::string(status_text(status)) + "\r\n";
  head += "Content-Type: " + content_type + "\r\n";
  head += close ? "Connection: close\r\n" : "Connection: keep-alive\r\n";
  for (const Header& h : extra) head += h.name + ": " + h.value + "\r\n";
  return head;
}

}  // namespace

ByteSource socket_source(int fd) {
  return [fd](char* buf, std::size_t len) -> long {
    for (;;) {
      const ssize_t n = ::recv(fd, buf, len, 0);
      if (n >= 0) return static_cast<long>(n);
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return -2;  // SO_RCVTIMEO
      return -1;
    }
  };
}

bool send_all(int fd, ByteSink::Pieces pieces, std::size_t* sent, int timeout_seconds) {
  std::vector<iovec> iov;
  iov.reserve(pieces.size());
  for (std::string_view piece : pieces) {
    if (!piece.empty()) iov.push_back({const_cast<char*>(piece.data()), piece.size()});
  }
  if (sent != nullptr) *sent = 0;
  const int wait_ms = timeout_seconds > 0 ? timeout_seconds * 1000 : -1;
  bool full = false;  // the last call stopped short: the buffer has no room
  for (std::size_t next = 0; next < iov.size();) {
    if (full) {
      pollfd writable{.fd = fd, .events = POLLOUT, .revents = 0};
      const int ready = ::poll(&writable, 1, wait_ms);
      if (ready == 0) return false;  // no room for a whole timeout: the peer stopped
      if (ready < 0 && errno != EINTR) return false;
      full = false;  // room, or an error the next call reports
    }
    msghdr message{};
    message.msg_iov = &iov[next];
    message.msg_iovlen = std::min<std::size_t>(iov.size() - next, IOV_MAX);
    const ssize_t n = ::sendmsg(fd, &message, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        full = true;
        continue;
      }
      return false;
    }
    auto left = static_cast<std::size_t>(n);
    if (sent != nullptr) *sent += left;
    const std::size_t end = next + message.msg_iovlen;
    for (; next < iov.size() && left >= iov[next].iov_len; ++next) left -= iov[next].iov_len;
    if (left > 0) {
      iov[next].iov_base = static_cast<char*>(iov[next].iov_base) + left;
      iov[next].iov_len -= left;
    }
    full = next < end;
  }
  return true;
}

bool write_response(const ByteSink& sink, const Response& r, bool keep_alive) {
  std::string head = head_lines(r.status, r.content_type, !keep_alive, r.extra_headers);
  head += "Content-Length: " + std::to_string(r.body.size()) + "\r\n\r\n";
  std::vector<std::string_view> pieces{head};
  r.body.append_pieces(pieces);
  return sink(pieces);
}

bool ChunkedWriter::begin(int status, const std::string& content_type, bool keep_alive,
                          const std::vector<Header>& extra_headers) {
  std::string head = head_lines(status, content_type, !keep_alive, extra_headers);
  head += "Transfer-Encoding: chunked\r\n\r\n";
  begun_ = true;
  return sink_(head);
}

bool ChunkedWriter::write(const json::Gathered& data) {
  const std::size_t size = data.size();
  if (size == 0) return true;
  char size_line[32];
  const int n = std::snprintf(size_line, sizeof size_line, "%zx\r\n", size);
  std::vector<std::string_view> pieces{std::string_view(size_line, static_cast<std::size_t>(n))};
  data.append_pieces(pieces);
  pieces.push_back("\r\n");
  return sink_(pieces);
}

bool ChunkedWriter::end() { return sink_("0\r\n\r\n"); }

}  // namespace qre::server
