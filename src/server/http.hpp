// Dependency-free HTTP/1.1 message layer (estimation server).
//
// The paper frames the estimator as a cloud service consuming JSON job
// documents over HTTP; this module is the wire format for our serving layer.
// It is deliberately transport-agnostic: messages are read from a ByteSource
// and written to a ByteSink (callables), so the same parser serves the
// socket server, the in-process test client, and unit tests that replay
// captured byte streams — no mocking of file descriptors anywhere. The
// socket ends of both seams are here too, shared by server and client.
//
// Supported framing, both directions:
//   * request line / status line + headers (case-insensitive names),
//   * Content-Length bodies,
//   * Transfer-Encoding: chunked bodies (sizes in hex, trailers skipped),
//   * keep-alive semantics (HTTP/1.1 default, "Connection: close" honored).
//
// Limits are explicit (ReadLimits): oversized headers or bodies abort the
// read with kTooLarge so a misbehaving client cannot balloon the process.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "json/json.hpp"

namespace qre::server {

struct Header {
  std::string name;
  std::string value;
};

/// Case-insensitive lookup; returns nullptr when absent.
const std::string* find_header(const std::vector<Header>& headers, std::string_view name);

/// Pulls at most `len` bytes into `buf`. Returns the byte count, 0 on EOF,
/// -1 on a hard error, and -2 on a timeout (the socket source maps
/// EAGAIN/EWOULDBLOCK from SO_RCVTIMEO to -2).
using ByteSource = std::function<long(char* buf, std::size_t len)>;

/// Pushes bytes to the peer, one call per response or chunk, with the
/// pieces to send in order; false means the connection is gone.
class ByteSink {
 public:
  using Pieces = std::span<const std::string_view>;

  /// A gather callable, bool(Pieces); the socket sink hands them to sendmsg.
  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, ByteSink> &&
             std::is_invocable_r_v<bool, F&, Pieces>)
  ByteSink(F gather) : write_(std::move(gather)) {}
  /// A one-buffer callable, bool(std::string_view), called once per piece
  /// in order until one returns false.
  template <typename F>
    requires(!std::is_invocable_v<F&, Pieces> && std::is_invocable_r_v<bool, F&, std::string_view>)
  ByteSink(F one)
      : write_([one = std::move(one)](Pieces pieces) mutable {
          return std::all_of(pieces.begin(), pieces.end(), std::ref(one));
        }) {}

  bool operator()(Pieces pieces) const { return write_(pieces); }
  bool operator()(std::string_view one) const { return write_(Pieces(&one, 1)); }

 private:
  std::function<bool(Pieces)> write_;
};

/// The socket ends of both seams, shared by Server and Client. The source
/// retries EINTR and maps EAGAIN/EWOULDBLOCK (SO_RCVTIMEO) to -2.
ByteSource socket_source(int fd);
/// Gather send of `pieces` in order through sendmsg, IOV_MAX per call,
/// resuming a partial write inside the piece it stopped in; EINTR retries.
/// MSG_NOSIGNAL: a dead peer is an error, not SIGPIPE. Each call takes what
/// the socket buffer has room for (MSG_DONTWAIT); when it is full, poll
/// waits for room for up to `timeout_seconds` (forever when 0). So the
/// timeout is on progress, not on the whole send: a slow reader that keeps
/// reading is served to the end, and one that stops is given up one
/// timeout after the buffer filled, returning false so the caller abandons
/// the message and closes. A send that fits in the buffer is one call.
/// `sent` gets the bytes that went.
bool send_all(int fd, ByteSink::Pieces pieces, std::size_t* sent = nullptr,
              int timeout_seconds = 0);

struct ReadLimits {
  std::size_t max_header_bytes = 64 * 1024;
  std::size_t max_body_bytes = 64 * 1024 * 1024;
};

enum class ReadStatus {
  kOk,          // a complete message was parsed
  kClosed,      // peer closed cleanly before the first byte of a message
  kTimeout,     // the source timed out (idle keep-alive connection)
  kBadRequest,  // malformed framing; respond 400 and close
  kTooLarge,    // a ReadLimits bound was exceeded; respond 431/413 and close
};

struct Request {
  std::string method;   // "GET", "POST", ...
  std::string target;   // origin-form, query string included
  std::string version;  // "HTTP/1.1"
  std::vector<Header> headers;
  std::string body;

  /// Target with any "?query" suffix removed.
  std::string path() const;
  /// The text after the first '?' in the target ("" when absent).
  std::string query() const;
  const std::string* header(std::string_view name) const {
    return find_header(headers, name);
  }
  /// HTTP/1.1 defaults to keep-alive unless "Connection: close".
  bool keep_alive() const;
  /// True when the Accept header lists `mime` (substring match is enough
  /// for our two media types).
  bool accepts(std::string_view mime) const;
};

struct ParsedResponse {
  int status = 0;
  std::string reason;
  std::vector<Header> headers;
  std::string body;  // de-chunked

  const std::string* header(std::string_view name) const {
    return find_header(headers, name);
  }
};

/// Reads one request from `src`. `buffer` carries bytes left over from the
/// previous message on the same connection (keep-alive) and must persist
/// across calls.
ReadStatus read_request(const ByteSource& src, std::string& buffer, Request& out,
                        const ReadLimits& limits = {});

/// Reads one response (client side). A body with neither Content-Length nor
/// chunked framing is read until EOF, per HTTP/1.1 close-delimited framing.
ReadStatus read_response(const ByteSource& src, std::string& buffer, ParsedResponse& out,
                         const ReadLimits& limits = {});

/// The canonical reason phrase for `status` ("OK", "Not Found", ...).
std::string_view status_text(int status);

struct Response {
  int status = 200;
  std::string content_type = "application/json";
  json::Gathered body;  // a JSON document's pieces, or one piece of text
  std::vector<Header> extra_headers;
};

/// Sends `r` with Content-Length framing: the head, then the body's pieces,
/// in one sink call; "Connection: close" unless `keep_alive`. Returns false
/// when the sink reports a dead connection.
bool write_response(const ByteSink& sink, const Response& r, bool keep_alive);

/// Streaming response writer (Transfer-Encoding: chunked) for NDJSON
/// bodies whose length is unknown up front. Call begin() exactly once, then
/// write() per chunk, then end(); each is one sink call.
class ChunkedWriter {
 public:
  explicit ChunkedWriter(ByteSink sink) : sink_(std::move(sink)) {}

  bool begin(int status, const std::string& content_type, bool keep_alive,
             const std::vector<Header>& extra_headers);
  /// Sends `data` as one chunk: size line, its pieces, CRLF. An empty
  /// `data` sends nothing (a zero-size chunk would end the body).
  bool write(const json::Gathered& data);
  bool end();
  /// Whether begin() ran (i.e. headers are already on the wire).
  bool begun() const { return begun_; }

 private:
  ByteSink sink_;
  bool begun_ = false;
};

}  // namespace qre::server
