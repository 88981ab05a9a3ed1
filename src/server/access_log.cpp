#include "server/access_log.hpp"

#include <atomic>
#include <chrono>
#include <ctime>

#include "json/json.hpp"

namespace qre::server {

namespace {

/// Wall-clock timestamp as ISO-8601 UTC with milliseconds.
std::string iso_timestamp() {
  const auto now = std::chrono::system_clock::now();
  const std::time_t seconds = std::chrono::system_clock::to_time_t(now);
  const auto millis = std::chrono::duration_cast<std::chrono::milliseconds>(
                          now.time_since_epoch())
                          .count() %
                      1000;
  std::tm utc{};
  ::gmtime_r(&seconds, &utc);
  // Worst case for the compiler's range analysis: seven ints of up to 11
  // characters ("-2147483648"), seven separators and the terminator.
  char buffer[7 * 11 + 7 + 1];
  std::snprintf(buffer, sizeof buffer, "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                utc.tm_year + 1900, utc.tm_mon + 1, utc.tm_mday, utc.tm_hour,
                utc.tm_min, utc.tm_sec, static_cast<int>(millis));
  return buffer;
}

std::atomic<std::uint64_t> g_next_request_id{1};

}  // namespace

AccessLog::AccessLog(const std::string& path) {
  MutexLock lock(mutex_);
  if (path == "-") {
    file_ = stderr;
  } else {
    file_ = std::fopen(path.c_str(), "a");
    owned_ = file_ != nullptr;
  }
}

AccessLog::~AccessLog() {
  MutexLock lock(mutex_);
  if (owned_ && file_ != nullptr) std::fclose(file_);
  file_ = nullptr;
}

void AccessLog::record(const AccessEntry& entry) {
  // The line is assembled outside the lock; only the write serializes.
  json::Object line;
  line.emplace_back("ts", iso_timestamp());
  line.emplace_back("id", entry.id);
  line.emplace_back("method", entry.method);
  line.emplace_back("path", entry.path);
  line.emplace_back("route", entry.route);
  line.emplace_back("status", json::Value(static_cast<std::int64_t>(entry.status)));
  line.emplace_back("latencyMs", json::Value(entry.latency_ms));
  line.emplace_back("bytesIn", json::Value(entry.bytes_in));
  line.emplace_back("bytesOut", json::Value(entry.bytes_out));
  line.emplace_back("deadline", json::Value(entry.deadline));
  line.emplace_back("cancelled", json::Value(entry.cancelled));
  line.emplace_back("failpointsArmed",
                    json::Value(static_cast<std::int64_t>(entry.failpoints_armed)));
  const std::string text = json::Value(std::move(line)).dump() + "\n";

  MutexLock lock(mutex_);
  if (file_ == nullptr) return;
  std::fwrite(text.data(), 1, text.size(), file_);
  std::fflush(file_);
}

std::string next_request_id() {
  return "qre-" + std::to_string(g_next_request_id.fetch_add(1));
}

std::string sanitize_request_id(const std::string& candidate) {
  if (candidate.empty() || candidate.size() > 64) return {};
  for (char c : candidate) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return {};
  }
  return candidate;
}

std::string request_id_for(const Request& request) {
  if (const std::string* supplied = request.header("X-Request-Id")) {
    std::string id = sanitize_request_id(*supplied);
    if (!id.empty()) return id;
  }
  return next_request_id();
}

}  // namespace qre::server
