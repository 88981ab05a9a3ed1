// Live serving metrics (estimation server).
//
// One Metrics instance aggregates everything GET /metrics reports about the
// HTTP layer: total and per-route request counts, response counts by status
// class, and a fixed-bucket latency histogram. The route label is the
// normalized pattern ("POST /v2/jobs", "GET /v2/jobs/{id}"), not the raw
// target, so the cardinality is bounded by the route table.
//
// Cache counters (estimate cache, T-factory cache) and job-queue state are
// deliberately NOT stored here — they live with their owners, and the
// metrics registry (server/metrics_registry.hpp) reads them next to this
// sink's snapshot(), so this module stays a plain request-accounting sink
// with no dependency on the estimation stack.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "json/json.hpp"

namespace qre::server {

class Metrics {
 public:
  Metrics() : start_(std::chrono::steady_clock::now()) {
    counts_.bucket_counts.assign(latency_buckets_ms().size() + 1, 0);
  }

  /// Upper bucket bounds of the latency histogram, in milliseconds; the
  /// implicit final bucket is +inf.
  static const std::vector<double>& latency_buckets_ms();

  /// Records one completed request.
  void record(std::string_view route, int status, double latency_ms);

  /// In-flight connection gauge, driven by the transport's worker loop
  /// (Server wires its ServerOptions::metrics to the service's instance).
  void connection_opened() { connections_in_flight_.fetch_add(1, std::memory_order_relaxed); }
  void connection_closed() { connections_in_flight_.fetch_sub(1, std::memory_order_relaxed); }

  /// Resilience counters: estimate runs abandoned at the request deadline,
  /// and accepted DELETE /v2/jobs/{id} cancellations (queued or running).
  void record_deadline_exceeded() {
    deadline_exceeded_total_.fetch_add(1, std::memory_order_relaxed);
  }
  void record_cancel_request() {
    cancel_requests_total_.fetch_add(1, std::memory_order_relaxed);
  }

  std::uint64_t requests_total() const;

  /// Every value of the sink; the counters record() keeps are read under
  /// one lock, so requests_total equals the sum of bucket_counts.
  struct Snapshot {
    std::uint64_t requests_total = 0;
    double uptime_seconds = 0;
    std::int64_t connections_in_flight = 0;
    std::uint64_t deadline_exceeded_total = 0;
    std::uint64_t cancel_requests_total = 0;
    std::vector<std::pair<std::string, std::uint64_t>> by_route;  // insertion order
    std::array<std::uint64_t, 5> by_status_class = {};             // 1xx..5xx
    std::vector<std::uint64_t> bucket_counts;  // one per bound, then overflow
    double latency_total_ms = 0;
  };
  Snapshot snapshot() const;

  /// The "server" section of GET /metrics, rendered by the metrics
  /// registry: {"requestsTotal", "uptimeSeconds", "connectionsInFlight",
  /// "deadlineExceededTotal", "cancelRequestsTotal", "requestsByRoute",
  /// "responsesByStatus", "latencyMs": {"bucketUpperBoundsMs", "counts",
  /// "totalMs", "count"}}.
  json::Value to_json() const;

 private:
  const std::chrono::steady_clock::time_point start_;
  std::atomic<std::int64_t> connections_in_flight_{0};
  std::atomic<std::uint64_t> deadline_exceeded_total_{0};
  std::atomic<std::uint64_t> cancel_requests_total_{0};
  mutable Mutex mutex_;
  // record()'s fields; snapshot() adds the uptime and the atomics
  Snapshot counts_ QRE_GUARDED_BY(mutex_);
};

}  // namespace qre::server
