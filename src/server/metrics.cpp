#include "server/metrics.hpp"

#include "server/metrics_registry.hpp"

namespace qre::server {

const std::vector<double>& Metrics::latency_buckets_ms() {
  static const std::vector<double> buckets = {0.5,  1,    2.5,  5,    10,   25,  50,
                                              100,  250,  500,  1000, 2500, 5000, 10000};
  return buckets;
}

void Metrics::record(std::string_view route, int status, double latency_ms) {
  const std::vector<double>& buckets = latency_buckets_ms();
  MutexLock lock(mutex_);
  ++counts_.requests_total;
  counts_.latency_total_ms += latency_ms;

  bool found = false;
  for (auto& [name, count] : counts_.by_route) {
    if (name == route) {
      ++count;
      found = true;
      break;
    }
  }
  if (!found) counts_.by_route.emplace_back(std::string(route), 1);

  const int status_class = status / 100;
  if (status_class >= 1 && status_class <= 5) ++counts_.by_status_class[status_class - 1];

  std::size_t bucket = buckets.size();  // overflow bucket
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (latency_ms <= buckets[i]) {
      bucket = i;
      break;
    }
  }
  ++counts_.bucket_counts[bucket];
}

std::uint64_t Metrics::requests_total() const {
  MutexLock lock(mutex_);
  return counts_.requests_total;
}

Metrics::Snapshot Metrics::snapshot() const {
  Snapshot out;
  {
    MutexLock lock(mutex_);
    out = counts_;
  }
  out.uptime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  out.connections_in_flight = connections_in_flight_.load(std::memory_order_relaxed);
  out.deadline_exceeded_total = deadline_exceeded_total_.load(std::memory_order_relaxed);
  out.cancel_requests_total = cancel_requests_total_.load(std::memory_order_relaxed);
  return out;
}

json::Value Metrics::to_json() const {
  return metrics_json({.metrics = this}, {"server"}).at("server");
}

}  // namespace qre::server
