// The metrics registry: every value GET /metrics reports, declared once.
//
// One table in metrics_registry.cpp holds a row per metric: its dotted
// path in the JSON document ("server.requestsTotal"), its Prometheus
// family (nullptr for JSON-only values), its labels, kind, help text and
// the reader that takes it from a snapshot of the attached sources. The
// /metrics JSON document, its Prometheus text exposition
// (?format=prometheus) and qre_cli --cache-stats all render from that
// table, and qre_lint check #6 keeps its rows in sync with
// docs/observability.md.
#pragma once

#include <string>
#include <vector>

#include "json/json.hpp"
#include "server/job_queue.hpp"
#include "server/metrics.hpp"
#include "service/cache.hpp"
#include "store/estimate_store.hpp"

namespace qre::server {

/// The Content-Type the exposition format requires.
inline constexpr const char* kPrometheusContentType =
    "text/plain; version=0.0.4; charset=utf-8";

/// What a render reads. A null source omits its rows, except
/// "store.enabled", which then reads false. The process-wide sources (the
/// T-factory cache, client retries, failpoints and the trace ring) are
/// always read.
struct MetricSources {
  const Metrics* metrics = nullptr;
  const service::EstimateCache* estimate_cache = nullptr;
  const store::EstimateStore* store = nullptr;
  const JobQueue* jobs = nullptr;
};

/// The /metrics JSON document: one object per section ("server",
/// "estimateCache", "factoryCache", "store", "jobs", "client",
/// "failpoints", "trace"), fields in table order. A non-empty `sections`
/// keeps only those sections and reads only their sources.
json::Value metrics_json(const MetricSources& sources,
                         const std::vector<std::string>& sections = {});

/// The same rows as Prometheus text (version 0.0.4): HELP/TYPE once per
/// family, counters and gauges as single samples (booleans as 0/1), maps
/// as labeled samples, and the latency histogram as cumulative
/// `_bucket{le=...}` counts ending at +Inf plus `_sum` and `_count`.
std::string metrics_prometheus(const MetricSources& sources);

}  // namespace qre::server
