#include "server/prometheus.hpp"

#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

namespace qre::server {

namespace {

/// Canonical JSON-field → Prometheus-family mapping for the /metrics
/// document. This table is the registry qre_lint check #6 parses: every
/// row's JSON path and family name must be documented in
/// docs/observability.md (and every documented name must still have a row).
/// kind: "counter"/"gauge" read one scalar at the path; "route-map",
/// "class-map", and "site-map" expand an object into one labeled sample per
/// key; "histogram" renders the bucketed latency block cumulatively.
struct MetricRow {
  const char* path;    // dotted path into the /metrics JSON document
  const char* name;    // Prometheus family name
  const char* labels;  // fixed label set, e.g. cache="estimate" ("" = none)
  const char* kind;
  const char* help;
};

const MetricRow kMetricsCatalog[] = {
    {"server.requestsTotal", "qre_requests_total", "", "counter",
     "HTTP requests handled, including pre-router rejects"},
    {"server.uptimeSeconds", "qre_uptime_seconds", "", "gauge",
     "Seconds since the metrics sink was constructed"},
    {"server.connectionsInFlight", "qre_connections_in_flight", "", "gauge",
     "Connections currently held by worker threads"},
    {"server.deadlineExceededTotal", "qre_deadline_exceeded_total", "", "counter",
     "Requests answered 408 after the per-request deadline"},
    {"server.cancelRequestsTotal", "qre_cancel_requests_total", "", "counter",
     "Accepted job cancellation requests"},
    {"server.requestsByRoute", "qre_requests_by_route_total", "", "route-map",
     "Requests by bounded-cardinality route label"},
    {"server.responsesByStatus", "qre_responses_total", "", "class-map",
     "Responses by status class (1xx..5xx)"},
    {"server.latencyMs", "qre_request_latency_ms", "", "histogram",
     "Request latency in milliseconds"},
    {"estimateCache.hits", "qre_cache_hits_total", R"(cache="estimate")", "counter",
     "Cache hits"},
    {"estimateCache.misses", "qre_cache_misses_total", R"(cache="estimate")", "counter",
     "Cache misses"},
    {"estimateCache.evictions", "qre_cache_evictions_total", R"(cache="estimate")",
     "counter", "Cache evictions"},
    {"estimateCache.size", "qre_cache_size", R"(cache="estimate")", "gauge",
     "Entries currently cached"},
    {"estimateCache.capacity", "qre_cache_capacity", R"(cache="estimate")", "gauge",
     "Entry bound (0 = unbounded)"},
    {"factoryCache.hits", "qre_cache_hits_total", R"(cache="factory")", "counter",
     "Cache hits"},
    {"factoryCache.misses", "qre_cache_misses_total", R"(cache="factory")", "counter",
     "Cache misses"},
    {"factoryCache.evictions", "qre_cache_evictions_total", R"(cache="factory")",
     "counter", "Cache evictions"},
    {"factoryCache.size", "qre_cache_size", R"(cache="factory")", "gauge",
     "Entries currently cached"},
    {"factoryCache.capacity", "qre_cache_capacity", R"(cache="factory")", "gauge",
     "Entry bound (0 = unbounded)"},
    {"factoryCache.enabled", "qre_cache_enabled", R"(cache="factory")", "gauge",
     "Whether the cache is enabled"},
    {"store.enabled", "qre_store_enabled", "", "gauge",
     "Whether a persistent estimate store is attached"},
    {"store.hits", "qre_store_hits_total", "", "counter", "Store read-through hits"},
    {"store.misses", "qre_store_misses_total", "", "counter", "Store read-through misses"},
    {"store.records", "qre_store_records", "", "gauge", "Records held by the store"},
    {"store.payloadBytes", "qre_store_payload_bytes", "", "gauge",
     "Payload bytes held by the store"},
    {"store.loaded", "qre_store_loaded_records", "", "gauge",
     "Records loaded at the last restart"},
    {"store.loadSkipped", "qre_store_load_skipped_records", "", "gauge",
     "Corrupt records skipped at the last load"},
    {"store.persists", "qre_store_persists_total", "", "counter",
     "Completed store persists"},
    {"jobs.queued", "qre_jobs_queued", "", "gauge", "Jobs waiting in the backlog"},
    {"jobs.running", "qre_jobs_running", "", "gauge", "Jobs currently running"},
    {"jobs.succeeded", "qre_jobs_succeeded_total", "", "counter", "Jobs that succeeded"},
    {"jobs.failed", "qre_jobs_failed_total", "", "counter", "Jobs that failed"},
    {"jobs.cancelled", "qre_jobs_cancelled_total", "", "counter", "Jobs cancelled"},
    {"jobs.backlogLimit", "qre_jobs_backlog_limit", "", "gauge",
     "Backlog bound that makes POST /v2/jobs answer 429"},
    {"jobs.workers", "qre_jobs_workers", "", "gauge", "Job-queue worker threads"},
    {"client.retriesTotal", "qre_client_retries_total", "", "counter",
     "Retries performed by in-process HTTP clients"},
    {"failpoints.compiledIn", "qre_failpoints_compiled_in", "", "gauge",
     "Whether QRE_FAILPOINT hooks are compiled in"},
    {"failpoints.active", "qre_failpoints_active", "", "gauge",
     "Currently armed failpoint terms"},
    {"failpoints.triggered", "qre_failpoint_triggered_total", "", "site-map",
     "Failpoint triggers by site"},
    {"trace.enabled", "qre_trace_enabled", "", "gauge",
     "Whether the span tracer is recording"},
    {"trace.events", "qre_trace_events", "", "gauge", "Events held in the trace ring"},
    {"trace.dropped", "qre_trace_dropped_total", "", "counter",
     "Trace events overwritten because the ring was full"},
    {"trace.capacity", "qre_trace_capacity", "", "gauge", "Trace ring capacity"},
};

/// Walks a dotted path ("server.requestsTotal") into the document.
const json::Value* find_path(const json::Value& doc, const std::string& path) {
  const json::Value* node = &doc;
  std::size_t begin = 0;
  while (begin <= path.size()) {
    const std::size_t dot = path.find('.', begin);
    const std::string key =
        path.substr(begin, dot == std::string::npos ? std::string::npos : dot - begin);
    if (!node->is_object()) return nullptr;
    node = node->find(key);
    if (node == nullptr) return nullptr;
    if (dot == std::string::npos) break;
    begin = dot + 1;
  }
  return node;
}

/// Sample value formatting: integral values print exactly, the rest as the
/// JSON writer's shortest round-trip text (both are legal exposition-format
/// floats). Booleans are 1/0.
std::string format_number(const json::Value& v) {
  double d = 0;
  if (v.is_bool()) {
    d = v.as_bool() ? 1 : 0;
  } else if (v.is_number()) {
    d = v.as_double();
  } else {
    return {};
  }
  if (std::nearbyint(d) == d && std::fabs(d) < 9e15) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%lld", static_cast<long long>(d));
    return buffer;
  }
  if (std::isnan(d)) return "NaN";  // JSON text would say null
  if (std::isinf(d)) return d > 0 ? "+Inf" : "-Inf";
  return json::Value(d).dump();
}

/// Label-value escaping per the exposition format: \\, \", \n.
std::string escape_label(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// # HELP / # TYPE once per family, however many catalog rows share it.
void family_header(std::string& out, std::set<std::string>& emitted, const char* name,
                   const char* type, const char* help) {
  if (!emitted.insert(name).second) return;
  out += "# HELP ";
  out += name;
  out += ' ';
  out += help;
  out += "\n# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

void sample(std::string& out, const char* name, const std::string& labels,
            const std::string& value) {
  out += name;
  if (!labels.empty()) {
    out += '{';
    out += labels;
    out += '}';
  }
  out += ' ';
  out += value;
  out += '\n';
}

void emit_map(std::string& out, std::set<std::string>& emitted, const MetricRow& row,
              const json::Value& object, const char* label_key) {
  if (!object.is_object()) return;
  family_header(out, emitted, row.name, "counter", row.help);
  for (const auto& [key, value] : object.as_object()) {
    const std::string number = format_number(value);
    if (number.empty()) continue;
    sample(out, row.name,
           std::string(label_key) + "=\"" + escape_label(key) + "\"", number);
  }
}

void emit_histogram(std::string& out, std::set<std::string>& emitted,
                    const MetricRow& row, const json::Value& block) {
  if (!block.is_object()) return;
  const json::Value* bounds = block.find("bucketUpperBoundsMs");
  const json::Value* counts = block.find("counts");
  const json::Value* sum = block.find("totalMs");
  const json::Value* count = block.find("count");
  if (bounds == nullptr || counts == nullptr || !bounds->is_array() ||
      !counts->is_array()) {
    return;
  }
  family_header(out, emitted, row.name, "histogram", row.help);
  const std::string name = row.name;
  // The JSON counts are per-bucket (last = overflow); Prometheus buckets
  // are cumulative and end at +Inf.
  std::uint64_t cumulative = 0;
  const json::Array& count_array = counts->as_array();
  const json::Array& bound_array = bounds->as_array();
  for (std::size_t i = 0; i < bound_array.size() && i < count_array.size(); ++i) {
    cumulative += count_array[i].as_uint();
    sample(out, (name + "_bucket").c_str(), "le=\"" + format_number(bound_array[i]) + "\"",
           std::to_string(cumulative));
  }
  for (std::size_t i = bound_array.size(); i < count_array.size(); ++i) {
    cumulative += count_array[i].as_uint();
  }
  sample(out, (name + "_bucket").c_str(), "le=\"+Inf\"", std::to_string(cumulative));
  if (sum != nullptr) sample(out, (name + "_sum").c_str(), "", format_number(*sum));
  if (count != nullptr) {
    sample(out, (name + "_count").c_str(), "", format_number(*count));
  }
}

}  // namespace

std::string to_prometheus_text(const json::Value& metrics_document) {
  std::string out;
  out.reserve(4096);
  std::set<std::string> emitted;
  for (const MetricRow& row : kMetricsCatalog) {
    const json::Value* value = find_path(metrics_document, row.path);
    if (value == nullptr) continue;  // e.g. store counters with the store off
    const std::string kind = row.kind;
    if (kind == "route-map") {
      emit_map(out, emitted, row, *value, "route");
    } else if (kind == "class-map") {
      emit_map(out, emitted, row, *value, "class");
    } else if (kind == "site-map") {
      emit_map(out, emitted, row, *value, "site");
    } else if (kind == "histogram") {
      emit_histogram(out, emitted, row, *value);
    } else {
      const std::string number = format_number(*value);
      if (number.empty()) continue;
      family_header(out, emitted, row.name, row.kind, row.help);
      sample(out, row.name, row.labels, number);
    }
  }
  return out;
}

}  // namespace qre::server
