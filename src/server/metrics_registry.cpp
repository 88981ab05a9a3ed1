#include "server/metrics_registry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <set>
#include <string_view>
#include <utility>

#include "common/failpoint.hpp"
#include "common/trace.hpp"
#include "server/client.hpp"
#include "tfactory/factory_cache.hpp"

namespace qre::server {

namespace {

using V = json::Value;

/// One read of each source a render includes, so the values of a section
/// agree with each other. The caches count with atomics and are read
/// field by field, through `src` or FactoryCache::global().
struct Snapshot {
  MetricSources src;
  std::optional<Metrics::Snapshot> server;
  std::optional<store::EstimateStore::Stats> store;
  std::optional<JobQueue::Stats> jobs;
  std::vector<std::pair<std::string, std::uint64_t>> failpoints;
  trace::RingStats trace;
};

bool wanted(const std::vector<std::string>& sections, std::string_view section) {
  return sections.empty() || std::find(sections.begin(), sections.end(), section) != sections.end();
}

/// Whether a render includes the row at `path`: its section is wanted and
/// its source attached. A detached store still reports store.enabled.
bool included(std::string_view path, const MetricSources& src,
              const std::vector<std::string>& sections) {
  const std::string_view section = path.substr(0, path.find('.'));
  if (!wanted(sections, section)) return false;
  if (section == "server") return src.metrics != nullptr;
  if (section == "estimateCache") return src.estimate_cache != nullptr;
  if (section == "store") return src.store != nullptr || path == "store.enabled";
  if (section == "jobs") return src.jobs != nullptr;
  return true;  // process-wide sources
}

Snapshot take_snapshot(const MetricSources& src, const std::vector<std::string>& sections) {
  Snapshot s;
  s.src = src;
  if (src.metrics != nullptr && wanted(sections, "server")) s.server = src.metrics->snapshot();
  if (src.store != nullptr && wanted(sections, "store")) s.store = src.store->stats();
  if (src.jobs != nullptr && wanted(sections, "jobs")) s.jobs = src.jobs->stats();
  if (wanted(sections, "failpoints")) s.failpoints = failpoint::triggered();
  if (wanted(sections, "trace")) s.trace = trace::ring_stats();
  return s;
}

V counts(const std::vector<std::pair<std::string, std::uint64_t>>& rows) {
  json::Object out;
  for (const auto& [key, count] : rows) out.emplace_back(key, V(count));
  return V(std::move(out));
}

V status_classes(const Metrics::Snapshot& m) {
  static const char* kClasses[] = {"1xx", "2xx", "3xx", "4xx", "5xx"};
  json::Object out;
  for (std::size_t i = 0; i < m.by_status_class.size(); ++i) {
    out.emplace_back(kClasses[i], V(m.by_status_class[i]));
  }
  return V(std::move(out));
}

V latency(const Metrics::Snapshot& m) {
  json::Array bounds;
  for (double bound : Metrics::latency_buckets_ms()) bounds.push_back(V(bound));
  json::Array counts;
  for (std::uint64_t count : m.bucket_counts) counts.push_back(V(count));
  json::Object out;
  out.emplace_back("bucketUpperBoundsMs", V(std::move(bounds)));
  out.emplace_back("counts", V(std::move(counts)));
  out.emplace_back("totalMs", V(m.latency_total_ms));
  out.emplace_back("count", V(m.requests_total));
  return V(std::move(out));
}

const FactoryCache& factories() { return FactoryCache::global(); }

/// kCounterMap: an object of counts, one sample per key labeled
/// `<labels>="<key>"`. kHistogram: the latency() block. kText: a string,
/// JSON only.
enum Kind { kCounter, kGauge, kCounterMap, kHistogram, kText };

struct MetricRow {
  const char* path;    // "section.field" in the JSON document
  const char* family;  // Prometheus family; nullptr = JSON only
  const char* labels;  // fixed label set, or the label key of a kCounterMap
  Kind kind;
  const char* help;
  V (*read)(const Snapshot&);  // called only when the row is included()
};

/// The registry, in document order. Rows that share a family (the two
/// caches) differ only in their labels.
const MetricRow kMetricRows[] = {
    {"server.requestsTotal", "qre_requests_total", "", kCounter,
     "HTTP requests handled, including pre-router rejects",
     [](auto& s) { return V(s.server->requests_total); }},
    {"server.uptimeSeconds", "qre_uptime_seconds", "", kGauge,
     "Seconds since the metrics sink was constructed",
     [](auto& s) { return V(s.server->uptime_seconds); }},
    {"server.connectionsInFlight", "qre_connections_in_flight", "", kGauge,
     "Connections currently held by worker threads",
     [](auto& s) { return V(s.server->connections_in_flight); }},
    {"server.deadlineExceededTotal", "qre_deadline_exceeded_total", "", kCounter,
     "Requests answered 408 after the per-request deadline",
     [](auto& s) { return V(s.server->deadline_exceeded_total); }},
    {"server.cancelRequestsTotal", "qre_cancel_requests_total", "", kCounter,
     "Accepted job cancellation requests",
     [](auto& s) { return V(s.server->cancel_requests_total); }},
    {"server.requestsByRoute", "qre_requests_by_route_total", "route", kCounterMap,
     "Requests by bounded-cardinality route label",
     [](auto& s) { return counts(s.server->by_route); }},
    {"server.responsesByStatus", "qre_responses_total", "class", kCounterMap,
     "Responses by status class (1xx..5xx)", [](auto& s) { return status_classes(*s.server); }},
    {"server.latencyMs", "qre_request_latency_ms", "", kHistogram,
     "Request latency in milliseconds", [](auto& s) { return latency(*s.server); }},
    {"estimateCache.hits", "qre_cache_hits_total", R"(cache="estimate")", kCounter, "Cache hits",
     [](auto& s) { return V(s.src.estimate_cache->hits()); }},
    {"estimateCache.misses", "qre_cache_misses_total", R"(cache="estimate")", kCounter,
     "Cache misses", [](auto& s) { return V(s.src.estimate_cache->misses()); }},
    {"estimateCache.evictions", "qre_cache_evictions_total", R"(cache="estimate")", kCounter,
     "Cache evictions", [](auto& s) { return V(s.src.estimate_cache->evictions()); }},
    {"estimateCache.size", "qre_cache_size", R"(cache="estimate")", kGauge,
     "Entries currently cached", [](auto& s) { return V(s.src.estimate_cache->size()); }},
    {"estimateCache.capacity", "qre_cache_capacity", R"(cache="estimate")", kGauge,
     "Entry bound (0 = unbounded)", [](auto& s) { return V(s.src.estimate_cache->capacity()); }},
    {"factoryCache.hits", "qre_cache_hits_total", R"(cache="factory")", kCounter, "Cache hits",
     [](auto&) { return V(factories().hits()); }},
    {"factoryCache.misses", "qre_cache_misses_total", R"(cache="factory")", kCounter,
     "Cache misses", [](auto&) { return V(factories().misses()); }},
    {"factoryCache.evictions", "qre_cache_evictions_total", R"(cache="factory")", kCounter,
     "Cache evictions", [](auto&) { return V(factories().evictions()); }},
    {"factoryCache.size", "qre_cache_size", R"(cache="factory")", kGauge,
     "Entries currently cached", [](auto&) { return V(factories().size()); }},
    {"factoryCache.capacity", "qre_cache_capacity", R"(cache="factory")", kGauge,
     "Entry bound (0 = unbounded)", [](auto&) { return V(factories().capacity()); }},
    {"factoryCache.enabled", "qre_cache_enabled", R"(cache="factory")", kGauge,
     "Whether the cache is enabled", [](auto&) { return V(factories().enabled()); }},
    {"store.enabled", "qre_store_enabled", "", kGauge,
     "Whether a persistent estimate store is attached",
     [](auto& s) { return V(s.store.has_value()); }},
    {"store.hits", "qre_store_hits_total", "", kCounter, "Store read-through hits",
     [](auto& s) { return V(s.store->hits); }},
    {"store.misses", "qre_store_misses_total", "", kCounter, "Store read-through misses",
     [](auto& s) { return V(s.store->misses); }},
    {"store.records", "qre_store_records", "", kGauge, "Records held by the store",
     [](auto& s) { return V(s.store->records); }},
    {"store.payloadBytes", "qre_store_payload_bytes", "", kGauge,
     "Payload bytes held by the store", [](auto& s) { return V(s.store->payload_bytes); }},
    {"store.loaded", "qre_store_loaded_records", "", kGauge, "Records loaded at the last restart",
     [](auto& s) { return V(s.store->loaded); }},
    {"store.loadSkipped", "qre_store_load_skipped_records", "", kGauge,
     "Corrupt records skipped at the last load", [](auto& s) { return V(s.store->load_skipped); }},
    {"store.persists", "qre_store_persists_total", "", kCounter, "Completed store persists",
     [](auto& s) { return V(s.store->persists); }},
    {"store.path", nullptr, "", kText, "Path of the store file",
     [](auto& s) { return V(s.store->path); }},
    {"jobs.queued", "qre_jobs_queued", "", kGauge, "Jobs waiting in the backlog",
     [](auto& s) { return V(s.jobs->queued); }},
    {"jobs.running", "qre_jobs_running", "", kGauge, "Jobs currently running",
     [](auto& s) { return V(s.jobs->running); }},
    {"jobs.succeeded", "qre_jobs_succeeded_total", "", kCounter, "Jobs that succeeded",
     [](auto& s) { return V(s.jobs->succeeded); }},
    {"jobs.failed", "qre_jobs_failed_total", "", kCounter, "Jobs that failed",
     [](auto& s) { return V(s.jobs->failed); }},
    {"jobs.cancelled", "qre_jobs_cancelled_total", "", kCounter, "Jobs cancelled",
     [](auto& s) { return V(s.jobs->cancelled); }},
    {"jobs.backlogLimit", "qre_jobs_backlog_limit", "", kGauge,
     "Backlog bound that makes POST /v2/jobs answer 429",
     [](auto& s) { return V(s.jobs->backlog_limit); }},
    {"jobs.workers", "qre_jobs_workers", "", kGauge, "Job-queue worker threads",
     [](auto& s) { return V(s.jobs->workers); }},
    {"client.retriesTotal", "qre_client_retries_total", "", kCounter,
     "Retries performed by in-process HTTP clients",
     [](auto&) { return V(Client::process_retries()); }},
    {"failpoints.compiledIn", "qre_failpoints_compiled_in", "", kGauge,
     "Whether QRE_FAILPOINT hooks are compiled in",
     [](auto&) { return V(failpoint::compiled_in()); }},
    {"failpoints.active", "qre_failpoints_active", "", kGauge, "Currently armed failpoint terms",
     [](auto& s) { return V(static_cast<int>(s.failpoints.size())); }},
    {"failpoints.triggered", "qre_failpoint_triggered_total", "site", kCounterMap,
     "Failpoint triggers by site", [](auto& s) { return counts(s.failpoints); }},
    {"trace.enabled", "qre_trace_enabled", "", kGauge, "Whether the span tracer is recording",
     [](auto& s) { return V(s.trace.enabled); }},
    {"trace.events", "qre_trace_events", "", kGauge, "Events held in the trace ring",
     [](auto& s) { return V(s.trace.events); }},
    {"trace.dropped", "qre_trace_dropped_total", "", kCounter,
     "Trace events overwritten because the ring was full",
     [](auto& s) { return V(s.trace.dropped); }},
    {"trace.capacity", "qre_trace_capacity", "", kGauge, "Trace ring capacity",
     [](auto& s) { return V(s.trace.capacity); }},
};

const char* prometheus_type(Kind kind) {
  return kind == kGauge ? "gauge" : kind == kHistogram ? "histogram" : "counter";
}

/// Integral values print exactly, the rest as the JSON writer's shortest
/// round-trip text (both are legal exposition-format floats). Booleans
/// are 1/0.
std::string format_number(const V& v) {
  const double d = v.is_bool() ? (v.as_bool() ? 1 : 0) : v.as_double();
  if (std::nearbyint(d) == d && std::fabs(d) < 9e15) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%lld", static_cast<long long>(d));
    return buffer;
  }
  if (std::isnan(d)) return "NaN";  // JSON text would say null
  if (std::isinf(d)) return d > 0 ? "+Inf" : "-Inf";
  return V(d).dump();
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

void sample(std::string& out, const char* family, const char* suffix,
            const std::string& labels, const std::string& value) {
  out += family;
  out += suffix;
  if (!labels.empty()) {
    out += '{';
    out += labels;
    out += '}';
  }
  out += ' ';
  out += value;
  out += '\n';
}

/// The JSON counts are per bucket (the last one is the overflow);
/// Prometheus buckets are cumulative and end at +Inf.
void histogram(std::string& out, const char* family, const V& block) {
  const json::Array& bounds = block.at("bucketUpperBoundsMs").as_array();
  const json::Array& counts = block.at("counts").as_array();
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    cumulative += counts[i].as_uint();
    if (i < bounds.size()) {
      sample(out, family, "_bucket", "le=\"" + format_number(bounds[i]) + "\"",
             std::to_string(cumulative));
    }
  }
  sample(out, family, "_bucket", "le=\"+Inf\"", std::to_string(cumulative));
  sample(out, family, "_sum", "", format_number(block.at("totalMs")));
  sample(out, family, "_count", "", format_number(block.at("count")));
}

}  // namespace

json::Value metrics_json(const MetricSources& sources, const std::vector<std::string>& sections) {
  const Snapshot snapshot = take_snapshot(sources, sections);
  json::Object doc;
  for (const MetricRow& row : kMetricRows) {
    if (!included(row.path, sources, sections)) continue;
    const std::string_view path = row.path;
    const std::string_view section = path.substr(0, path.find('.'));
    if (doc.empty() || doc.back().first != section) {
      doc.emplace_back(std::string(section), json::Object{});
    }
    doc.back().second.as_object().emplace_back(path.substr(section.size() + 1),
                                               row.read(snapshot));
  }
  return V(std::move(doc));
}

std::string metrics_prometheus(const MetricSources& sources) {
  const Snapshot snapshot = take_snapshot(sources, {});
  std::string out;
  std::set<std::string_view> described;
  for (const MetricRow& row : kMetricRows) {
    if (row.family == nullptr || !included(row.path, sources, {})) continue;
    const std::string family = row.family;
    if (described.insert(row.family).second) {
      out += "# HELP " + family + ' ' + row.help + "\n# TYPE " + family + ' ' +
             prometheus_type(row.kind) + '\n';
    }
    const V value = row.read(snapshot);
    if (row.kind == kHistogram) {
      histogram(out, row.family, value);
    } else if (row.kind == kCounterMap) {
      for (const auto& [key, count] : value.as_object()) {
        sample(out, row.family, "", std::string(row.labels) + "=\"" + escape_label(key) + "\"",
               format_number(count));
      }
    } else {
      sample(out, row.family, "", row.labels, format_number(value));
    }
  }
  return out;
}

}  // namespace qre::server
