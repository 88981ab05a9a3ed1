// Tests of the serving-metrics sink (src/server/metrics.*) and its
// Prometheus text exposition (src/server/prometheus.*): latency bucket
// boundaries, status-class accounting, per-route insertion order, and the
// JSON-document → exposition-format rendering (cumulative buckets, labeled
// families, escaping).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "json/json.hpp"
#include "server/metrics.hpp"
#include "server/prometheus.hpp"

namespace qre {
namespace {

using server::Metrics;

// ------------------------------------------------------ Metrics JSON ---

TEST(Metrics, LatencyBucketBoundariesAreInclusiveUpperBounds) {
  Metrics m;
  const std::vector<double>& bounds = Metrics::latency_buckets_ms();
  ASSERT_GE(bounds.size(), 3u);
  m.record("GET /metrics", 200, bounds[0]);         // exactly on a bound: le
  m.record("GET /metrics", 200, bounds[0] + 0.001); // just past: next bucket
  m.record("GET /metrics", 200, bounds.back() + 1); // beyond all: overflow

  const json::Value doc = m.to_json();
  const json::Value& latency = doc.at("latencyMs");
  const json::Array& counts = latency.at("counts").as_array();
  ASSERT_EQ(counts.size(), bounds.size() + 1);  // + overflow bucket
  EXPECT_EQ(counts[0].as_uint(), 1u);
  EXPECT_EQ(counts[1].as_uint(), 1u);
  EXPECT_EQ(counts.back().as_uint(), 1u);
  EXPECT_EQ(latency.at("count").as_uint(), 3u);

  const json::Array& reported = latency.at("bucketUpperBoundsMs").as_array();
  ASSERT_EQ(reported.size(), bounds.size());
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(reported[i].as_double(), bounds[i]);
    if (i > 0) {
      EXPECT_GT(bounds[i], bounds[i - 1]);  // strictly increasing
    }
  }
}

TEST(Metrics, StatusClassesBucketByHundreds) {
  Metrics m;
  m.record("GET /a", 200, 1.0);
  m.record("GET /a", 204, 1.0);
  m.record("GET /a", 301, 1.0);
  m.record("GET /a", 404, 1.0);
  m.record("GET /a", 429, 1.0);
  m.record("GET /a", 500, 1.0);
  m.record("GET /a", 999, 1.0);  // out of range: counted in total only

  const json::Value by_status = m.to_json().at("responsesByStatus");
  EXPECT_EQ(by_status.at("1xx").as_uint(), 0u);
  EXPECT_EQ(by_status.at("2xx").as_uint(), 2u);
  EXPECT_EQ(by_status.at("3xx").as_uint(), 1u);
  EXPECT_EQ(by_status.at("4xx").as_uint(), 2u);
  EXPECT_EQ(by_status.at("5xx").as_uint(), 1u);
  EXPECT_EQ(m.requests_total(), 7u);
}

TEST(Metrics, RoutesKeepInsertionOrderAndMergeRepeats) {
  Metrics m;
  m.record("POST /v2/estimate", 200, 1.0);
  m.record("GET /metrics", 200, 1.0);
  m.record("POST /v2/estimate", 400, 1.0);
  m.record("(malformed)", 400, 0.0);  // pre-router reject label

  const json::Value doc = m.to_json();
  const json::Object& by_route = doc.at("requestsByRoute").as_object();
  ASSERT_EQ(by_route.size(), 3u);
  EXPECT_EQ(by_route[0].first, "POST /v2/estimate");
  EXPECT_EQ(by_route[0].second.as_uint(), 2u);
  EXPECT_EQ(by_route[1].first, "GET /metrics");
  EXPECT_EQ(by_route[2].first, "(malformed)");
  EXPECT_EQ(by_route[2].second.as_uint(), 1u);
}

TEST(Metrics, FreshInstanceRendersZeroedDocument) {
  Metrics m;
  const json::Value doc = m.to_json();
  EXPECT_EQ(doc.at("requestsTotal").as_uint(), 0u);
  EXPECT_EQ(doc.at("connectionsInFlight").as_int(), 0);
  EXPECT_EQ(doc.at("deadlineExceededTotal").as_uint(), 0u);
  const json::Array& counts = doc.at("latencyMs").at("counts").as_array();
  ASSERT_EQ(counts.size(), Metrics::latency_buckets_ms().size() + 1);
  for (const json::Value& c : counts) EXPECT_EQ(c.as_uint(), 0u);
}

// ------------------------------------------------- Prometheus text ------

TEST(Prometheus, RendersCountersGaugesAndLabeledMaps) {
  const json::Value doc = json::parse(R"({
    "server": {
      "requestsTotal": 12,
      "uptimeSeconds": 3.5,
      "connectionsInFlight": 2,
      "requestsByRoute": {"POST /v2/estimate": 7, "GET /metrics": 5},
      "responsesByStatus": {"2xx": 10, "4xx": 1, "5xx": 1}
    },
    "estimateCache": {"hits": 4, "misses": 8},
    "trace": {"enabled": true, "events": 100, "dropped": 0, "capacity": 65536}
  })");
  const std::string text = server::to_prometheus_text(doc);

  EXPECT_NE(text.find("# TYPE qre_requests_total counter"), std::string::npos);
  EXPECT_NE(text.find("qre_requests_total 12"), std::string::npos);
  EXPECT_NE(text.find("# TYPE qre_uptime_seconds gauge"), std::string::npos);
  EXPECT_NE(text.find("qre_uptime_seconds 3.5"), std::string::npos);
  EXPECT_NE(text.find("qre_connections_in_flight 2"), std::string::npos);
  EXPECT_NE(text.find(R"(qre_requests_by_route_total{route="POST /v2/estimate"} 7)"),
            std::string::npos);
  EXPECT_NE(text.find(R"(qre_responses_total{class="2xx"} 10)"), std::string::npos);
  EXPECT_NE(text.find(R"(qre_cache_hits_total{cache="estimate"} 4)"), std::string::npos);
  // Booleans render as 0/1 gauges.
  EXPECT_NE(text.find("qre_trace_enabled 1"), std::string::npos);
  // Every line is a sample or a # comment, and the text ends in a newline.
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.back(), '\n');
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    ASSERT_NE(end, std::string::npos);  // no unterminated final line
    const std::string line = text.substr(start, end - start);
    ASSERT_FALSE(line.empty());
    EXPECT_TRUE(line[0] == '#' || line.compare(0, 4, "qre_") == 0) << line;
    start = end + 1;
  }
}

TEST(Prometheus, HistogramIsCumulativeWithInfAndSum) {
  const json::Value doc = json::parse(R"({
    "server": {
      "latencyMs": {
        "bucketUpperBoundsMs": [1, 5, 25],
        "counts": [3, 2, 1, 4],
        "totalMs": 123.5,
        "count": 10
      }
    }
  })");
  const std::string text = server::to_prometheus_text(doc);

  EXPECT_NE(text.find("# TYPE qre_request_latency_ms histogram"), std::string::npos);
  // Per-bucket JSON counts become cumulative exposition counts.
  EXPECT_NE(text.find(R"(qre_request_latency_ms_bucket{le="1"} 3)"), std::string::npos);
  EXPECT_NE(text.find(R"(qre_request_latency_ms_bucket{le="5"} 5)"), std::string::npos);
  EXPECT_NE(text.find(R"(qre_request_latency_ms_bucket{le="25"} 6)"), std::string::npos);
  EXPECT_NE(text.find(R"(qre_request_latency_ms_bucket{le="+Inf"} 10)"), std::string::npos);
  EXPECT_NE(text.find("qre_request_latency_ms_sum 123.5"), std::string::npos);
  EXPECT_NE(text.find("qre_request_latency_ms_count 10"), std::string::npos);
}

TEST(Prometheus, NonIntegralSamplesKeepFullPrecision) {
  const json::Value doc = json::parse(R"({
    "server": {
      "uptimeSeconds": 86400.125,
      "latencyMs": {
        "bucketUpperBoundsMs": [0.5, 2.5],
        "counts": [1, 0, 0],
        "totalMs": 1234567.25,
        "count": 1
      }
    }
  })");
  const std::string text = server::to_prometheus_text(doc);
  EXPECT_NE(text.find("qre_request_latency_ms_sum 1234567.25\n"), std::string::npos) << text;
  EXPECT_NE(text.find("qre_uptime_seconds 86400.125\n"), std::string::npos);
  EXPECT_NE(text.find(R"(qre_request_latency_ms_bucket{le="2.5"} 1)"), std::string::npos);
  EXPECT_EQ(text.find("e+06"), std::string::npos);
}

TEST(Prometheus, EscapesLabelValues) {
  const json::Value doc = json::parse(R"({
    "server": {"requestsByRoute": {"GET /weird\"route\\path": 1}}
  })");
  const std::string text = server::to_prometheus_text(doc);
  EXPECT_NE(text.find(R"(route="GET /weird\"route\\path")"), std::string::npos);
}

TEST(Prometheus, OmitsAbsentFamiliesAndEmptyMaps) {
  // A minimal document (store disabled, no failpoints): absent JSON paths
  // must produce no output rather than zero-valued samples.
  const json::Value doc = json::parse(R"({"server": {"requestsTotal": 1}})");
  const std::string text = server::to_prometheus_text(doc);
  EXPECT_NE(text.find("qre_requests_total 1"), std::string::npos);
  EXPECT_EQ(text.find("qre_store_"), std::string::npos);
  EXPECT_EQ(text.find("qre_cache_"), std::string::npos);
  EXPECT_EQ(text.find("qre_failpoint"), std::string::npos);
  EXPECT_EQ(text.find("qre_requests_by_route_total"), std::string::npos);
}

TEST(Prometheus, LiveMetricsDocumentRoundTrips) {
  // End-to-end on a real Metrics instance wrapped the way the router wraps
  // it: the exposition must carry the recorded totals.
  Metrics m;
  m.record("GET /metrics", 200, 0.4);
  m.record("POST /v2/estimate", 500, 80.0);
  json::Object root;
  root.emplace_back("server", m.to_json());
  const std::string text = server::to_prometheus_text(json::Value(std::move(root)));
  EXPECT_NE(text.find("qre_requests_total 2"), std::string::npos);
  EXPECT_NE(text.find(R"(qre_responses_total{class="5xx"} 1)"), std::string::npos);
  EXPECT_NE(text.find(R"(qre_request_latency_ms_bucket{le="0.5"} 1)"), std::string::npos);
  EXPECT_NE(text.find("qre_request_latency_ms_count 2"), std::string::npos);
}

}  // namespace
}  // namespace qre
