// Tests of the serving-metrics sink (src/server/metrics.*) and the metrics
// registry that renders it (src/server/metrics_registry.*): latency bucket
// boundaries, status-class accounting, per-route insertion order, section
// consistency under concurrent writers, and the Prometheus text exposition
// (cumulative buckets, labeled families, escaping, detached sources).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "json/json.hpp"
#include "server/metrics.hpp"
#include "server/metrics_registry.hpp"
#include "service/cache.hpp"

namespace qre {
namespace {

using server::MetricSources;
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

TEST(Metrics, ServerSectionStaysConsistentUnderConcurrentRecords) {
  // Every value of the section comes from one snapshot, so a render never
  // sees a request counted in the total but not yet in its bucket.
  Metrics m;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&m, &stop, t] {
      for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        m.record("GET /metrics", 200, static_cast<double>((i + t) % 40));
      }
    });
  }
  int inconsistent = 0;
  for (int render = 0; render < 1000; ++render) {
    const json::Value doc = server::metrics_json(MetricSources{.metrics = &m}, {"server"});
    const json::Value& section = doc.at("server");
    const json::Value& latency = section.at("latencyMs");
    std::uint64_t bucketed = 0;
    for (const json::Value& c : latency.at("counts").as_array()) bucketed += c.as_uint();
    const std::uint64_t total = section.at("requestsTotal").as_uint();
    if (latency.at("count").as_uint() != total || bucketed != total) ++inconsistent;
  }
  stop.store(true);
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(inconsistent, 0) << "renders whose requestsTotal, latencyMs.count and the "
                                "sum of latencyMs.counts disagree";
}

TEST(MetricsRegistry, SectionsSelectTheCacheStatsRows) {
  // qre_cli --cache-stats: three sections, a detached store reads
  // {"enabled": false}, and the detached server/jobs sources are not read.
  service::EstimateCache cache(64);
  const json::Value doc = server::metrics_json(MetricSources{.estimate_cache = &cache},
                                               {"estimateCache", "factoryCache", "store"});
  const json::Object& sections = doc.as_object();
  ASSERT_EQ(sections.size(), 3u);
  EXPECT_EQ(sections[0].first, "estimateCache");
  EXPECT_EQ(sections[1].first, "factoryCache");
  EXPECT_EQ(sections[2].first, "store");
  EXPECT_EQ(doc.at("estimateCache").at("capacity").as_uint(), 64u);
  EXPECT_EQ(doc.at("store").dump(), R"({"enabled":false})");
}

// ------------------------------------------------- Prometheus text ------

TEST(Prometheus, RendersCountersGaugesAndLabeledMaps) {
  Metrics m;
  for (int i = 0; i < 7; ++i) m.record("POST /v2/estimate", 200, 1.0);
  for (int i = 0; i < 5; ++i) m.record("GET /metrics", i == 0 ? 404 : 200, 1.0);
  service::EstimateCache cache(16);
  for (int i = 0; i < 3; ++i) {
    cache.get_or_compute("k", [] { return json::Value(json::Object{}); });
  }
  const std::string text =
      server::metrics_prometheus(MetricSources{.metrics = &m, .estimate_cache = &cache});

  EXPECT_NE(text.find("# TYPE qre_requests_total counter"), std::string::npos);
  EXPECT_NE(text.find("qre_requests_total 12\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE qre_uptime_seconds gauge"), std::string::npos);
  EXPECT_NE(text.find("qre_connections_in_flight 0\n"), std::string::npos);
  EXPECT_NE(text.find(R"(qre_requests_by_route_total{route="POST /v2/estimate"} 7)"),
            std::string::npos);
  EXPECT_NE(text.find(R"(qre_responses_total{class="2xx"} 11)"), std::string::npos);
  EXPECT_NE(text.find(R"(qre_responses_total{class="4xx"} 1)"), std::string::npos);
  EXPECT_NE(text.find(R"(qre_cache_hits_total{cache="estimate"} 2)"), std::string::npos);
  EXPECT_NE(text.find(R"(qre_cache_misses_total{cache="estimate"} 1)"), std::string::npos);
  EXPECT_NE(text.find(R"(qre_cache_capacity{cache="estimate"} 16)"), std::string::npos);
  // Booleans render as 0/1 gauges.
  EXPECT_NE(text.find(R"(qre_cache_enabled{cache="factory"} 1)"), std::string::npos);
  EXPECT_NE(text.find("qre_store_enabled 0\n"), std::string::npos);
  // HELP/TYPE once per family, even when two rows share it.
  const std::string type_line = "# TYPE qre_cache_hits_total counter";
  const std::size_t first = text.find(type_line);
  ASSERT_NE(first, std::string::npos);
  EXPECT_EQ(text.find(type_line, first + 1), std::string::npos);
  EXPECT_NE(text.find(R"(qre_cache_hits_total{cache="factory"})"), std::string::npos);
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
  Metrics m;
  m.record("GET /a", 200, 0.25);     // le 0.5
  m.record("GET /a", 200, 0.75);     // le 1
  m.record("GET /a", 200, 2.0);      // le 2.5
  m.record("GET /a", 200, 20000.5);  // overflow
  const std::string text = server::metrics_prometheus(MetricSources{.metrics = &m});

  EXPECT_NE(text.find("# TYPE qre_request_latency_ms histogram"), std::string::npos);
  // Per-bucket JSON counts become cumulative exposition counts.
  EXPECT_NE(text.find(R"(qre_request_latency_ms_bucket{le="0.5"} 1)"), std::string::npos);
  EXPECT_NE(text.find(R"(qre_request_latency_ms_bucket{le="1"} 2)"), std::string::npos);
  EXPECT_NE(text.find(R"(qre_request_latency_ms_bucket{le="2.5"} 3)"), std::string::npos);
  EXPECT_NE(text.find(R"(qre_request_latency_ms_bucket{le="10000"} 3)"), std::string::npos);
  EXPECT_NE(text.find(R"(qre_request_latency_ms_bucket{le="+Inf"} 4)"), std::string::npos);
  EXPECT_NE(text.find("qre_request_latency_ms_sum 20003.5\n"), std::string::npos) << text;
  EXPECT_NE(text.find("qre_request_latency_ms_count 4\n"), std::string::npos);
}

TEST(Prometheus, NonIntegralSamplesKeepFullPrecision) {
  Metrics m;
  m.record("GET /a", 200, 1234567.25);
  const std::string text = server::metrics_prometheus(MetricSources{.metrics = &m});
  EXPECT_NE(text.find("qre_request_latency_ms_sum 1234567.25\n"), std::string::npos) << text;
  EXPECT_NE(text.find(R"(qre_request_latency_ms_bucket{le="2.5"} 0)"), std::string::npos);
  EXPECT_NE(text.find(R"(qre_request_latency_ms_bucket{le="10"} 0)"), std::string::npos);
  EXPECT_EQ(text.find("e+0"), std::string::npos);
}

TEST(Prometheus, EscapesLabelValues) {
  Metrics m;
  m.record("GET /weird\"route\\path\nnext", 200, 1.0);
  const std::string text = server::metrics_prometheus(MetricSources{.metrics = &m});
  EXPECT_NE(text.find(R"(route="GET /weird\"route\\path\nnext")"), std::string::npos) << text;
}

TEST(Prometheus, OmitsDetachedSourcesAndEmptyMaps) {
  // Only the sink attached, nothing recorded: the detached estimate cache,
  // store and job queue produce no samples (the store reports itself
  // disabled), and empty maps produce no labeled samples.
  Metrics m;
  const std::string text = server::metrics_prometheus(MetricSources{.metrics = &m});
  EXPECT_NE(text.find("qre_requests_total 0\n"), std::string::npos);
  EXPECT_EQ(text.find(R"(cache="estimate")"), std::string::npos);
  EXPECT_NE(text.find(R"(cache="factory")"), std::string::npos);  // process-wide
  EXPECT_NE(text.find("qre_store_enabled 0\n"), std::string::npos);
  EXPECT_EQ(text.find("qre_store_hits"), std::string::npos);
  EXPECT_EQ(text.find("qre_store_records"), std::string::npos);
  EXPECT_EQ(text.find("qre_jobs_"), std::string::npos);
  EXPECT_EQ(text.find("qre_requests_by_route_total{"), std::string::npos);
  EXPECT_EQ(text.find("qre_failpoint_triggered_total{"), std::string::npos);

  // Without the sink, the server rows go too.
  const std::string bare = server::metrics_prometheus(MetricSources{});
  EXPECT_EQ(bare.find("qre_requests_total"), std::string::npos);
  EXPECT_EQ(bare.find("qre_request_latency_ms"), std::string::npos);
  EXPECT_NE(bare.find("qre_store_enabled 0\n"), std::string::npos);
}

TEST(Prometheus, LiveMetricsDocumentRoundTrips) {
  // The exposition carries the same totals as the JSON document.
  Metrics m;
  m.record("GET /metrics", 200, 0.4);
  m.record("POST /v2/estimate", 500, 80.0);
  const std::string text = server::metrics_prometheus(MetricSources{.metrics = &m});
  EXPECT_NE(text.find("qre_requests_total 2"), std::string::npos);
  EXPECT_NE(text.find(R"(qre_responses_total{class="5xx"} 1)"), std::string::npos);
  EXPECT_NE(text.find(R"(qre_request_latency_ms_bucket{le="0.5"} 1)"), std::string::npos);
  EXPECT_NE(text.find("qre_request_latency_ms_count 2"), std::string::npos);
  EXPECT_EQ(m.to_json().at("requestsTotal").as_uint(), 2u);
}

}  // namespace
}  // namespace qre
