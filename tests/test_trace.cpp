// Tests of the span/event tracer and per-request timing collector
// (src/common/trace.*): ring bounds + dropped accounting, parent links,
// Chrome Trace JSON export, Collector aggregation/percentiles, and the
// opt-in "timings" block api::run appends for "collectTimings": true.
//
// The tracer is process-global state; every test that enables it disables
// and clears it before returning so tests stay order-independent.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "common/trace.hpp"
#include "json/json.hpp"

namespace qre {
namespace {

using api::EstimateRequest;
using api::EstimateResponse;

/// RAII: whatever the test did, leave the global tracer off and empty.
struct TracerGuard {
  ~TracerGuard() {
    trace::disable();
    trace::clear();
  }
};

const trace::Event* find_event(const std::vector<trace::Event>& events,
                               std::string_view name) {
  for (const trace::Event& e : events) {
    if (e.name != nullptr && name == e.name) return &e;
  }
  return nullptr;
}

// ------------------------------------------------------------- tracer ---

TEST(Trace, DisabledIsInert) {
  TracerGuard guard;
  trace::disable();
  trace::clear();
  {
    QRE_TRACE_SPAN("test.disabled");
    QRE_TRACE_INSTANT("test.disabled.instant");
    // Without a tracer or collector the span never claims an id.
    EXPECT_EQ(trace::current_span(), 0u);
  }
  EXPECT_TRUE(trace::snapshot().empty());
  EXPECT_EQ(trace::ring_stats().dropped, 0u);
  EXPECT_FALSE(trace::enabled());
}

TEST(Trace, SpanNestingRecordsParentLinks) {
  TracerGuard guard;
  trace::enable(1024);
  std::uint64_t outer_id = 0;
  std::uint64_t inner_id = 0;
  {
    trace::Span outer("test.outer");
    outer_id = trace::current_span();
    EXPECT_NE(outer_id, 0u);
    {
      trace::Span inner("test.inner");
      inner_id = trace::current_span();
      EXPECT_NE(inner_id, outer_id);
      QRE_TRACE_INSTANT("test.mark");
    }
    // Closing the inner span restores the outer as current.
    EXPECT_EQ(trace::current_span(), outer_id);
  }
  EXPECT_EQ(trace::current_span(), 0u);

  const std::vector<trace::Event> events = trace::snapshot();
  const trace::Event* outer = find_event(events, "test.outer");
  const trace::Event* inner = find_event(events, "test.inner");
  const trace::Event* mark = find_event(events, "test.mark");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(mark, nullptr);
  EXPECT_EQ(outer->id, outer_id);
  EXPECT_EQ(outer->parent, 0u);
  EXPECT_EQ(inner->parent, outer_id);
  EXPECT_EQ(mark->parent, inner_id);
  EXPECT_GE(outer->dur_ns, inner->dur_ns);  // outer encloses inner
  EXPECT_LT(mark->dur_ns, 0);               // instants have no duration
  EXPECT_EQ(mark->id, 0u);
}

TEST(Trace, RingIsBoundedAndCountsDrops) {
  TracerGuard guard;
  trace::enable(4);
  EXPECT_EQ(trace::ring_stats().capacity, 4u);
  for (int i = 0; i < 10; ++i) {
    trace::Span span("test.fill");
  }
  const std::vector<trace::Event> events = trace::snapshot();
  EXPECT_EQ(events.size(), 4u);
  EXPECT_EQ(trace::ring_stats().dropped, 6u);
  // Overwrite-oldest: the survivors are the four most recent span ids.
  std::uint64_t max_id = 0;
  for (const trace::Event& e : events) max_id = std::max(max_id, e.id);
  for (const trace::Event& e : events) EXPECT_GT(e.id + 4, max_id);

  trace::clear();
  EXPECT_TRUE(trace::snapshot().empty());
  EXPECT_EQ(trace::ring_stats().dropped, 0u);
  EXPECT_TRUE(trace::enabled());  // clear() does not stop recording
}

TEST(Trace, RecordSpanCrossThreadLandsInRing) {
  TracerGuard guard;
  trace::enable(64);
  const auto start = std::chrono::steady_clock::now();
  const auto end = start + std::chrono::microseconds(1500);
  trace::record_span("test.cross", start, end, /*parent=*/42);
  const std::vector<trace::Event> events = trace::snapshot();
  const trace::Event* cross = find_event(events, "test.cross");
  ASSERT_NE(cross, nullptr);
  EXPECT_EQ(cross->parent, 42u);
  EXPECT_EQ(cross->dur_ns, 1500000);
}

TEST(Trace, ChromeJsonIsValidAndCarriesSpanArgs) {
  TracerGuard guard;
  trace::enable(64);
  {
    trace::Span outer("test.chrome.outer");
    trace::Span inner("test.chrome.inner");
    QRE_TRACE_INSTANT("test.chrome.instant");
  }
  const std::string body = trace::to_chrome_json();
  const json::Value doc = json::parse(body);  // must be one valid JSON array
  ASSERT_TRUE(doc.is_array());
  ASSERT_EQ(doc.as_array().size(), 3u);

  bool saw_duration = false;
  bool saw_instant = false;
  for (const json::Value& event : doc.as_array()) {
    ASSERT_TRUE(event.is_object());
    ASSERT_NE(event.find("name"), nullptr);
    ASSERT_NE(event.find("ph"), nullptr);
    ASSERT_NE(event.find("ts"), nullptr);
    EXPECT_GE(event.at("ts").as_double(), 0.0);  // epoch-relative µs
    const std::string& ph = event.at("ph").as_string();
    if (ph == "X") {
      saw_duration = true;
      EXPECT_GE(event.at("dur").as_double(), 0.0);
      // Parent links survive the export, so Perfetto can rebuild the tree.
      ASSERT_NE(event.find("args"), nullptr);
      EXPECT_NE(event.at("args").find("span"), nullptr);
      EXPECT_NE(event.at("args").find("parent"), nullptr);
    } else {
      EXPECT_EQ(ph, "i");
      saw_instant = true;
    }
  }
  EXPECT_TRUE(saw_duration);
  EXPECT_TRUE(saw_instant);
}

TEST(Trace, StatsReportRingState) {
  TracerGuard guard;
  trace::enable(8);
  {
    trace::Span span("test.stats");
  }
  trace::snapshot();  // flush
  const trace::RingStats stats = trace::ring_stats();
  EXPECT_TRUE(stats.enabled);
  EXPECT_EQ(stats.events, 1u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.capacity, 8u);
}

// ---------------------------------------------------------- collector ---

TEST(Collector, AggregatesPhasesDetailAndCounters) {
  trace::Collector c;
  c.phase("api.expand", 1000000, 500000);
  c.phase("api.execute", 3000000, 2000000);
  c.phase("api.execute", 1000000, 1000000);  // repeated names accumulate
  for (int i = 1; i <= 100; ++i) c.add("engine.item", i * 1000, i * 500);
  c.count("estimate.cache.hit", 3);
  c.count("estimate.cache.hit");
  c.count("estimate.cache.miss");

  const json::Value doc = c.to_json(/*total_wall_ns=*/5000000, /*total_cpu_ns=*/4000000);
  EXPECT_DOUBLE_EQ(doc.at("totalWallMs").as_double(), 5.0);
  EXPECT_DOUBLE_EQ(doc.at("totalCpuMs").as_double(), 4.0);

  const json::Array& phases = doc.at("phases").as_array();
  ASSERT_EQ(phases.size(), 2u);  // insertion order, merged by name
  EXPECT_EQ(phases[0].at("name").as_string(), "api.expand");
  EXPECT_DOUBLE_EQ(phases[0].at("wallMs").as_double(), 1.0);
  EXPECT_EQ(phases[1].at("name").as_string(), "api.execute");
  EXPECT_DOUBLE_EQ(phases[1].at("wallMs").as_double(), 4.0);
  EXPECT_DOUBLE_EQ(phases[1].at("cpuMs").as_double(), 3.0);

  const json::Array& detail = doc.at("detail").as_array();
  ASSERT_EQ(detail.size(), 1u);
  EXPECT_EQ(detail[0].at("name").as_string(), "engine.item");
  EXPECT_EQ(detail[0].at("count").as_uint(), 100u);
  // 1..100 µs uniform: p50 is the midpoint by linear interpolation.
  EXPECT_NEAR(detail[0].at("p50Ms").as_double(), 0.0505, 1e-9);
  EXPECT_NEAR(detail[0].at("p99Ms").as_double(), 0.09901, 1e-9);

  EXPECT_EQ(doc.at("counters").at("estimate.cache.hit").as_uint(), 4u);
  EXPECT_EQ(doc.at("counters").at("estimate.cache.miss").as_uint(), 1u);
}

TEST(Collector, PercentileInterpolatesAndHandlesEdges) {
  EXPECT_DOUBLE_EQ(trace::Collector::percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(trace::Collector::percentile({7}, 0), 7.0);
  EXPECT_DOUBLE_EQ(trace::Collector::percentile({7}, 100), 7.0);
  const std::vector<std::int64_t> sorted = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(trace::Collector::percentile(sorted, 0), 10.0);
  EXPECT_DOUBLE_EQ(trace::Collector::percentile(sorted, 50), 25.0);
  EXPECT_DOUBLE_EQ(trace::Collector::percentile(sorted, 100), 40.0);
}

TEST(Collector, SampleCapKeepsTotalsExact) {
  trace::Collector c;
  const std::size_t n = trace::Collector::kMaxSamples + 100;
  for (std::size_t i = 0; i < n; ++i) c.add("test.capped", 1000, 0);
  EXPECT_EQ(c.samples("test.capped").size(), trace::Collector::kMaxSamples);
  const json::Value doc = c.to_json(0, 0);
  // Totals keep accumulating past the sample cap.
  EXPECT_EQ(doc.at("detail").as_array()[0].at("count").as_uint(), n);
  EXPECT_DOUBLE_EQ(doc.at("detail").as_array()[0].at("wallMs").as_double(),
                   static_cast<double>(n) / 1000.0);
}

TEST(Collector, ScopeInstallsAndRestoresThreadLocal) {
  trace::Collector c;
  EXPECT_EQ(trace::current_collector(), nullptr);
  {
    trace::CollectorScope scope(&c);
    EXPECT_EQ(trace::current_collector(), &c);
    {
      trace::Span span("test.collected");
    }
    {
      trace::CollectorScope inner(nullptr);  // explicit un-install
      EXPECT_EQ(trace::current_collector(), nullptr);
    }
    EXPECT_EQ(trace::current_collector(), &c);
  }
  EXPECT_EQ(trace::current_collector(), nullptr);
  // The span aggregated into the collector even with the tracer disabled.
  EXPECT_EQ(c.samples("test.collected").size(), 1u);
}

TEST(Collector, WorkerThreadsShareOneCollector) {
  trace::Collector c;
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&c] {
      trace::CollectorScope scope(&c);
      for (int i = 0; i < 8; ++i) {
        trace::Span span("test.worker");
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(c.samples("test.worker").size(), 32u);
}

// --------------------------------------------------- api::run timings ---

json::Value sweep_job(bool collect_timings) {
  std::string text = R"({
    "logicalCounts": {"numQubits": 10, "tCount": 100},
    "sweep": {"constraints.maxTFactories": [1, 2, 3]})";
  if (collect_timings) text += R"(, "collectTimings": true)";
  text += "}";
  return json::parse(text);
}

TEST(ApiTimings, CollectTimingsAppendsBlockWithConsistentPhases) {
  EstimateRequest request = EstimateRequest::parse(sweep_job(true));
  ASSERT_TRUE(request.ok());
  EXPECT_TRUE(request.collect_timings);
  // The flag is stripped during parse: cache keys and stored documents are
  // byte-identical whether or not timing was requested.
  EXPECT_EQ(request.document.find("collectTimings"), nullptr);

  EstimateResponse response = api::run(request);
  ASSERT_TRUE(response.success);
  const json::Value* timings = response.result.find("timings");
  ASSERT_NE(timings, nullptr);

  const double total_wall_ms = timings->at("totalWallMs").as_double();
  EXPECT_GT(total_wall_ms, 0.0);
  double phase_sum_ms = 0.0;
  bool saw_execute = false;
  for (const json::Value& phase : timings->at("phases").as_array()) {
    phase_sum_ms += phase.at("wallMs").as_double();
    if (phase.at("name").as_string() == "api.execute") saw_execute = true;
  }
  EXPECT_TRUE(saw_execute);
  // Phases are the request thread's non-overlapping top-level stages, so
  // their sum tracks the request wall time (acceptance: within 10%).
  EXPECT_GT(phase_sum_ms, 0.5 * total_wall_ms);
  EXPECT_LE(phase_sum_ms, 1.1 * total_wall_ms);

  // Engine items aggregate into the detail tier: one entry per sweep item.
  bool saw_items = false;
  for (const json::Value& entry : timings->at("detail").as_array()) {
    if (entry.at("name").as_string() == "engine.item") {
      saw_items = true;
      EXPECT_EQ(entry.at("count").as_uint(), 3u);
    }
  }
  EXPECT_TRUE(saw_items);
}

TEST(ApiTimings, PlannedSweepsAreNeverExpanded) {
  // Every sweep is planned and run, including those the plan composes no
  // input for; only items batches pay for expansion into documents.
  const struct {
    const char* job;
    std::vector<std::string> phases;
  } cases[] = {
      {R"({"logicalCounts": {"numQubits": 10, "tCount": 100},
           "sweep": {"constraints.maxTFactories": [1, 2, 3]}, "collectTimings": true})",
       {"service.plan", "api.execute"}},
      {R"({"logicalCounts": {"numQubits": 10, "tCount": 100},
           "sweep": {"qecScheme.maxCodeDistance": [25, 51]}, "collectTimings": true})",
       {"service.plan", "api.execute"}},
      {R"({"logicalCounts": {"numQubits": 10, "tCount": 100},
           "sweep": {"constraints.maxTFactories": [1, 2],
                     "constraints.logicalDepthFactor": [1, 2]}, "collectTimings": true})",
       {"service.plan", "api.execute"}},
      {R"({"logicalCounts": {"numQubits": 10, "tCount": 100}, "estimateType": "frontier",
           "sweep": {"errorBudget": [0.001, 0.01]}, "collectTimings": true})",
       {"service.plan", "api.execute"}},
      {R"({"logicalCounts": {"numQubits": 10, "tCount": 100},
           "items": [{"errorBudget": 0.01}, {}], "collectTimings": true})",
       {"api.expand", "api.execute"}},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.job);
    EstimateResponse response = api::run(EstimateRequest::parse(json::parse(c.job)));
    ASSERT_TRUE(response.success);
    std::vector<std::string> phases;
    for (const json::Value& phase : response.result.at("timings").at("phases").as_array()) {
      phases.push_back(phase.at("name").as_string());
    }
    EXPECT_EQ(phases, c.phases);
  }
}

TEST(ApiTimings, ResultsAreIdenticalWithAndWithoutTimings) {
  EstimateRequest with = EstimateRequest::parse(sweep_job(true));
  EstimateRequest without = EstimateRequest::parse(sweep_job(false));
  ASSERT_TRUE(with.ok());
  ASSERT_TRUE(without.ok());
  EXPECT_FALSE(without.collect_timings);
  // The normalized documents match exactly once collectTimings is stripped.
  EXPECT_EQ(with.document.dump(), without.document.dump());

  EstimateResponse timed = api::run(with);
  EstimateResponse plain = api::run(without);
  ASSERT_TRUE(timed.success);
  ASSERT_TRUE(plain.success);
  EXPECT_EQ(plain.result.find("timings"), nullptr);

  // Strip the block and the result documents are byte-identical: timing
  // collection must never perturb estimation output.
  json::Value stripped = timed.result;
  ASSERT_TRUE(stripped.is_object());
  json::Object& obj = stripped.as_object();
  for (auto it = obj.begin(); it != obj.end(); ++it) {
    if (it->first == "timings") {
      obj.erase(it);
      break;
    }
  }
  EXPECT_EQ(stripped.dump(), plain.result.dump());
}

}  // namespace
}  // namespace qre
