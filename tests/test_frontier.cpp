// Tests of the adaptive Pareto explorer (src/frontier/ + api::run):
// bisection refinement against synthetic trade-off models, non-domination
// of every returned point, serial-vs-parallel byte-identity, warm-engine
// probe reuse, and the schema-v2 "frontier" job kind end to end.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "common/error.hpp"
#include "frontier/explorer.hpp"
#include "json/json.hpp"
#include "service/engine.hpp"
#include "tests/run_request.hpp"

namespace qre {
namespace {

using api::EstimateRequest;
using api::EstimateResponse;
using api::Registry;
using frontier::ExploreOptions;
using frontier::ExploreStats;

// ------------------------------------------------------ synthetic model ---

/// A minimal report document carrying exactly the sections the explorer
/// reads: qubits, runtime, and the unconstrained factory count.
json::Value synthetic_report(std::uint64_t qubits, double runtime_ns,
                             std::uint64_t num_factories) {
  json::Object counts;
  counts.emplace_back("physicalQubits", qubits);
  counts.emplace_back("runtime", runtime_ns);
  json::Object breakdown;
  breakdown.emplace_back("numTfactories", num_factories);
  json::Object report;
  report.emplace_back("physicalCounts", json::Value(std::move(counts)));
  report.emplace_back("physicalCountsBreakdown", json::Value(std::move(breakdown)));
  return json::Value(std::move(report));
}

std::uint64_t cap_of(const json::Value& doc, std::uint64_t unconstrained) {
  if (const json::Value* constraints = doc.find("constraints")) {
    if (const json::Value* cap = constraints->find("maxTFactories")) {
      return std::min(cap->as_uint(), unconstrained);
    }
  }
  return unconstrained;
}

/// qubits = 1000 + 100*cap, runtime = total/cap: every integer cap is a
/// distinct Pareto-optimal point.
service::JobRunner linear_tradeoff_runner(std::uint64_t total_factories) {
  return [total_factories](const json::Value& doc) {
    const std::uint64_t cap = cap_of(doc, total_factories);
    return synthetic_report(1000 + 100 * cap,
                            1e9 * static_cast<double>(total_factories) /
                                static_cast<double>(cap),
                            total_factories);
  };
}

const char* kSyntheticJob = R"({"schemaVersion": 2, "logicalCounts": {"numQubits": 1}})";

json::Value explore_synthetic(const service::JobRunner& runner, ExploreOptions options,
                              ExploreStats* stats = nullptr,
                              service::EngineOptions engine_options = {}) {
  return frontier::explore(json::parse(kSyntheticJob), options, runner, engine_options,
                           stats);
}

struct Point {
  std::uint64_t qubits = 0;
  double runtime = 0.0;
  double budget = 0.0;
  std::uint64_t cap = 0;  // 0 = uncapped
};

std::vector<Point> frontier_points(const json::Value& result) {
  std::vector<Point> points;
  for (const json::Value& entry : result.at("frontier").as_array()) {
    Point p;
    p.qubits = entry.at("physicalQubits").as_uint();
    p.runtime = entry.at("runtime").as_double();
    if (const json::Value* budget = entry.find("errorBudget")) p.budget = budget->as_double();
    if (const json::Value* cap = entry.find("maxTFactories")) p.cap = cap->as_uint();
    EXPECT_NE(entry.find("result"), nullptr);
    points.push_back(p);
  }
  return points;
}

/// Acceptance-criterion check: no returned point may dominate another.
void expect_mutually_non_dominated(const std::vector<Point>& points) {
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = 0; j < points.size(); ++j) {
      if (i == j) continue;
      const Point& a = points[i];
      const Point& b = points[j];
      const bool dominates = a.qubits <= b.qubits && a.runtime <= b.runtime &&
                             a.budget <= b.budget;
      EXPECT_FALSE(dominates) << "point " << i << " dominates point " << j;
    }
  }
}

TEST(FrontierExplorer, ZeroToleranceRecoversEveryCap) {
  ExploreOptions options;
  options.max_probes = 64;
  options.qubit_tolerance = 0.0;
  options.runtime_tolerance = 0.0;
  ExploreStats stats;
  json::Value result = explore_synthetic(linear_tradeoff_runner(16), options, &stats);

  std::vector<Point> points = frontier_points(result);
  ASSERT_EQ(points.size(), 16u);  // caps 1..15 plus the uncapped point
  expect_mutually_non_dominated(points);
  // Fastest first, monotone trade-off.
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GT(points[i].runtime, points[i - 1].runtime);
    EXPECT_LT(points[i].qubits, points[i - 1].qubits);
  }
  EXPECT_EQ(points.front().cap, 0u);   // uncapped = fastest
  EXPECT_EQ(points.back().cap, 1u);    // cap 1 = smallest
  EXPECT_EQ(stats.num_points, 16u);
  EXPECT_EQ(stats.num_failed_probes, 0u);
  EXPECT_EQ(result.at("frontierStats").at("numProbes").as_uint(), stats.num_probes);
}

TEST(FrontierExplorer, RefinementSkipsFlatRegions) {
  // Runtime saturates at cap 4: the whole [4, 16] stretch is flat in one
  // objective, so adaptive bisection must not spend probes resolving it.
  auto runner = [](const json::Value& doc) {
    const std::uint64_t cap = cap_of(doc, 16);
    const std::uint64_t effective = std::min<std::uint64_t>(cap, 4);
    return synthetic_report(1000 + 100 * cap, 16e9 / static_cast<double>(effective), 16);
  };
  ExploreOptions options;
  options.max_probes = 64;
  options.qubit_tolerance = 0.0;
  options.runtime_tolerance = 0.0;
  ExploreStats stats;
  json::Value result = explore_synthetic(runner, options, &stats);

  // Exhaustive resolution would cost 16 probes; the flat tail collapses.
  EXPECT_LT(stats.num_probes, 10u);
  std::vector<Point> points = frontier_points(result);
  expect_mutually_non_dominated(points);
  // The saturated region is represented by its cheapest cap only.
  ASSERT_EQ(points.size(), 4u);
  EXPECT_EQ(points.front().qubits, 1400u);  // cap 4, runtime 4e9
  EXPECT_EQ(points.back().cap, 1u);
}

TEST(FrontierExplorer, ProbeBudgetIsAHardCap) {
  ExploreOptions options;
  options.max_probes = 5;
  options.qubit_tolerance = 0.0;
  options.runtime_tolerance = 0.0;
  ExploreStats stats;
  json::Value result = explore_synthetic(linear_tradeoff_runner(1000), options, &stats);
  EXPECT_LE(stats.num_probes, 5u);
  expect_mutually_non_dominated(frontier_points(result));
}

TEST(FrontierExplorer, InfeasibleProbesAreIsolatedAndBoundaryLocalized) {
  // Caps below 6 are infeasible (as a maxDuration would make them).
  auto runner = [](const json::Value& doc) -> json::Value {
    const std::uint64_t cap = cap_of(doc, 16);
    if (cap < 6) throw Error("schedule exceeds maxDuration");
    return synthetic_report(1000 + 100 * cap, 16e9 / static_cast<double>(cap), 16);
  };
  ExploreOptions options;
  options.max_probes = 64;
  options.qubit_tolerance = 0.0;
  options.runtime_tolerance = 0.0;
  ExploreStats stats;
  json::Value result = explore_synthetic(runner, options, &stats);

  EXPECT_GT(stats.num_failed_probes, 0u);
  std::vector<Point> points = frontier_points(result);
  expect_mutually_non_dominated(points);
  // The boundary cap 6 is found exactly despite the failures around it.
  EXPECT_EQ(points.back().cap, 6u);
  for (const Point& p : points) {
    if (p.cap != 0) {
      EXPECT_GE(p.cap, 6u);
    }
  }
}

TEST(FrontierExplorer, AllProbesFailingThrows) {
  auto runner = [](const json::Value&) -> json::Value {
    throw Error("always infeasible");
  };
  EXPECT_THROW(explore_synthetic(runner, ExploreOptions{}), Error);
}

TEST(FrontierExplorer, MalformedRunnerOutputIsAFailedProbeNotACrash) {
  auto runner = [](const json::Value&) { return json::parse(R"({"weird": true})"); };
  EXPECT_THROW(explore_synthetic(runner, ExploreOptions{}), Error);
}

TEST(FrontierExplorer, ErrorBudgetAxisExploresEveryLevelIn3d) {
  // Higher budget shrinks both qubits and runtime; within a level the cap
  // trades them. All levels contribute non-dominated points.
  auto runner = [](const json::Value& doc) {
    const double budget = doc.at("errorBudget").as_double();
    const double scale = budget >= 1e-2 ? 0.5 : 1.0;
    const std::uint64_t cap = cap_of(doc, 8);
    return synthetic_report(
        static_cast<std::uint64_t>(scale * static_cast<double>(1000 + 100 * cap)),
        scale * 8e9 / static_cast<double>(cap), 8);
  };
  ExploreOptions options;
  options.max_probes = 64;
  options.qubit_tolerance = 0.0;
  options.runtime_tolerance = 0.0;
  options.error_budgets = {1e-2, 1e-4};
  ExploreStats stats;
  json::Value result = explore_synthetic(runner, options, &stats);

  std::vector<Point> points = frontier_points(result);
  expect_mutually_non_dominated(points);
  std::set<double> budgets;
  for (const Point& p : points) budgets.insert(p.budget);
  EXPECT_EQ(budgets.size(), 2u);
  EXPECT_EQ(result.at("frontierStats").at("budgetLevels").as_uint(), 2u);
  // The cheap-budget curve alone would dominate in 2D; the strict-budget
  // points survive because the budget is itself an objective.
  std::size_t strict_points = 0;
  for (const Point& p : points) {
    if (p.budget == 1e-4) ++strict_points;
  }
  EXPECT_GT(strict_points, 1u);
}

// ------------------------------------------------------------ real jobs ---

const char* kRealFrontierJob = R"({
  "schemaVersion": 2,
  "logicalCounts": {"numQubits": 100, "tCount": 1000000, "rotationCount": 30000,
                    "rotationDepth": 11000, "cczCount": 250000,
                    "measurementCount": 150000},
  "qubitParams": {"name": "qubit_gate_ns_e3"},
  "errorBudget": 0.001,
  "frontier": {"maxProbes": 16, "qubitTolerance": 0.02, "runtimeTolerance": 0.02}
})";

TEST(FrontierJob, PointsAreNonDominatedAndBracketTheCapRange) {
  Registry registry = Registry::with_builtins();
  EstimateRequest request = EstimateRequest::parse(json::parse(kRealFrontierJob), registry);
  ASSERT_TRUE(request.ok()) << request.diagnostics.summary();
  EstimateResponse response = api::run(request, {}, registry);
  ASSERT_TRUE(response.success) << response.diagnostics.summary();

  std::vector<Point> points = frontier_points(response.result);
  ASSERT_GE(points.size(), 3u);
  expect_mutually_non_dominated(points);
  EXPECT_EQ(points.front().cap, 0u);  // the unconstrained estimate is fastest
  EXPECT_EQ(points.back().cap, 1u);   // the one-factory floor is smallest
  const json::Value& stats = response.result.at("frontierStats");
  EXPECT_LE(stats.at("numProbes").as_uint(), 16u);
  EXPECT_EQ(stats.at("numPoints").as_uint(), points.size());
}

TEST(FrontierJob, SerialAndParallelExplorationAreByteIdentical) {
  Registry registry = Registry::with_builtins();
  EstimateRequest request = EstimateRequest::parse(json::parse(kRealFrontierJob), registry);
  ASSERT_TRUE(request.ok());

  service::Engine serial_engine;
  service::EngineOptions serial = serial_engine.options();
  serial.num_workers = 1;
  EstimateResponse a = api::run(request, serial, registry);

  service::Engine parallel_engine;
  service::EngineOptions parallel = parallel_engine.options();
  parallel.num_workers = 8;
  EstimateResponse b = api::run(request, parallel, registry);

  ASSERT_TRUE(a.success);
  ASSERT_TRUE(b.success);
  EXPECT_EQ(a.result.dump(), b.result.dump());
}

TEST(FrontierJob, WarmEngineRunsStrictlyFewerRawEstimates) {
  Registry registry = Registry::with_builtins();
  EstimateRequest request = EstimateRequest::parse(json::parse(kRealFrontierJob), registry);
  ASSERT_TRUE(request.ok());

  service::Engine engine;
  EstimateResponse cold = api::run(request, engine.options(), registry);
  ASSERT_TRUE(cold.success);
  const std::uint64_t cold_misses = engine.cache().misses();
  const std::uint64_t cold_hits = engine.cache().hits();
  EXPECT_GT(cold_misses, 0u);  // a cold engine had to estimate

  EstimateResponse warm = api::run(request, engine.options(), registry);
  ASSERT_TRUE(warm.success);
  const std::uint64_t warm_misses = engine.cache().misses() - cold_misses;
  const std::uint64_t warm_hits = engine.cache().hits() - cold_hits;

  EXPECT_LT(warm_misses, cold_misses);  // strictly fewer raw estimates...
  EXPECT_EQ(warm_misses, 0u);           // ...in fact none: probes replay
  const std::uint64_t num_probes =
      warm.result.at("frontierStats").at("numProbes").as_uint();
  EXPECT_EQ(warm_hits, num_probes);
  EXPECT_EQ(cold.result.dump(), warm.result.dump());  // replay is exact
}

TEST(FrontierJob, CacheWarmedBySingleEstimatesGivesTheColdBytes) {
  // Probes share cache keys with single estimates of the same documents, so
  // the explorer must read objectives out of entries the single-estimate
  // path cached (raw result bytes) exactly as out of its own.
  Registry registry = Registry::with_builtins();
  EstimateRequest request = EstimateRequest::parse(json::parse(kRealFrontierJob), registry);
  ASSERT_TRUE(request.ok());

  std::vector<json::Value> records;
  service::Engine cold_engine;
  service::EngineOptions cold_options = cold_engine.options();
  cold_options.on_result = [&](std::size_t, const json::Value& record) {
    records.push_back(record);
  };
  EstimateResponse cold = api::run(request, cold_options, registry);
  ASSERT_TRUE(cold.success);
  ASSERT_GE(records.size(), 3u);

  // Rebuild each probe document from its record and estimate it alone.
  service::Engine warm_engine;
  for (const json::Value& record : records) {
    json::Object single;
    for (const auto& [key, value] : request.document.as_object()) {
      if (key != "frontier") single.emplace_back(key, value);
    }
    json::Value doc{std::move(single)};
    if (const json::Value* budget = record.find("errorBudget")) doc.set("errorBudget", *budget);
    if (const json::Value* cap = record.find("maxTFactories")) {
      json::Object constraints;
      constraints.emplace_back("maxTFactories", *cap);
      doc.set("constraints", json::Value(std::move(constraints)));
    }
    api::run(EstimateRequest::parse(doc, registry), warm_engine.options(), registry);
  }
  const std::uint64_t misses = warm_engine.cache().misses();
  EXPECT_EQ(misses, records.size());

  EstimateResponse warm = api::run(request, warm_engine.options(), registry);
  ASSERT_TRUE(warm.success) << warm.diagnostics.summary();
  EXPECT_EQ(warm_engine.cache().misses(), misses);  // every probe replayed
  EXPECT_EQ(warm.result.dump(), cold.result.dump());
}

TEST(FrontierJob, StreamingObservesEveryProbeInOrder) {
  Registry registry = Registry::with_builtins();
  EstimateRequest request = EstimateRequest::parse(json::parse(kRealFrontierJob), registry);
  ASSERT_TRUE(request.ok());

  std::vector<std::size_t> indices;
  std::vector<json::Value> records;
  service::EngineOptions options;
  options.on_result = [&](std::size_t index, const json::Value& record) {
    indices.push_back(index);
    records.push_back(record);
  };
  EstimateResponse response = api::run(request, options, registry);
  ASSERT_TRUE(response.success);

  const std::uint64_t num_probes =
      response.result.at("frontierStats").at("numProbes").as_uint();
  ASSERT_EQ(indices.size(), num_probes);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    EXPECT_EQ(indices[i], i);  // strictly in probe order
    EXPECT_NE(records[i].find("result"), nullptr);
  }
}

TEST(FrontierJob, V1UpgradeRunsTheFrontierKind) {
  // No schemaVersion: the v1 shim upgrades in place and the frontier kind
  // still runs.
  json::Value job = json::parse(kRealFrontierJob);
  json::Object pruned;
  for (const auto& [k, v] : job.as_object()) {
    if (k != "schemaVersion") pruned.emplace_back(k, v);
  }
  json::Value result = run_request(json::Value(std::move(pruned)));
  EXPECT_NE(result.find("frontier"), nullptr);
  EXPECT_NE(result.find("frontierStats"), nullptr);
}

TEST(FrontierJob, LegacyFixedGridEstimateTypeStillWorks) {
  json::Value job = json::parse(kRealFrontierJob);
  json::Object pruned;
  for (const auto& [k, v] : job.as_object()) {
    if (k != "frontier") pruned.emplace_back(k, v);
  }
  json::Value legacy{std::move(pruned)};
  legacy.set("estimateType", json::Value("frontier"));
  const json::Value result = run_request(legacy).materialize();
  EXPECT_NE(result.find("frontier"), nullptr);
  EXPECT_EQ(result.find("frontierStats"), nullptr);  // fixed grid has no stats
}

// ----------------------------------------------------------- validation ---

const Diagnostic* find_diag(const Diagnostics& diags, std::string_view code,
                            std::string_view path) {
  for (const Diagnostic& d : diags.entries()) {
    if (d.code == code && d.path == path) return &d;
  }
  return nullptr;
}

TEST(FrontierValidation, ParseAcceptsAndRunsOptions) {
  Registry registry = Registry::with_builtins();
  EstimateRequest request = EstimateRequest::parse(json::parse(kRealFrontierJob), registry);
  ASSERT_TRUE(request.ok()) << request.diagnostics.summary();
  const ExploreOptions options = ExploreOptions::from_json(request.document.at("frontier"));
  EXPECT_EQ(options.max_probes, 16u);
  EXPECT_DOUBLE_EQ(options.qubit_tolerance, 0.02);
  EstimateResponse response = api::run(request, {}, registry);
  ASSERT_TRUE(response.success);
  EXPECT_LE(response.result.at("frontierStats").at("numProbes").as_uint(), 16u);
  EXPECT_EQ(response.to_json().at("schemaVersion").as_int(), 2);
}

TEST(FrontierValidation, MutuallyExclusiveWithBatchKindsAndLegacyType) {
  Registry registry = Registry::with_builtins();
  Diagnostics diags;
  api::validate_job(json::parse(R"({
    "schemaVersion": 2,
    "logicalCounts": {"numQubits": 5},
    "frontier": {},
    "items": [{}]
  })"), registry, diags);
  EXPECT_NE(find_diag(diags, "mutually-exclusive", "/frontier"), nullptr);

  Diagnostics type_diags;
  api::validate_job(json::parse(R"({
    "schemaVersion": 2,
    "logicalCounts": {"numQubits": 5},
    "frontier": {},
    "estimateType": "frontier"
  })"), registry, type_diags);
  EXPECT_NE(find_diag(type_diags, "mutually-exclusive", "/frontier"), nullptr);
}

TEST(FrontierValidation, SectionFieldsAreRangeChecked) {
  Registry registry = Registry::with_builtins();
  Diagnostics diags;
  api::validate_job(json::parse(R"({
    "schemaVersion": 2,
    "logicalCounts": {"numQubits": 5},
    "frontier": {"maxProbes": 1, "qubitTolerance": -0.5, "runtimeTolerance": "big",
                 "errorBudgets": [0.5, 2.0, "junk"], "typoKey": 1}
  })"), registry, diags);
  EXPECT_NE(find_diag(diags, "value-range", "/frontier/maxProbes"), nullptr);
  EXPECT_NE(find_diag(diags, "value-range", "/frontier/qubitTolerance"), nullptr);
  EXPECT_NE(find_diag(diags, "type-mismatch", "/frontier/runtimeTolerance"), nullptr);
  EXPECT_NE(find_diag(diags, "value-range", "/frontier/errorBudgets/1"), nullptr);
  EXPECT_NE(find_diag(diags, "type-mismatch", "/frontier/errorBudgets/2"), nullptr);
  EXPECT_NE(find_diag(diags, "unknown-key", "/frontier/typoKey"), nullptr);
}

TEST(FrontierValidation, BudgetLevelsMustFitTheProbeBudget) {
  // 3 requested objective levels but only 2 probes: whole levels would be
  // silently dropped, so both the validator and the parser reject it.
  Registry registry = Registry::with_builtins();
  Diagnostics diags;
  api::validate_job(json::parse(R"({
    "schemaVersion": 2,
    "logicalCounts": {"numQubits": 5},
    "frontier": {"maxProbes": 2, "errorBudgets": [0.1, 0.01, 0.001]}
  })"), registry, diags);
  EXPECT_NE(find_diag(diags, "value-range", "/frontier/errorBudgets"), nullptr);

  EXPECT_THROW(ExploreOptions::from_json(json::parse(
                   R"({"maxProbes": 2, "errorBudgets": [0.1, 0.01, 0.001]})")),
               Error);
}

TEST(FrontierValidation, FrontierDocumentsNeverRunAsASingleEstimate) {
  const json::Value result = run_request(json::parse(kRealFrontierJob));
  EXPECT_EQ(result.find("physicalCounts"), nullptr);
  EXPECT_NE(result.find("frontierStats"), nullptr);
}

}  // namespace
}  // namespace qre
