// Tests of the service-style JSON job interface (paper Section IV-A): the
// schema, defaulting, batching with inheritance, frontier jobs, and error
// isolation.
#include <gtest/gtest.h>

#include <vector>

#include "api/api.hpp"
#include "common/error.hpp"
#include "report/report.hpp"
#include "tests/run_request.hpp"

namespace qre {
namespace {

/// Whether validation reports `code` at `path`.
bool rejects(const json::Value& job, std::string_view code, std::string_view path) {
  const api::EstimateRequest request = api::EstimateRequest::parse(job);
  for (const Diagnostic& d : request.diagnostics.entries()) {
    if (d.severity == Severity::kError && d.code == code && d.path == path) return true;
  }
  return false;
}

const char* kBaseJob = R"({
  "logicalCounts": {
    "numQubits": 100,
    "tCount": 1000000,
    "measurementCount": 100000
  },
  "qubitParams": {"name": "qubit_gate_ns_e3"},
  "errorBudget": 0.001
})";

TEST(Job, InputFromJsonDefaults) {
  json::Value minimal = json::parse(R"({"logicalCounts": {"numQubits": 5, "tCount": 10}})");
  EstimationInput input = api::input_from_document(minimal, api::Registry::global());
  EXPECT_EQ(input.qubit.name, "qubit_gate_ns_e3");  // default profile
  EXPECT_EQ(input.qec.name(), "surface_code");
  EXPECT_DOUBLE_EQ(input.budget.total(), 1e-3);
  EXPECT_EQ(input.distillation_units.size(), 2u);
}

TEST(Job, InputFromJsonFull) {
  json::Value job = json::parse(R"({
    "logicalCounts": {"numQubits": 10, "tCount": 100},
    "qubitParams": {"name": "qubit_maj_ns_e4"},
    "qecScheme": {"name": "surface_code"},
    "errorBudget": {"logical": 1e-4, "tstates": 1e-4, "rotations": 0},
    "constraints": {"maxTFactories": 3},
    "distillationUnitSpecifications": [{
      "name": "15-to-1 RM prep",
      "numInputTs": 15,
      "numOutputTs": 1,
      "failureProbabilityFormula": "15 * inputErrorRate + 356 * cliffordErrorRate",
      "outputErrorRateFormula": "35 * inputErrorRate ^ 3 + 7.1 * cliffordErrorRate",
      "logicalQubitSpecification": {"numUnitQubits": 31, "durationInLogicalCycles": 11}
    }]
  })");
  EstimationInput input = api::input_from_document(job, api::Registry::global());
  EXPECT_EQ(input.qubit.instruction_set, InstructionSet::kMajorana);
  EXPECT_EQ(input.qec.name(), "surface_code");  // Majorana surface code
  EXPECT_DOUBLE_EQ(input.qec.threshold(), 0.0015);
  EXPECT_EQ(*input.constraints.max_t_factories, 3u);
  EXPECT_EQ(input.distillation_units.size(), 1u);
  EXPECT_FALSE(input.distillation_units[0].allow_physical);
}

TEST(Job, SinglePointMatchesDirectEstimate) {
  json::Value job = json::parse(kBaseJob);
  const json::Value result = run_request(job).materialize();
  ResourceEstimate direct = estimate(api::input_from_document(job, api::Registry::global()));
  EXPECT_EQ(result.at("physicalCounts").at("physicalQubits").as_uint(),
            direct.total_physical_qubits);
  EXPECT_DOUBLE_EQ(result.at("physicalCounts").at("runtime").as_double(),
                   direct.runtime_ns);
}

TEST(Job, FrontierEstimateType) {
  json::Value job = json::parse(kBaseJob);
  job.set("estimateType", json::Value("frontier"));
  const json::Value result = run_request(job).materialize();
  const json::Array& points = result.at("frontier").as_array();
  ASSERT_GE(points.size(), 2u);
  double previous_runtime = 0.0;
  std::uint64_t previous_qubits = ~0ull;
  for (const json::Value& point : points) {
    double runtime = point.at("physicalCounts").at("runtime").as_double();
    std::uint64_t qubits = point.at("physicalCounts").at("physicalQubits").as_uint();
    EXPECT_GT(runtime, previous_runtime);
    EXPECT_LT(qubits, previous_qubits);
    previous_runtime = runtime;
    previous_qubits = qubits;
  }
}

TEST(Job, UnknownEstimateTypeIsRejected) {
  json::Value job = json::parse(kBaseJob);
  job.set("estimateType", json::Value("pareto"));
  EXPECT_TRUE(rejects(job, "invalid-value", "/estimateType"));
  EXPECT_FALSE(api::run(api::EstimateRequest::parse(job)).success);
}

TEST(Job, BatchedItemsInheritAndOverride) {
  json::Value job = json::parse(kBaseJob);
  json::Array items;
  items.push_back(json::parse(R"({})"));  // inherits everything
  items.push_back(json::parse(R"({"qubitParams": {"name": "qubit_maj_ns_e4"}})"));
  items.push_back(json::parse(R"({"errorBudget": 0.01})"));
  job.set("items", json::Value(std::move(items)));

  json::Value result = run_request(job);
  std::vector<json::Value> results;
  for (const json::Value& r : result.at("results").as_array()) {
    results.push_back(r.materialize());
  }
  ASSERT_EQ(results.size(), 3u);
  // Item 0 equals the non-batched run.
  const json::Value single = run_request(json::parse(kBaseJob)).materialize();
  EXPECT_EQ(results[0].at("physicalCounts").at("physicalQubits").as_uint(),
            single.at("physicalCounts").at("physicalQubits").as_uint());
  // Item 1 switched hardware.
  EXPECT_EQ(results[1].at("physicalQubitParameters").at("name").as_string(),
            "qubit_maj_ns_e4");
  // Item 2 relaxed the budget: never more qubits than item 0.
  EXPECT_LE(results[2].at("physicalCounts").at("physicalQubits").as_uint(),
            results[0].at("physicalCounts").at("physicalQubits").as_uint());
}

TEST(Job, BatchIsolatesItemFailures) {
  json::Value job = json::parse(kBaseJob);
  json::Array items;
  items.push_back(json::parse(R"({})"));
  // Physical error rate at the QEC threshold: infeasible item.
  items.push_back(json::parse(R"({"qubitParams": {
    "name": "qubit_gate_ns_e3",
    "twoQubitGateErrorRate": 0.5
  }})"));
  items.push_back(json::parse(R"({})"));
  job.set("items", json::Value(std::move(items)));

  json::Value result = run_request(job);
  const json::Array& results = result.at("results").as_array();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_NE(results[0].materialize().find("physicalCounts"), nullptr);
  EXPECT_NE(results[1].find("error"), nullptr);
  EXPECT_NE(results[2].materialize().find("physicalCounts"), nullptr);
}

TEST(Job, NestedItemsAreNotInherited) {
  // items inside an item must not recurse into the batch again.
  json::Value job = json::parse(kBaseJob);
  json::Array items;
  items.push_back(json::parse(R"({"errorBudget": 0.01})"));
  job.set("items", json::Value(std::move(items)));
  json::Value result = run_request(job);
  // One item -> one result, and it is a report, not another batch.
  const json::Array& results = result.at("results").as_array();
  ASSERT_EQ(results.size(), 1u);
  const json::Value item = results[0].materialize();
  EXPECT_NE(item.find("physicalCounts"), nullptr);
  EXPECT_EQ(item.find("results"), nullptr);
}

TEST(Job, MissingCountsAreRejected) {
  EXPECT_TRUE(rejects(json::parse(R"({"errorBudget": 0.001})"), "required-missing",
                      "/logicalCounts"));
  EXPECT_TRUE(rejects(json::parse("[]"), "type-mismatch", ""));
  EXPECT_FALSE(api::run(api::EstimateRequest::parse(json::parse("[]"))).success);
}

TEST(Job, CountsComposition) {
  LogicalCounts adder;
  adder.num_qubits = 40;
  adder.ccix_count = 19;
  adder.measurement_count = 19;
  LogicalCounts lookup;
  lookup.num_qubits = 55;
  lookup.ccix_count = 62;
  lookup.measurement_count = 70;
  LogicalCounts program = LogicalCounts::sequential({adder.repeated(100), lookup});
  EXPECT_EQ(program.num_qubits, 55u);  // widest subroutine
  EXPECT_EQ(program.ccix_count, 100u * 19 + 62);
  EXPECT_EQ(program.measurement_count, 100u * 19 + 70);
  EXPECT_THROW(LogicalCounts::sequential({}), Error);
  EXPECT_THROW(adder.repeated(0), Error);
}

}  // namespace
}  // namespace qre
