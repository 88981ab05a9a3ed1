// Tests of the v2 API layer (src/api/): the profile registry and profile
// packs, the versioned job schema with its multi-error validation pass, the
// v1 -> v2 upgrade shim, and the request/response façade with structured
// per-item diagnostics.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "api/api.hpp"
#include "common/error.hpp"
#include "core/job.hpp"

#ifndef QRE_SOURCE_DIR
#define QRE_SOURCE_DIR "."
#endif

namespace qre {
namespace {

using api::EstimateRequest;
using api::EstimateResponse;
using api::Registry;

const Diagnostic* find_diagnostic(const Diagnostics& diags, std::string_view code,
                                  std::string_view path) {
  for (const Diagnostic& d : diags.entries()) {
    if (d.code == code && d.path == path) return &d;
  }
  return nullptr;
}

// ------------------------------------------------------------ registry ---

TEST(Registry, BuiltinsAreSeeded) {
  Registry r = Registry::with_builtins();
  EXPECT_EQ(r.qubit_names().size(), 6u);
  ASSERT_NE(r.find_qubit("qubit_maj_ns_e6"), nullptr);
  EXPECT_EQ(r.find_qubit("qubit_maj_ns_e6")->instruction_set, InstructionSet::kMajorana);
  EXPECT_EQ(r.find_qubit("no_such_profile"), nullptr);

  // surface_code exists for both instruction sets, with different thresholds.
  const QecScheme* gate = r.find_qec("surface_code", InstructionSet::kGateBased);
  const QecScheme* maj = r.find_qec("surface_code", InstructionSet::kMajorana);
  ASSERT_NE(gate, nullptr);
  ASSERT_NE(maj, nullptr);
  EXPECT_DOUBLE_EQ(gate->threshold(), 0.01);
  EXPECT_DOUBLE_EQ(maj->threshold(), 0.0015);
  // floquet_code is Majorana-only.
  EXPECT_EQ(r.find_qec("floquet_code", InstructionSet::kGateBased), nullptr);
  EXPECT_NE(r.find_qec("floquet_code", InstructionSet::kMajorana), nullptr);

  EXPECT_EQ(r.distillation_names().size(), 2u);
  EXPECT_NE(r.find_distillation("15-to-1 RM prep"), nullptr);
}

TEST(Registry, RegisterLookupAndOverride) {
  Registry r = Registry::with_builtins();
  QubitParams custom = QubitParams::gate_ns_e3();
  custom.name = "lab_device";
  custom.t_gate_error_rate = 5e-4;
  r.register_qubit(custom);
  ASSERT_NE(r.find_qubit("lab_device"), nullptr);
  EXPECT_DOUBLE_EQ(r.find_qubit("lab_device")->t_gate_error_rate, 5e-4);
  EXPECT_EQ(r.qubit_names().size(), 7u);

  // Same name again: last registration wins, no duplicate entry.
  custom.t_gate_error_rate = 1e-4;
  r.register_qubit(custom);
  EXPECT_EQ(r.qubit_names().size(), 7u);
  EXPECT_DOUBLE_EQ(r.find_qubit("lab_device")->t_gate_error_rate, 1e-4);

  // Invalid profiles are rejected at registration time.
  QubitParams broken = QubitParams::gate_ns_e3();
  broken.name = "broken";
  broken.t_gate_error_rate = 0.0;
  EXPECT_THROW(r.register_qubit(broken), Error);
}

TEST(Registry, ProfilePackRoundTrip) {
  Registry r = Registry::with_builtins();
  Diagnostics diags;
  json::Value pack = json::parse(R"({
    "schemaVersion": 2,
    "qubitParams": [
      {"name": "fast_transmon", "base": "qubit_gate_ns_e3",
       "oneQubitGateTime": 20, "twoQubitGateTime": 20}
    ],
    "qecSchemes": [
      {"name": "dense_surface", "instructionSet": "GateBased",
       "base": "surface_code", "crossingPrefactor": 0.05}
    ],
    "distillationUnits": [
      {"name": "8-to-2", "numInputTs": 8, "numOutputTs": 2,
       "failureProbabilityFormula": "8 * inputErrorRate",
       "outputErrorRateFormula": "16 * inputErrorRate ^ 2",
       "logicalQubitSpecification": {"numUnitQubits": 12, "durationInLogicalCycles": 9}}
    ]
  })");
  r.load_profile_pack(pack, diags);
  EXPECT_FALSE(diags.has_errors()) << diags.summary();

  const QubitParams* q = r.find_qubit("fast_transmon");
  ASSERT_NE(q, nullptr);
  EXPECT_DOUBLE_EQ(q->one_qubit_gate_time_ns, 20.0);
  EXPECT_DOUBLE_EQ(q->one_qubit_measurement_time_ns, 100.0);  // inherited from base
  const QecScheme* s = r.find_qec("dense_surface", InstructionSet::kGateBased);
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->crossing_prefactor(), 0.05);
  EXPECT_DOUBLE_EQ(s->threshold(), 0.01);  // inherited from surface_code
  ASSERT_NE(r.find_distillation("8-to-2"), nullptr);
  EXPECT_EQ(r.find_distillation("8-to-2")->num_output_ts, 2u);

  // The registry dump reloads into an equivalent registry.
  Registry fresh;
  Diagnostics reload_diags;
  fresh.load_profile_pack(r.to_json(), reload_diags);
  EXPECT_FALSE(reload_diags.has_errors()) << reload_diags.summary();
  ASSERT_NE(fresh.find_qubit("fast_transmon"), nullptr);
  EXPECT_EQ(fresh.find_qubit("fast_transmon")->to_json().dump(), q->to_json().dump());
  ASSERT_NE(fresh.find_qec("dense_surface", InstructionSet::kGateBased), nullptr);
  EXPECT_EQ(fresh.find_qec("dense_surface", InstructionSet::kGateBased)->to_json().dump(),
            s->to_json().dump());
  EXPECT_EQ(fresh.to_json().dump(), r.to_json().dump());
}

TEST(Registry, ProfilePackCollectsErrorsAndKeepsGoodEntries) {
  Registry r = Registry::with_builtins();
  Diagnostics diags;
  json::Value pack = json::parse(R"({
    "qubitParams": [
      {"name": "orphan", "base": "no_such_base"},
      {"oneQubitGateTime": 10},
      {"name": "ok_profile", "base": "qubit_maj_ns_e4", "tGateErrorRate": 0.04}
    ]
  })");
  r.load_profile_pack(pack, diags);
  EXPECT_TRUE(diags.has_errors());
  EXPECT_NE(find_diagnostic(diags, "unknown-name", "/qubitParams/0/base"), nullptr);
  EXPECT_NE(find_diagnostic(diags, "required-missing", "/qubitParams/1/name"), nullptr);
  EXPECT_EQ(r.find_qubit("orphan"), nullptr);
  ASSERT_NE(r.find_qubit("ok_profile"), nullptr);  // valid entry still landed
  EXPECT_DOUBLE_EQ(r.find_qubit("ok_profile")->t_gate_error_rate, 0.04);
}

// -------------------------------------------------- validation & schema ---

TEST(SchemaV2, CollectsAllProblemsWithPointerPaths) {
  // Three distinct field errors plus one unknown key: one response, four
  // diagnostics (the acceptance scenario).
  json::Value job = json::parse_file(std::string(QRE_SOURCE_DIR) +
                                     "/tests/data/invalid_job_v2.json");
  EstimateRequest request = EstimateRequest::parse(job);
  EXPECT_FALSE(request.ok());
  EXPECT_EQ(request.diagnostics.size(), 4u);
  EXPECT_EQ(request.diagnostics.num_errors(), 3u);
  EXPECT_NE(find_diagnostic(request.diagnostics, "value-range", "/logicalCounts/numQubits"),
            nullptr);
  EXPECT_NE(
      find_diagnostic(request.diagnostics, "value-range", "/qubitParams/tGateErrorRate"),
      nullptr);
  EXPECT_NE(find_diagnostic(request.diagnostics, "value-range", "/errorBudget"), nullptr);
  const Diagnostic* unknown = find_diagnostic(request.diagnostics, "unknown-key", "/frobnicate");
  ASSERT_NE(unknown, nullptr);
  EXPECT_EQ(unknown->severity, Severity::kWarning);

  // The whole story fits in one response document.
  EstimateResponse response = api::run(request);
  EXPECT_FALSE(response.success);
  EXPECT_EQ(response.to_json().at("diagnostics").as_array().size(), 4u);
  EXPECT_EQ(response.to_json().find("result"), nullptr);
}

TEST(SchemaV2, InvalidBatchItemsFailIndividually) {
  // One bad item must not reject the whole batch: it degrades to a
  // structured "invalid-item" entry carrying its own diagnostics (pointers
  // relative to the merged item document) while the other items run.
  json::Value job = json::parse(R"({
    "logicalCounts": {"numQubits": 10, "tCount": 100},
    "items": [
      {},
      {"errorBudget": 7.0},
      {"estimateType": "pareto"}
    ]
  })");
  EstimateRequest request = EstimateRequest::parse(job);
  ASSERT_TRUE(request.ok()) << request.diagnostics.summary();
  EstimateResponse response = api::run(request);
  ASSERT_TRUE(response.success);
  const json::Array& results = response.result.at("results").as_array();
  ASSERT_EQ(results.size(), 3u);
  // Estimates are raw bytes, error documents trees.
  EXPECT_NE(results[0].materialize().find("physicalCounts"), nullptr);
  EXPECT_EQ(results[1].at("error").at("code").as_string(), "invalid-item");
  bool budget_path_reported = false;
  for (const json::Value& d : results[1].at("diagnostics").as_array()) {
    budget_path_reported |= d.at("path").as_string() == "/errorBudget";
  }
  EXPECT_TRUE(budget_path_reported);
  EXPECT_EQ(results[2].at("error").at("code").as_string(), "invalid-item");
  EXPECT_EQ(response.result.at("batchStats").at("numErrors").as_uint(), 2u);

  // Structural batch problems still reject the request up front.
  json::Value nested = json::parse(
      R"({"logicalCounts": {"numQubits": 5}, "items": [{"items": []}]})");
  EXPECT_FALSE(EstimateRequest::parse(nested).ok());
}

TEST(SchemaV2, RequiredCountsAndExclusiveBatchKeys) {
  EstimateRequest missing = EstimateRequest::parse(json::parse(R"({"errorBudget": 0.01})"));
  EXPECT_NE(find_diagnostic(missing.diagnostics, "required-missing", "/logicalCounts"),
            nullptr);

  EstimateRequest both = EstimateRequest::parse(json::parse(R"({
    "logicalCounts": {"numQubits": 5},
    "items": [{}],
    "sweep": {"errorBudget": [0.1, 0.01]}
  })"));
  EXPECT_NE(find_diagnostic(both.diagnostics, "mutually-exclusive", "/items"), nullptr);

  // A sweep axis can supply logicalCounts, so it is not required up front.
  EstimateRequest swept = EstimateRequest::parse(json::parse(R"({
    "sweep": {"logicalCounts": [{"numQubits": 5, "tCount": 10}]}
  })"));
  EXPECT_TRUE(swept.ok()) << swept.diagnostics.summary();
}

TEST(SchemaV2, DryRunBatchItemPassFindsPerItemProblems) {
  // validate_batch_items is the --validate deep pass: it surfaces the
  // per-item problems the runner would isolate at execution time, anchored
  // under /items/<i>, without duplicating findings in inherited sections.
  json::Value job = json::parse(R"({
    "logicalCounts": {"numQubits": 10, "tCount": 100},
    "errorBudget": 5.0,
    "items": [
      {"errorBudget": 0.001},
      {"errorBudget": 7.0},
      {}
    ]
  })");
  EstimateRequest request = EstimateRequest::parse(job);
  EXPECT_NE(find_diagnostic(request.diagnostics, "value-range", "/errorBudget"), nullptr);
  Diagnostics deep;
  api::validate_batch_items(request.document, Registry::global(), deep);
  EXPECT_NE(find_diagnostic(deep, "value-range", "/items/1/errorBudget"), nullptr);
  // Item 0 overrides the budget with a valid value: no finding. Item 2
  // inherits the broken base budget, which was already reported top-level.
  EXPECT_EQ(find_diagnostic(deep, "value-range", "/items/0/errorBudget"), nullptr);
  EXPECT_EQ(find_diagnostic(deep, "value-range", "/items/2/errorBudget"), nullptr);
}

TEST(SchemaV2, UpgradeShimStampsVersion) {
  EstimateRequest v1 = EstimateRequest::parse(
      json::parse(R"({"logicalCounts": {"numQubits": 5, "tCount": 10}})"));
  EXPECT_TRUE(v1.ok());
  EXPECT_EQ(v1.source_version, 1);
  EXPECT_EQ(v1.document.at("schemaVersion").as_int(), 2);

  EstimateRequest v2 = EstimateRequest::parse(json::parse(
      R"({"schemaVersion": 2, "logicalCounts": {"numQubits": 5, "tCount": 10}})"));
  EXPECT_TRUE(v2.ok());
  EXPECT_EQ(v2.source_version, 2);

  EstimateRequest v3 = EstimateRequest::parse(json::parse(
      R"({"schemaVersion": 3, "logicalCounts": {"numQubits": 5, "tCount": 10}})"));
  EXPECT_FALSE(v3.ok());
  EXPECT_NE(find_diagnostic(v3.diagnostics, "unsupported-version", "/schemaVersion"),
            nullptr);
}

TEST(SchemaV2, ShimEquivalenceOnFig4Sweep) {
  // The paper's Figure 4 sweep (6 profiles x 3 budgets), as shipped in
  // examples/: the v1 document and its explicit v2 upgrade must produce
  // byte-identical result documents.
  json::Value v1 = json::parse_file(std::string(QRE_SOURCE_DIR) +
                                    "/examples/fig4_sweep_job.json");
  ASSERT_EQ(v1.find("schemaVersion"), nullptr);  // shipped as v1
  json::Value v2 = v1;
  v2.set("schemaVersion", 2);

  json::Value via_shim = run_job(v1);
  json::Value native_v2 = run_job(v2);
  EXPECT_EQ(via_shim.dump(), native_v2.dump());

  EstimateRequest request = EstimateRequest::parse(v1);
  ASSERT_TRUE(request.ok()) << request.diagnostics.summary();
  EstimateResponse response = api::run(request);
  ASSERT_TRUE(response.success);
  EXPECT_EQ(response.result.dump(), via_shim.dump());
}

// ----------------------------------------------------------- the façade ---

TEST(Facade, RunJobThrowsValidationErrorWithDiagnostics) {
  json::Value job = json::parse_file(std::string(QRE_SOURCE_DIR) +
                                     "/tests/data/invalid_job_v2.json");
  try {
    run_job(job);
    FAIL() << "run_job accepted an invalid document";
  } catch (const ValidationError& e) {
    EXPECT_EQ(e.diagnostics().num_errors(), 3u);
    EXPECT_NE(std::string(e.what()).find("/errorBudget"), std::string::npos);
  }
}

TEST(Facade, BatchItemsFailWithStructuredErrors) {
  json::Value job = json::parse(R"({
    "logicalCounts": {"numQubits": 10, "tCount": 1000},
    "items": [
      {},
      {"qubitParams": {"name": "qubit_gate_ns_e3", "twoQubitGateErrorRate": 0.5}}
    ]
  })");
  EstimateRequest request = EstimateRequest::parse(job);
  ASSERT_TRUE(request.ok()) << request.diagnostics.summary();
  EstimateResponse response = api::run(request);
  ASSERT_TRUE(response.success);
  const json::Array& results = response.result.at("results").as_array();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_NE(results[0].materialize().find("physicalCounts"), nullptr);
  const json::Value& error = results[1].at("error");
  EXPECT_EQ(error.at("code").as_string(), "estimation-failed");
  EXPECT_FALSE(error.at("message").as_string().empty());
  EXPECT_EQ(response.result.at("batchStats").at("numErrors").as_uint(), 1u);
}

TEST(Facade, DistillationUnitsResolveFromRegistryByName) {
  json::Value job = json::parse(R"({
    "logicalCounts": {"numQubits": 10, "tCount": 1000},
    "distillationUnitSpecifications": [{"name": "15-to-1 space efficient"}]
  })");
  EstimateRequest request = EstimateRequest::parse(job);
  ASSERT_TRUE(request.ok()) << request.diagnostics.summary();
  EstimationInput input = estimation_input_from_json(job);
  ASSERT_EQ(input.distillation_units.size(), 1u);
  EXPECT_FALSE(input.distillation_units[0].allow_physical);
  EXPECT_EQ(input.distillation_units[0].logical_qubits_at_logical, 20u);

  json::Value bad = json::parse(R"({
    "logicalCounts": {"numQubits": 10, "tCount": 1000},
    "distillationUnitSpecifications": [{"name": "no_such_template"}]
  })");
  EXPECT_FALSE(EstimateRequest::parse(bad).ok());
  EXPECT_THROW(estimation_input_from_json(bad), Error);
}

TEST(Facade, GlobalRegistryExtendsJobVocabulary) {
  QubitParams custom = QubitParams::gate_us_e3();
  custom.name = "test_api_custom_qubit";
  Registry::global().register_qubit(custom);
  json::Value job = json::parse(R"({
    "logicalCounts": {"numQubits": 10, "tCount": 1000},
    "qubitParams": {"name": "test_api_custom_qubit"}
  })");
  EXPECT_TRUE(EstimateRequest::parse(job).ok());
  const json::Value result = run_job(job).materialize();
  EXPECT_EQ(result.at("physicalQubitParameters").at("name").as_string(),
            "test_api_custom_qubit");
}

TEST(Facade, SingleEstimateCollectsTimings) {
  // A single estimate's result is raw bytes; the opt-in timings block must
  // still be appended, on the private path and through a shared cache,
  // without ever reaching the cached bytes.
  const char* kJob = R"({"logicalCounts": {"numQubits": 10, "tCount": 1000}})";
  json::Value timed_job = json::parse(kJob);
  timed_job.set("collectTimings", json::Value(true));
  const EstimateRequest timed = EstimateRequest::parse(timed_job);
  const EstimateRequest plain = EstimateRequest::parse(json::parse(kJob));
  ASSERT_TRUE(timed.ok());
  ASSERT_TRUE(plain.ok());
  const std::string plain_bytes = api::run(plain).result.dump();

  service::Engine engine;
  for (const service::EngineOptions& options : {service::EngineOptions{}, engine.options(),
                                                engine.options()}) {
    EstimateResponse response = api::run(timed, options);
    ASSERT_TRUE(response.success);
    ASSERT_TRUE(response.result.is_object());
    const json::Value* timings = response.result.find("timings");
    ASSERT_NE(timings, nullptr);
    EXPECT_GE(timings->at("totalWallMs").as_double(), 0.0);
    json::Object rest = response.result.as_object();
    rest.pop_back();  // the block is appended last
    EXPECT_EQ(json::Value(std::move(rest)).dump(), plain_bytes);
  }
  EXPECT_EQ(engine.cache().hits(), 1u);
  const EstimateResponse cached = api::run(plain, engine.options());
  EXPECT_EQ(cached.result.dump(), plain_bytes);  // the cache never saw the block
}

TEST(Facade, StrictParsersRejectUnknownKeysWithoutSink) {
  json::Value job = json::parse(R"({
    "logicalCounts": {"numQubits": 10, "tCount": 1000},
    "qubitParams": {"name": "qubit_gate_ns_e3", "tGateTim": 25}
  })");
  // Strict path (no diagnostics sink): the typo is an error...
  EXPECT_THROW(estimation_input_from_json(job), Error);
  // ...while the façade downgrades it to a warning and still runs.
  EstimateRequest request = EstimateRequest::parse(job);
  EXPECT_TRUE(request.ok());
  ASSERT_EQ(request.diagnostics.size(), 1u);
  EXPECT_EQ(request.diagnostics.entries()[0].code, "unknown-key");
  EXPECT_EQ(request.diagnostics.entries()[0].path, "/qubitParams/tGateTim");
  EXPECT_TRUE(api::run(request).success);
}

}  // namespace
}  // namespace qre
