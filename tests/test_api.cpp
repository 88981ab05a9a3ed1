// Tests of the v2 API layer (src/api/): the profile registry and profile
// packs, the versioned job schema with its multi-error validation pass, the
// v1 -> v2 upgrade shim, and the request/response façade with structured
// per-item diagnostics.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "common/error.hpp"
#include "tests/run_request.hpp"

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
      {"name": "ok_profile", "base": "qubit_maj_ns_e4", "tGateErrorRate": 0.04},
      {"name": "q", "base": "qubit_gate_ns_e3", "tGateTime": "fast"},
      {"name": "maj_from_gate", "base": "qubit_gate_ns_e3", "instructionSet": "Majorana"}
    ],
    "qecSchemes": [
      {"name": "zero_distance", "instructionSet": "GateBased", "maxCodeDistance": 0}
    ]
  })");
  r.load_profile_pack(pack, diags);
  EXPECT_TRUE(diags.has_errors());
  EXPECT_NE(find_diagnostic(diags, "unknown-name", "/qubitParams/0/base"), nullptr);
  EXPECT_NE(find_diagnostic(diags, "required-missing", "/qubitParams/1/name"), nullptr);
  EXPECT_EQ(r.find_qubit("orphan"), nullptr);
  ASSERT_NE(r.find_qubit("ok_profile"), nullptr);  // valid entry still landed
  EXPECT_DOUBLE_EQ(r.find_qubit("ok_profile")->t_gate_error_rate, 0.04);

  // Pack entries go through the job's section parsers: every problem is
  // reported at the field's own path, and an entry a job would reject
  // is not registered.
  const Diagnostic* type = find_diagnostic(diags, "type-mismatch", "/qubitParams/3/tGateTime");
  ASSERT_NE(type, nullptr);
  EXPECT_EQ(type->message, "'tGateTime' must be a number");
  EXPECT_EQ(r.find_qubit("q"), nullptr);
  for (const char* field : {"twoQubitJointMeasurementTime", "twoQubitJointMeasurementErrorRate"}) {
    const Diagnostic* missing = find_diagnostic(
        diags, "required-missing", std::string("/qubitParams/4/") + field);
    ASSERT_NE(missing, nullptr) << field;
    EXPECT_EQ(missing->message, std::string("required field '") + field + "' is missing");
  }
  EXPECT_EQ(r.find_qubit("maj_from_gate"), nullptr);
  const Diagnostic* distance =
      find_diagnostic(diags, "value-range", "/qecSchemes/0/maxCodeDistance");
  ASSERT_NE(distance, nullptr);
  EXPECT_EQ(distance->message, "'maxCodeDistance' must be >= 1");
  EXPECT_EQ(r.find_qec("zero_distance", InstructionSet::kGateBased), nullptr);
  // No finding is reported on a whole entry: each names its field.
  for (const Diagnostic& d : diags.entries()) {
    EXPECT_EQ(std::count(d.path.begin(), d.path.end(), '/'), 3) << d.path << ": " << d.message;
  }
}

TEST(Registry, RetunedDefaultSchemeAppliesWithoutAQecSchemeSection) {
  Registry r = Registry::with_builtins();
  Diagnostics diags;
  r.load_profile_pack(json::parse(R"({"qecSchemes": [
    {"name": "surface_code", "instructionSet": "GateBased", "crossingPrefactor": 0.05}
  ]})"), diags);
  ASSERT_FALSE(diags.has_errors()) << diags.summary();
  const auto input = [&r](const char* sections) {
    const std::string doc = std::string(R"({"logicalCounts": {"numQubits": 5, "tCount": 10})") +
                            sections + "}";
    return api::input_from_document(json::parse(doc), r);
  };
  // No section: the registry's (re-tuned) default scheme.
  EXPECT_DOUBLE_EQ(input("").qec.crossing_prefactor(), 0.05);
  // A section naming the scheme overrides the registered entry.
  const EstimationInput named =
      input(R"(, "qecScheme": {"name": "surface_code", "maxCodeDistance": 30})");
  EXPECT_DOUBLE_EQ(named.qec.crossing_prefactor(), 0.05);
  EXPECT_EQ(named.qec.max_code_distance(), 30u);
  // A section without a name overrides the built-in default scheme.
  const EstimationInput unnamed = input(R"(, "qecScheme": {"maxCodeDistance": 30})");
  EXPECT_DOUBLE_EQ(unnamed.qec.crossing_prefactor(), 0.03);
  EXPECT_EQ(unnamed.qec.max_code_distance(), 30u);
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

  json::Value via_shim = run_request(v1);
  json::Value native_v2 = run_request(v2);
  EXPECT_EQ(via_shim.dump(), native_v2.dump());

  EstimateRequest request = EstimateRequest::parse(v1);
  ASSERT_TRUE(request.ok()) << request.diagnostics.summary();
  EstimateResponse response = api::run(request);
  ASSERT_TRUE(response.success);
  EXPECT_EQ(response.result.dump(), via_shim.dump());
}

/// One invalid document per validation rule, with the full ordered
/// (severity, code, path, message) list EstimateRequest::parse returns.
/// The table pins every message byte for byte, and the order they come in.
struct PinCase {
  const char* document;
  std::vector<std::array<std::string, 4>> expected;
};

std::string render_diagnostics(const Diagnostics& diags) {
  std::string out;
  for (const Diagnostic& d : diags.entries()) {
    out += "{\"" + std::string(to_string(d.severity)) + "\", \"" + d.code + "\", \"" + d.path +
           "\", \"" + d.message + "\"},\n";
  }
  return out;
}

const std::vector<PinCase>& pin_cases() {
  static const std::vector<PinCase> kCases = {
      {R"({"logicalCounts": 5})",
       {{"error", "type-mismatch", "/logicalCounts",
         "logicalCounts must be an object"}}},
      {R"({"logicalCounts": {"tCount": 5}})",
       {{"error", "required-missing", "/logicalCounts/numQubits",
         "required field 'numQubits' is missing"}}},
      {R"({"logicalCounts": {"numQubits": "ten"}})",
       {{"error", "type-mismatch", "/logicalCounts/numQubits",
         "'numQubits' must be a non-negative integer"}}},
      {R"({"logicalCounts": {"numQubits": 0}})",
       {{"error", "value-range", "/logicalCounts/numQubits",
         "'numQubits' must be positive"}}},
      {R"({"logicalCounts": {"numQubits": 1, "tCount": -1}})",
       {{"error", "type-mismatch", "/logicalCounts/tCount",
         "'tCount' must be a non-negative integer"}}},
      {R"({"logicalCounts": {"numQubits": 1, "rotationCount": 2, "rotationDepth": 3}})",
       {{"error", "value-range", "/logicalCounts/rotationDepth",
         "'rotationDepth' cannot exceed 'rotationCount'"}}},
      {R"({"logicalCounts": {"numQubits": 1, "rotationCount": 2}})",
       {{"error", "value-range", "/logicalCounts/rotationDepth",
         "'rotationDepth' must be positive when rotations are present"}}},
      {R"({"logicalCounts": {"numQubits": 1.5, "tCont": 1, "cczCount": "x",
                             "rotationCount": 1, "rotationDepth": 0.5}})",
       {{"warning", "unknown-key", "/logicalCounts/tCont",
         "unknown key 'tCont'"},
        {"error", "type-mismatch", "/logicalCounts/numQubits",
         "'numQubits' must be a non-negative integer"},
        {"error", "type-mismatch", "/logicalCounts/rotationDepth",
         "'rotationDepth' must be a non-negative integer"},
        {"error", "type-mismatch", "/logicalCounts/cczCount",
         "'cczCount' must be a non-negative integer"},
        {"error", "value-range", "/logicalCounts/rotationDepth",
         "'rotationDepth' must be positive when rotations are present"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "qubitParams": []})",
       {{"error", "type-mismatch", "/qubitParams",
         "qubitParams must be an object"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "qubitParams": {"name": 5}})",
       {{"error", "type-mismatch", "/qubitParams/name",
         "'name' must be a string"},
        {"error", "unknown-name", "/qubitParams/name",
         "custom qubit model requires 'instructionSet'"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "qubitParams": {"name": "qubit_gate_ns_e3", "instructionSet": 7}})",
       {{"error", "type-mismatch", "/qubitParams/instructionSet",
         "'instructionSet' must be a string"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "qubitParams": {"name": "qubit_gate_ns_e3", "instructionSet": "Quantum"}})",
       {{"error", "invalid-value", "/qubitParams/instructionSet",
         "unknown instructionSet 'Quantum' (expected GateBased or Majorana)"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "qubitParams": {"name": "no_such_qubit"}})",
       {{"error", "unknown-name", "/qubitParams/name",
         "unknown qubit profile 'no_such_qubit' and no 'instructionSet' to build a custom model"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "qubitParams": {"instructionSet": "GateBased"}})",
       {{"error", "required-missing", "/qubitParams/oneQubitMeasurementTime",
         "required field 'oneQubitMeasurementTime' is missing"},
        {"error", "required-missing", "/qubitParams/oneQubitGateTime",
         "required field 'oneQubitGateTime' is missing"},
        {"error", "required-missing", "/qubitParams/twoQubitGateTime",
         "required field 'twoQubitGateTime' is missing"},
        {"error", "required-missing", "/qubitParams/tGateTime",
         "required field 'tGateTime' is missing"},
        {"error", "required-missing", "/qubitParams/oneQubitMeasurementErrorRate",
         "required field 'oneQubitMeasurementErrorRate' is missing"},
        {"error", "required-missing", "/qubitParams/oneQubitGateErrorRate",
         "required field 'oneQubitGateErrorRate' is missing"},
        {"error", "required-missing", "/qubitParams/twoQubitGateErrorRate",
         "required field 'twoQubitGateErrorRate' is missing"},
        {"error", "required-missing", "/qubitParams/tGateErrorRate",
         "required field 'tGateErrorRate' is missing"},
        {"error", "required-missing", "/qubitParams/idleErrorRate",
         "required field 'idleErrorRate' is missing"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "qubitParams": {"instructionSet": "Majorana", "oneQubitMeasurementTime": 100}})",
       {{"error", "required-missing", "/qubitParams/twoQubitJointMeasurementTime",
         "required field 'twoQubitJointMeasurementTime' is missing"},
        {"error", "required-missing", "/qubitParams/tGateTime",
         "required field 'tGateTime' is missing"},
        {"error", "required-missing", "/qubitParams/oneQubitMeasurementErrorRate",
         "required field 'oneQubitMeasurementErrorRate' is missing"},
        {"error", "required-missing", "/qubitParams/twoQubitJointMeasurementErrorRate",
         "required field 'twoQubitJointMeasurementErrorRate' is missing"},
        {"error", "required-missing", "/qubitParams/tGateErrorRate",
         "required field 'tGateErrorRate' is missing"},
        {"error", "required-missing", "/qubitParams/idleErrorRate",
         "required field 'idleErrorRate' is missing"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "qubitParams": {"name": "qubit_gate_ns_e3", "tGateTime": 0}})",
       {{"error", "value-range", "/qubitParams/tGateTime",
         "'tGateTime' must be positive"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "qubitParams": {"name": "qubit_gate_ns_e3", "tGateTime": "fast"}})",
       {{"error", "type-mismatch", "/qubitParams/tGateTime",
         "'tGateTime' must be a number"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "qubitParams": {"name": "qubit_gate_ns_e3", "tGateErrorRate": 1}})",
       {{"error", "value-range", "/qubitParams/tGateErrorRate",
         "'tGateErrorRate' must be in (0, 1)"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "qubitParams": {"name": "qubit_gate_ns_e3", "idleErrorRate": "low"}})",
       {{"error", "type-mismatch", "/qubitParams/idleErrorRate",
         "'idleErrorRate' must be a number"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "qubitParams": {"name": "nope", "tGateTim": 1, "oneQubitGateTime": -1, "idleErrorRate": 2}})",
       {{"warning", "unknown-key", "/qubitParams/tGateTim",
         "unknown key 'tGateTim'"},
        {"error", "unknown-name", "/qubitParams/name",
         "unknown qubit profile 'nope' and no 'instructionSet' to build a custom model"},
        {"error", "value-range", "/qubitParams/oneQubitGateTime",
         "'oneQubitGateTime' must be positive"},
        {"error", "value-range", "/qubitParams/idleErrorRate",
         "'idleErrorRate' must be in (0, 1)"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "qecScheme": "surface_code"})",
       {{"error", "type-mismatch", "/qecScheme",
         "qecScheme must be an object"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "qecScheme": {"name": 5}})",
       {{"error", "type-mismatch", "/qecScheme/name",
         "'name' must be a string"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "qecScheme": {"name": "floquet_code"}})",
       {{"error", "unknown-name", "/qecScheme/name",
         "unknown QEC scheme 'floquet_code' for GateBased hardware"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "qecScheme": {"errorCorrectionThreshold": 1.5}})",
       {{"error", "value-range", "/qecScheme/errorCorrectionThreshold",
         "'errorCorrectionThreshold' must be in (0, 1)"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "qecScheme": {"errorCorrectionThreshold": "x"}})",
       {{"error", "type-mismatch", "/qecScheme/errorCorrectionThreshold",
         "'errorCorrectionThreshold' must be a number"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "qecScheme": {"crossingPrefactor": 0}})",
       {{"error", "value-range", "/qecScheme/crossingPrefactor",
         "'crossingPrefactor' must be positive"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "qecScheme": {"logicalCycleTime": 5}})",
       {{"error", "type-mismatch", "/qecScheme/logicalCycleTime",
         "'logicalCycleTime' must be a string"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "qecScheme": {"physicalQubitsPerLogicalQubit": "2 * * codeDistance"}})",
       {{"error", "invalid-formula", "/qecScheme/physicalQubitsPerLogicalQubit",
         "formula parse error at offset 4 in \"2 * * codeDistance\": expected a number, identifier, or '('"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "qecScheme": {"maxCodeDistance": 2.5}})",
       {{"error", "type-mismatch", "/qecScheme/maxCodeDistance",
         "'maxCodeDistance' must be a non-negative integer"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "qecScheme": {"maxCodeDistance": 0}})",
       {{"error", "value-range", "/qecScheme/maxCodeDistance",
         "'maxCodeDistance' must be >= 1"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "qubitParams": {"name": "qubit_maj_ns_e4"}, "qecScheme": {"name": "nope", "typo": 1, "crossingPrefactor": -1, "maxCodeDistance": 0}})",
       {{"warning", "unknown-key", "/qecScheme/typo",
         "unknown key 'typo'"},
        {"error", "unknown-name", "/qecScheme/name",
         "unknown QEC scheme 'nope' for Majorana hardware"},
        {"error", "value-range", "/qecScheme/crossingPrefactor",
         "'crossingPrefactor' must be positive"},
        {"error", "value-range", "/qecScheme/maxCodeDistance",
         "'maxCodeDistance' must be >= 1"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "errorBudget": 1.5})",
       {{"error", "value-range", "/errorBudget",
         "error budget must be in (0, 1)"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "errorBudget": "small"})",
       {{"error", "type-mismatch", "/errorBudget",
         "errorBudget must be a number or an object"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "errorBudget": {"total": "x"}})",
       {{"error", "type-mismatch", "/errorBudget/total",
         "'total' must be a number"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "errorBudget": {"total": 0}})",
       {{"error", "value-range", "/errorBudget/total",
         "'total' must be in (0, 1)"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "errorBudget": {"logical": 0.001}})",
       {{"error", "required-missing", "/errorBudget/tstates",
         "required field 'tstates' is missing"},
        {"error", "required-missing", "/errorBudget/rotations",
         "required field 'rotations' is missing"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "errorBudget": {"logical": "a", "tstates": 0.1, "rotations": 0.1}})",
       {{"error", "type-mismatch", "/errorBudget/logical",
         "'logical' must be a number"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "errorBudget": {"logical": 0, "tstates": -0.1, "rotations": -0.2}})",
       {{"error", "value-range", "/errorBudget/logical",
         "'logical' budget part must be positive"},
        {"error", "value-range", "/errorBudget/tstates",
         "'tstates' budget part must be non-negative"},
        {"error", "value-range", "/errorBudget/rotations",
         "'rotations' budget part must be non-negative"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "errorBudget": {"logical": 0.5, "tstates": 0.3, "rotations": 0.3}})",
       {{"error", "value-range", "/errorBudget",
         "error budget parts must sum below 1"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "errorBudget": {"totl": 0.1}})",
       {{"warning", "unknown-key", "/errorBudget/totl",
         "unknown key 'totl'"},
        {"error", "required-missing", "/errorBudget/logical",
         "required field 'logical' is missing"},
        {"error", "required-missing", "/errorBudget/tstates",
         "required field 'tstates' is missing"},
        {"error", "required-missing", "/errorBudget/rotations",
         "required field 'rotations' is missing"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "constraints": []})",
       {{"error", "type-mismatch", "/constraints",
         "constraints must be an object"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "constraints": {"logicalDepthFactor": 0.5}})",
       {{"error", "value-range", "/constraints/logicalDepthFactor",
         "'logicalDepthFactor' must be >= 1"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "constraints": {"logicalDepthFactor": "x"}})",
       {{"error", "type-mismatch", "/constraints/logicalDepthFactor",
         "'logicalDepthFactor' must be a number"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "constraints": {"maxTFactories": 0, "maxPhysicalQubits": -3}})",
       {{"error", "value-range", "/constraints/maxTFactories",
         "'maxTFactories' must be >= 1"},
        {"error", "type-mismatch", "/constraints/maxPhysicalQubits",
         "'maxPhysicalQubits' must be a non-negative integer"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "constraints": {"numTsPerRotation": 1.5}})",
       {{"error", "type-mismatch", "/constraints/numTsPerRotation",
         "'numTsPerRotation' must be a non-negative integer"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "constraints": {"maxDuration": 0}})",
       {{"error", "value-range", "/constraints/maxDuration",
         "'maxDuration' must be positive"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "constraints": {"maxDuration": "long", "maxTFactoris": 1}})",
       {{"warning", "unknown-key", "/constraints/maxTFactoris",
         "unknown key 'maxTFactoris'"},
        {"error", "type-mismatch", "/constraints/maxDuration",
         "'maxDuration' must be a number"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "distillationUnitSpecifications": {}})",
       {{"error", "type-mismatch", "/distillationUnitSpecifications",
         "distillationUnitSpecifications must be an array"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "distillationUnitSpecifications": []})",
       {{"error", "value-range", "/distillationUnitSpecifications",
         "distillationUnitSpecifications must not be empty"}}},
      // At most kMaxDistillationUnits entries: the search grows about
      // cubically with the unit count.
      {R"({"logicalCounts": {"numQubits": 1}, "distillationUnitSpecifications": [)"
       R"({"name": "15-to-1 RM prep"}, {"name": "15-to-1 space efficient"},)"
       R"({"name": "15-to-1 RM prep"}, {"name": "15-to-1 space efficient"},)"
       R"({"name": "15-to-1 RM prep"}, {"name": "15-to-1 space efficient"},)"
       R"({"name": "15-to-1 RM prep"}, {"name": "15-to-1 space efficient"},)"
       R"({"name": "15-to-1 RM prep"}]})",
       {{"error", "value-range", "/distillationUnitSpecifications",
         "distillationUnitSpecifications lists 9 units; at most 8 are allowed"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "distillationUnitSpecifications": [5]})",
       {{"error", "type-mismatch", "/distillationUnitSpecifications/0",
         "distillation unit specification must be an object"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "distillationUnitSpecifications": [{"name": 7}]})",
       {{"error", "type-mismatch", "/distillationUnitSpecifications/0/name",
         "'name' must be a string"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "distillationUnitSpecifications": [{"name": "nope"}]})",
       {{"error", "unknown-name", "/distillationUnitSpecifications/0/name",
         "unknown distillation unit template 'nope'"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "distillationUnitSpecifications": [{"name": "u", "numInputTs": 1}]})",
       {{"error", "required-missing", "/distillationUnitSpecifications/0/numOutputTs",
         "required field 'numOutputTs' is missing"},
        {"error", "required-missing", "/distillationUnitSpecifications/0/failureProbabilityFormula",
         "required field 'failureProbabilityFormula' is missing"},
        {"error", "required-missing", "/distillationUnitSpecifications/0/outputErrorRateFormula",
         "required field 'outputErrorRateFormula' is missing"},
        {"error", "required-missing", "/distillationUnitSpecifications/0",
         "distillation unit needs a physicalQubitSpecification or logicalQubitSpecification"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "distillationUnitSpecifications": [{"numInputTs": "x", "numOutputTs": 2, "failureProbabilityFormula": 5, "outputErrorRateFormula": "((", "physicalQubitSpecification": 3, "bogus": 1}]})",
       {{"warning", "unknown-key", "/distillationUnitSpecifications/0/bogus",
         "unknown key 'bogus'"},
        {"error", "required-missing", "/distillationUnitSpecifications/0/name",
         "required field 'name' is missing"},
        {"error", "type-mismatch", "/distillationUnitSpecifications/0/numInputTs",
         "'numInputTs' must be a non-negative integer"},
        {"error", "type-mismatch", "/distillationUnitSpecifications/0/failureProbabilityFormula",
         "'failureProbabilityFormula' must be a string"},
        {"error", "invalid-formula", "/distillationUnitSpecifications/0/outputErrorRateFormula",
         "formula parse error at offset 2 in \"((\": expected a number, identifier, or '('"},
        {"error", "type-mismatch", "/distillationUnitSpecifications/0/physicalQubitSpecification",
         "'physicalQubitSpecification' must be an object"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "distillationUnitSpecifications": [{"name": "u", "numInputTs": 2, "numOutputTs": 2, "failureProbabilityFormula": "0", "outputErrorRateFormula": "0", "physicalQubitSpecification": {"x": 1}, "logicalQubitSpecification": {"numUnitQubits": -1}}]})",
       {{"error", "value-range", "/distillationUnitSpecifications/0/numOutputTs",
         "a distillation unit must output fewer (but at least one) T states than it consumes"},
        {"warning", "unknown-key", "/distillationUnitSpecifications/0/physicalQubitSpecification/x",
         "unknown key 'x'"},
        {"error", "required-missing", "/distillationUnitSpecifications/0/physicalQubitSpecification/numUnitQubits",
         "required field 'numUnitQubits' is missing"},
        {"error", "required-missing", "/distillationUnitSpecifications/0/physicalQubitSpecification/durationFormula",
         "required field 'durationFormula' is missing"},
        {"error", "type-mismatch", "/distillationUnitSpecifications/0/logicalQubitSpecification/numUnitQubits",
         "'numUnitQubits' must be a non-negative integer"},
        {"error", "required-missing", "/distillationUnitSpecifications/0/logicalQubitSpecification/durationInLogicalCycles",
         "required field 'durationInLogicalCycles' is missing"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "distillationUnitSpecifications": [{"name": "u", "numInputTs": 2, "numOutputTs": 1, "failureProbabilityFormula": "0", "outputErrorRateFormula": "0", "physicalQubitSpecification": {"numUnitQubits": 5, "durationFormula": "1 +"}, "logicalQubitSpecification": "x"}]})",
       {{"error", "type-mismatch", "/distillationUnitSpecifications/0/logicalQubitSpecification",
         "'logicalQubitSpecification' must be an object"},
        {"error", "invalid-formula", "/distillationUnitSpecifications/0/physicalQubitSpecification/durationFormula",
         "formula parse error at offset 3 in \"1 +\": expected a number, identifier, or '('"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "estimateType": 5})",
       {{"error", "type-mismatch", "/estimateType",
         "estimateType must be a string"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "estimateType": "pareto"})",
       {{"error", "invalid-value", "/estimateType",
         "unknown estimateType 'pareto' (expected singlePoint or frontier)"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "frontier": []})",
       {{"error", "type-mismatch", "/frontier",
         "frontier must be an object"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "frontier": {"maxProbes": "x"}})",
       {{"error", "type-mismatch", "/frontier/maxProbes",
         "'maxProbes' must be a non-negative integer"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "frontier": {"maxProbes": 1}})",
       {{"error", "value-range", "/frontier/maxProbes",
         "'maxProbes' must be >= 2 (the frontier needs both bracket probes)"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "frontier": {"qubitTolerance": -1, "runtimeTolerance": "x"}})",
       {{"error", "value-range", "/frontier/qubitTolerance",
         "'qubitTolerance' must be >= 0"},
        {"error", "type-mismatch", "/frontier/runtimeTolerance",
         "'runtimeTolerance' must be a number"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "frontier": {"errorBudgets": {}}})",
       {{"error", "type-mismatch", "/frontier/errorBudgets",
         "'errorBudgets' must be an array"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "frontier": {"errorBudgets": []}})",
       {{"error", "value-range", "/frontier/errorBudgets",
         "'errorBudgets' must not be empty"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "frontier": {"errorBudgets": ["x", 2, 0.1]}})",
       {{"error", "type-mismatch", "/frontier/errorBudgets/0",
         "error budget must be a number"},
        {"error", "value-range", "/frontier/errorBudgets/1",
         "error budget must be in (0, 1)"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "frontier": {"maxProbes": 2, "errorBudgets": [0.1, 0.01, 0.001]}})",
       {{"error", "value-range", "/frontier/errorBudgets",
         "'errorBudgets' has more levels than 'maxProbes' allows probes"}}},
      {R"({"logicalCounts": {"numQubits": 1}, "frontier": {"maxProbes": 1}, "items": [{}], "qubitParams": {"name": "x"}})",
       {{"error", "mutually-exclusive", "/frontier",
         "a frontier job cannot carry items or sweep"},
        {"error", "value-range", "/frontier/maxProbes",
         "'maxProbes' must be >= 2 (the frontier needs both bracket probes)"},
        {"error", "unknown-name", "/qubitParams/name",
         "unknown qubit profile 'x' and no 'instructionSet' to build a custom model"}}},
      {R"({"logicalCounts": {"numQubits": 0}, "qubitParams": {"name": "qubit_gate_ns_e3", "tGateErrorRate": 2}, "qecScheme": {"maxCodeDistance": 0}, "errorBudget": 2, "constraints": {"maxDuration": -1}, "distillationUnitSpecifications": [], "estimateType": "x", "frobnicate": 1})",
       {{"warning", "unknown-key", "/frobnicate",
         "unknown key 'frobnicate'"},
        {"error", "value-range", "/logicalCounts/numQubits",
         "'numQubits' must be positive"},
        {"error", "value-range", "/qubitParams/tGateErrorRate",
         "'tGateErrorRate' must be in (0, 1)"},
        {"error", "value-range", "/qecScheme/maxCodeDistance",
         "'maxCodeDistance' must be >= 1"},
        {"error", "value-range", "/errorBudget",
         "error budget must be in (0, 1)"},
        {"error", "value-range", "/constraints/maxDuration",
         "'maxDuration' must be positive"},
        {"error", "value-range", "/distillationUnitSpecifications",
         "distillationUnitSpecifications must not be empty"},
        {"error", "invalid-value", "/estimateType",
         "unknown estimateType 'x' (expected singlePoint or frontier)"}}},
      {R"({"errorBudget": 0.1})",
       {{"error", "required-missing", "/logicalCounts",
         "required field 'logicalCounts' is missing"}}},
  };
  return kCases;
}

TEST(SchemaV2, EveryRuleReportsItsPinnedDiagnostics) {
  for (const PinCase& c : pin_cases()) {
    SCOPED_TRACE(c.document);
    const EstimateRequest request = EstimateRequest::parse(json::parse(c.document));
    std::vector<std::array<std::string, 4>> actual;
    for (const Diagnostic& d : request.diagnostics.entries()) {
      actual.push_back({std::string(to_string(d.severity)), d.code, d.path, d.message});
    }
    EXPECT_EQ(actual, c.expected) << "actual:\n" << render_diagnostics(request.diagnostics);
  }
}

TEST(SchemaV2, RejectsWhatTheRunWouldFail) {
  // Validation and parsing share one parser per section, so a document that
  // validates also builds its input; these two used to pass validation and
  // then fail the run.
  struct Case {
    const char* file;
    std::vector<std::array<std::string, 4>> expected;
  };
  const Case cases[] = {
      // Counts compare as integers: 2^53 + 1 > 2^53.
      {"/tests/data/invalid_rotation_depth_precision.json",
       {{"error", "value-range", "/logicalCounts/rotationDepth",
         "'rotationDepth' cannot exceed 'rotationCount'"}}},
      // A preset switched to another instruction set lacks that set's fields.
      {"/tests/data/invalid_preset_instruction_set.json",
       {{"error", "required-missing", "/qubitParams/twoQubitJointMeasurementTime",
         "required field 'twoQubitJointMeasurementTime' is missing"},
        {"error", "required-missing", "/qubitParams/twoQubitJointMeasurementErrorRate",
         "required field 'twoQubitJointMeasurementErrorRate' is missing"}}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.file);
    const json::Value job = json::parse_file(std::string(QRE_SOURCE_DIR) + c.file);
    const EstimateRequest request = EstimateRequest::parse(job);
    std::vector<std::array<std::string, 4>> actual;
    for (const Diagnostic& d : request.diagnostics.entries()) {
      actual.push_back({std::string(to_string(d.severity)), d.code, d.path, d.message});
    }
    EXPECT_EQ(actual, c.expected) << render_diagnostics(request.diagnostics);
    EXPECT_THROW(api::input_from_document(job, Registry::global()), ValidationError);
  }
}

TEST(SchemaV2, CountsReachInt64Max) {
  // INT64_MAX is an exact count even though it rounds to 2^63 as a double;
  // only a number written as a double can reach 2^63.
  const EstimateRequest largest = EstimateRequest::parse(json::parse(
      R"({"logicalCounts": {"numQubits": 5, "measurementCount": 9223372036854775807}})"));
  EXPECT_TRUE(largest.diagnostics.empty()) << render_diagnostics(largest.diagnostics);
  ASSERT_TRUE(largest.input.has_value());
  EXPECT_EQ(largest.input->counts.measurement_count, 9223372036854775807u);

  const EstimateRequest beyond = EstimateRequest::parse(
      json::parse(R"({"logicalCounts": {"numQubits": 5, "measurementCount": 1e19}})"));
  std::vector<std::array<std::string, 4>> actual;
  for (const Diagnostic& d : beyond.diagnostics.entries()) {
    actual.push_back({std::string(to_string(d.severity)), d.code, d.path, d.message});
  }
  const std::vector<std::array<std::string, 4>> expected = {
      {"error", "value-range", "/logicalCounts/measurementCount",
       "'measurementCount' exceeds the largest supported count"}};
  EXPECT_EQ(actual, expected) << render_diagnostics(beyond.diagnostics);
}

// ----------------------------------------------------------- the façade ---

TEST(Facade, InvalidDocumentFailsWithEveryDiagnostic) {
  json::Value job = json::parse_file(std::string(QRE_SOURCE_DIR) +
                                     "/tests/data/invalid_job_v2.json");
  const EstimateRequest request = EstimateRequest::parse(job);
  EXPECT_EQ(request.diagnostics.num_errors(), 3u);
  EXPECT_NE(request.diagnostics.summary().find("/errorBudget"), std::string::npos);
  const EstimateResponse response = api::run(request);
  EXPECT_FALSE(response.success);
  EXPECT_EQ(response.diagnostics.num_errors(), 3u);
  EXPECT_EQ(response.to_json().find("result"), nullptr);
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
  EstimationInput input = api::input_from_document(job, Registry::global());
  ASSERT_EQ(input.distillation_units.size(), 1u);
  EXPECT_FALSE(input.distillation_units[0].allow_physical);
  EXPECT_EQ(input.distillation_units[0].logical_qubits_at_logical, 20u);

  json::Value bad = json::parse(R"({
    "logicalCounts": {"numQubits": 10, "tCount": 1000},
    "distillationUnitSpecifications": [{"name": "no_such_template"}]
  })");
  EXPECT_FALSE(EstimateRequest::parse(bad).ok());
  EXPECT_THROW(api::input_from_document(bad, Registry::global()), ValidationError);
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
  const json::Value result = run_request(job).materialize();
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
  EXPECT_THROW(api::input_from_document(job, Registry::global()), ValidationError);
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
