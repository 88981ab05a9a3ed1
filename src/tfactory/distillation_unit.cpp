#include "tfactory/distillation_unit.hpp"

#include "common/error.hpp"

namespace qre {

DistillationUnit DistillationUnit::rm_prep_15_to_1() {
  DistillationUnit u;
  u.name = "15-to-1 RM prep";
  u.num_input_ts = 15;
  u.num_output_ts = 1;
  u.allow_physical = true;
  u.allow_logical = true;
  u.failure_probability = Formula::parse("15 * inputErrorRate + 356 * cliffordErrorRate");
  u.output_error_rate = Formula::parse("35 * inputErrorRate ^ 3 + 7.1 * cliffordErrorRate");
  u.physical_qubits_at_physical = 31;
  u.duration_at_physical_ns = Formula::parse("23 * oneQubitMeasurementTime");
  u.logical_qubits_at_logical = 31;
  u.duration_in_logical_cycles = 11;
  return u;
}

DistillationUnit DistillationUnit::space_efficient_15_to_1() {
  DistillationUnit u;
  u.name = "15-to-1 space efficient";
  u.num_input_ts = 15;
  u.num_output_ts = 1;
  u.allow_physical = false;
  u.allow_logical = true;
  u.failure_probability = Formula::parse("15 * inputErrorRate + 356 * cliffordErrorRate");
  u.output_error_rate = Formula::parse("35 * inputErrorRate ^ 3 + 7.1 * cliffordErrorRate");
  u.logical_qubits_at_logical = 20;
  u.duration_in_logical_cycles = 13;
  return u;
}

std::vector<DistillationUnit> DistillationUnit::default_units() {
  // Parsed once per process and returned by copy: every default-constructed
  // EstimationInput starts from this set.
  static const std::vector<DistillationUnit> kUnits = {rm_prep_15_to_1(),
                                                       space_efficient_15_to_1()};
  return kUnits;
}

const std::vector<std::string_view>& DistillationUnit::json_keys() {
  static const std::vector<std::string_view> kKeys = {
      "name",
      "numInputTs",
      "numOutputTs",
      "failureProbabilityFormula",
      "outputErrorRateFormula",
      "physicalQubitSpecification",
      "logicalQubitSpecification",
  };
  return kKeys;
}

const std::vector<std::string_view>& DistillationUnit::physical_spec_keys() {
  static const std::vector<std::string_view> kKeys = {"numUnitQubits", "durationFormula"};
  return kKeys;
}

const std::vector<std::string_view>& DistillationUnit::logical_spec_keys() {
  static const std::vector<std::string_view> kKeys = {"numUnitQubits",
                                                      "durationInLogicalCycles"};
  return kKeys;
}

DistillationUnit DistillationUnit::from_json(const json::Value& v, Diagnostics* diags,
                                             std::string_view base_path) {
  check_known_keys(v, json_keys(), base_path, diags);
  DistillationUnit u;
  u.name = v.at("name").as_string();
  u.num_input_ts = v.at("numInputTs").as_uint();
  u.num_output_ts = v.at("numOutputTs").as_uint();
  u.failure_probability = Formula::parse(v.at("failureProbabilityFormula").as_string());
  u.output_error_rate = Formula::parse(v.at("outputErrorRateFormula").as_string());
  if (const json::Value* phys = v.find("physicalQubitSpecification")) {
    check_known_keys(*phys, physical_spec_keys(),
                     pointer_join(base_path, "physicalQubitSpecification"), diags);
    u.allow_physical = true;
    u.physical_qubits_at_physical = phys->at("numUnitQubits").as_uint();
    u.duration_at_physical_ns = Formula::parse(phys->at("durationFormula").as_string());
  }
  if (const json::Value* log = v.find("logicalQubitSpecification")) {
    check_known_keys(*log, logical_spec_keys(),
                     pointer_join(base_path, "logicalQubitSpecification"), diags);
    u.allow_logical = true;
    u.logical_qubits_at_logical = log->at("numUnitQubits").as_uint();
    u.duration_in_logical_cycles = log->at("durationInLogicalCycles").as_uint();
  }
  u.validate();
  return u;
}

json::Value DistillationUnit::to_json() const {
  json::Object o;
  o.emplace_back("name", name);
  o.emplace_back("numInputTs", num_input_ts);
  o.emplace_back("numOutputTs", num_output_ts);
  o.emplace_back("failureProbabilityFormula", failure_probability.text());
  o.emplace_back("outputErrorRateFormula", output_error_rate.text());
  if (allow_physical) {
    json::Object phys;
    phys.emplace_back("numUnitQubits", physical_qubits_at_physical);
    phys.emplace_back("durationFormula", duration_at_physical_ns.text());
    o.emplace_back("physicalQubitSpecification", json::Value(std::move(phys)));
  }
  if (allow_logical) {
    json::Object log;
    log.emplace_back("numUnitQubits", logical_qubits_at_logical);
    log.emplace_back("durationInLogicalCycles", duration_in_logical_cycles);
    o.emplace_back("logicalQubitSpecification", json::Value(std::move(log)));
  }
  return json::Value(std::move(o));
}

void DistillationUnit::validate() const {
  QRE_REQUIRE(num_input_ts > 0, "distillation unit '" + name + "': numInputTs must be positive");
  QRE_REQUIRE(num_output_ts > 0,
              "distillation unit '" + name + "': numOutputTs must be positive");
  QRE_REQUIRE(num_output_ts < num_input_ts,
              "distillation unit '" + name + "': must output fewer T states than it consumes");
  QRE_REQUIRE(allow_physical || allow_logical,
              "distillation unit '" + name + "': needs at least one level specification");
}

DistillationOutcome evaluate_unit(const DistillationUnit& unit, double input_error_rate,
                                  double clifford_error_rate, double readout_error_rate) {
  Environment env;
  env.set("inputErrorRate", input_error_rate);
  env.set("cliffordErrorRate", clifford_error_rate);
  env.set("readoutErrorRate", readout_error_rate);
  DistillationOutcome out;
  out.failure_probability = unit.failure_probability.evaluate(env);
  out.output_error_rate = unit.output_error_rate.evaluate(env);
  if (out.failure_probability < 0.0) out.failure_probability = 0.0;
  if (out.output_error_rate < 1e-30) out.output_error_rate = 1e-30;
  return out;
}

}  // namespace qre
