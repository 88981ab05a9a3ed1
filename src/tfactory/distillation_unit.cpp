#include "tfactory/distillation_unit.hpp"

#include <utility>

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

namespace {

/// `unit` with its formulas pinned (common/pinned.hpp).
DistillationUnit pinned(DistillationUnit unit) {
  unit.failure_probability = unit.failure_probability.pinned();
  unit.output_error_rate = unit.output_error_rate.pinned();
  unit.duration_at_physical_ns = unit.duration_at_physical_ns.pinned();
  return unit;
}

}  // namespace

std::vector<DistillationUnit> DistillationUnit::default_units() {
  // Parsed once per process, pinned, never destroyed, and returned by
  // copy: every default-constructed EstimationInput starts from this set,
  // so a copy's formulas must not share a reference count across threads.
  static const std::vector<DistillationUnit>& kUnits = *new std::vector<DistillationUnit>{
      pinned(rm_prep_15_to_1()), pinned(space_efficient_15_to_1())};
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

std::optional<DistillationUnit> DistillationUnit::parse(const json::Value& v,
                                                        std::string_view path,
                                                        Diagnostics& diags) {
  if (!v.is_object()) {
    diags.error("type-mismatch", std::string(path),
                "distillation unit specification must be an object");
    return std::nullopt;
  }
  const std::size_t errors = diags.num_errors();
  check_known_keys(v, json_keys(), path, diags);
  DistillationUnit u;
  if (const json::Value* name = expect(v, "name", FieldKind::kString, path, diags, true)) {
    u.name = name->as_string();
  }
  const std::optional<std::uint64_t> in = expect_count(v, "numInputTs", path, diags, true);
  const std::optional<std::uint64_t> out = expect_count(v, "numOutputTs", path, diags, true);
  if (in && out && !(*out > 0 && *out < *in)) {
    diags.error("value-range", pointer_join(path, "numOutputTs"),
                "a distillation unit must output fewer (but at least one) T states "
                "than it consumes");
  }
  u.num_input_ts = in.value_or(0);
  u.num_output_ts = out.value_or(0);
  for (const auto& [key, member] :
       {std::pair{"failureProbabilityFormula", &DistillationUnit::failure_probability},
        std::pair{"outputErrorRateFormula", &DistillationUnit::output_error_rate}}) {
    if (const json::Value* f = expect(v, key, FieldKind::kString, path, diags, true)) {
      if (std::optional<Formula> formula = check_formula(*f, key, path, diags)) {
        u.*member = std::move(*formula);
      }
    }
  }
  const json::Value* phys =
      expect(v, "physicalQubitSpecification", FieldKind::kObject, path, diags);
  const json::Value* log = expect(v, "logicalQubitSpecification", FieldKind::kObject, path, diags);
  if (v.find("physicalQubitSpecification") == nullptr &&
      v.find("logicalQubitSpecification") == nullptr) {
    diags.error("required-missing", std::string(path),
                "distillation unit needs a physicalQubitSpecification or "
                "logicalQubitSpecification");
  }
  if (phys != nullptr) {
    const std::string spec = pointer_join(path, "physicalQubitSpecification");
    check_known_keys(*phys, physical_spec_keys(), spec, diags);
    u.allow_physical = true;
    u.physical_qubits_at_physical =
        expect_count(*phys, "numUnitQubits", spec, diags, true).value_or(0);
    if (const json::Value* f =
            expect(*phys, "durationFormula", FieldKind::kString, spec, diags, true)) {
      if (std::optional<Formula> formula = check_formula(*f, "durationFormula", spec, diags)) {
        u.duration_at_physical_ns = std::move(*formula);
      }
    }
  }
  if (log != nullptr) {
    const std::string spec = pointer_join(path, "logicalQubitSpecification");
    check_known_keys(*log, logical_spec_keys(), spec, diags);
    u.allow_logical = true;
    u.logical_qubits_at_logical =
        expect_count(*log, "numUnitQubits", spec, diags, true).value_or(0);
    u.duration_in_logical_cycles =
        expect_count(*log, "durationInLogicalCycles", spec, diags, true).value_or(0);
  }
  if (diags.num_errors() != errors) return std::nullopt;
  return u;
}

DistillationUnit DistillationUnit::from_json(const json::Value& v, Diagnostics* diags,
                                             std::string_view base_path) {
  return parse_or_throw(diags, [&](Diagnostics& found) { return parse(v, base_path, found); });
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
