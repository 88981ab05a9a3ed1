#include "profiles/qubit_params.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace qre {

std::string_view to_string(InstructionSet s) {
  switch (s) {
    case InstructionSet::kGateBased: return "GateBased";
    case InstructionSet::kMajorana: return "Majorana";
  }
  return "?";
}

bool try_parse_instruction_set(std::string_view s, InstructionSet& out) {
  if (s == "GateBased" || s == "gate_based" || s == "gateBased") {
    out = InstructionSet::kGateBased;
    return true;
  }
  if (s == "Majorana" || s == "majorana") {
    out = InstructionSet::kMajorana;
    return true;
  }
  return false;
}

namespace {

QubitParams gate_based(std::string name, double gate_ns, double meas_ns, double clifford_err,
                       double t_err) {
  QubitParams q;
  q.name = std::move(name);
  q.instruction_set = InstructionSet::kGateBased;
  q.one_qubit_measurement_time_ns = meas_ns;
  q.one_qubit_gate_time_ns = gate_ns;
  q.two_qubit_gate_time_ns = gate_ns;
  q.t_gate_time_ns = gate_ns;
  q.one_qubit_measurement_error_rate = clifford_err;
  q.one_qubit_gate_error_rate = clifford_err;
  q.two_qubit_gate_error_rate = clifford_err;
  q.t_gate_error_rate = t_err;
  q.idle_error_rate = clifford_err;
  return q;
}

QubitParams majorana(std::string name, double meas_ns, double clifford_err, double t_err) {
  QubitParams q;
  q.name = std::move(name);
  q.instruction_set = InstructionSet::kMajorana;
  q.one_qubit_measurement_time_ns = meas_ns;
  q.two_qubit_joint_measurement_time_ns = meas_ns;
  q.t_gate_time_ns = meas_ns;
  q.one_qubit_measurement_error_rate = clifford_err;
  q.two_qubit_joint_measurement_error_rate = clifford_err;
  q.t_gate_error_rate = t_err;
  q.idle_error_rate = clifford_err;
  return q;
}

}  // namespace

QubitParams QubitParams::gate_ns_e3() {
  return gate_based("qubit_gate_ns_e3", 50.0, 100.0, 1e-3, 1e-3);
}
QubitParams QubitParams::gate_ns_e4() {
  return gate_based("qubit_gate_ns_e4", 50.0, 100.0, 1e-4, 1e-4);
}
QubitParams QubitParams::gate_us_e3() {
  return gate_based("qubit_gate_us_e3", 100e3, 100e3, 1e-3, 1e-6);
}
QubitParams QubitParams::gate_us_e4() {
  return gate_based("qubit_gate_us_e4", 100e3, 100e3, 1e-4, 1e-6);
}
QubitParams QubitParams::maj_ns_e4() { return majorana("qubit_maj_ns_e4", 100.0, 1e-4, 5e-2); }
QubitParams QubitParams::maj_ns_e6() { return majorana("qubit_maj_ns_e6", 100.0, 1e-6, 1e-2); }

const std::vector<std::string>& QubitParams::preset_names() {
  static const std::vector<std::string> kNames = {
      "qubit_gate_ns_e3", "qubit_gate_ns_e4", "qubit_gate_us_e3",
      "qubit_gate_us_e4", "qubit_maj_ns_e4",  "qubit_maj_ns_e6",
  };
  return kNames;
}

QubitParams QubitParams::from_name(std::string_view name) {
  if (name == "qubit_gate_ns_e3") return gate_ns_e3();
  if (name == "qubit_gate_ns_e4") return gate_ns_e4();
  if (name == "qubit_gate_us_e3") return gate_us_e3();
  if (name == "qubit_gate_us_e4") return gate_us_e4();
  if (name == "qubit_maj_ns_e4") return maj_ns_e4();
  if (name == "qubit_maj_ns_e6") return maj_ns_e6();
  throw_error("unknown qubit model '" + std::string(name) +
              "'; known presets: qubit_gate_ns_e3, qubit_gate_ns_e4, qubit_gate_us_e3, "
              "qubit_gate_us_e4, qubit_maj_ns_e4, qubit_maj_ns_e6");
}

namespace {

/// A numeric field: a duration (must be positive) or an error rate (must be
/// in (0, 1)), used by gate-based models, Majorana models, or both.
struct NumericField {
  std::string_view key;
  double QubitParams::*member;
  bool is_time;
  bool gate_based;
  bool majorana;

  bool used_by(InstructionSet set) const {
    return set == InstructionSet::kGateBased ? gate_based : majorana;
  }
};

/// Every numeric field, in document order.
constexpr NumericField kFields[] = {
    {"oneQubitMeasurementTime", &QubitParams::one_qubit_measurement_time_ns, true, true, true},
    {"oneQubitGateTime", &QubitParams::one_qubit_gate_time_ns, true, true, false},
    {"twoQubitGateTime", &QubitParams::two_qubit_gate_time_ns, true, true, false},
    {"twoQubitJointMeasurementTime", &QubitParams::two_qubit_joint_measurement_time_ns, true,
     false, true},
    {"tGateTime", &QubitParams::t_gate_time_ns, true, true, true},
    {"oneQubitMeasurementErrorRate", &QubitParams::one_qubit_measurement_error_rate, false, true,
     true},
    {"oneQubitGateErrorRate", &QubitParams::one_qubit_gate_error_rate, false, true, false},
    {"twoQubitGateErrorRate", &QubitParams::two_qubit_gate_error_rate, false, true, false},
    {"twoQubitJointMeasurementErrorRate", &QubitParams::two_qubit_joint_measurement_error_rate,
     false, false, true},
    {"tGateErrorRate", &QubitParams::t_gate_error_rate, false, true, true},
    {"idleErrorRate", &QubitParams::idle_error_rate, false, true, true},
};

}  // namespace

const std::vector<std::string_view>& QubitParams::json_keys() {
  static const std::vector<std::string_view> kKeys = [] {
    std::vector<std::string_view> keys = {"name", "instructionSet"};
    for (const NumericField& f : kFields) keys.push_back(f.key);
    return keys;
  }();
  return kKeys;
}

std::optional<QubitParams> QubitParams::parse(const json::Value& v, std::string_view path,
                                              const QubitParams* base, Diagnostics& diags,
                                              const std::vector<std::string_view>& keys) {
  if (!v.is_object()) {
    diags.error("type-mismatch", std::string(path), "qubitParams must be an object");
    return std::nullopt;
  }
  const std::size_t errors = diags.num_errors();
  check_known_keys(v, keys, path, diags);
  QubitParams q = base != nullptr ? *base : QubitParams{};
  const json::Value* name = expect(v, "name", FieldKind::kString, path, diags);
  if (base == nullptr && name != nullptr) q.name = name->as_string();

  bool set_known = base != nullptr;
  if (const json::Value* set = expect(v, "instructionSet", FieldKind::kString, path, diags)) {
    set_known = try_parse_instruction_set(set->as_string(), q.instruction_set);
    if (!set_known) {
      diags.error("invalid-value", pointer_join(path, "instructionSet"),
                  "unknown instructionSet '" + set->as_string() +
                      "' (expected GateBased or Majorana)");
    }
  } else if (base == nullptr && v.find("instructionSet") == nullptr) {
    diags.error("unknown-name", pointer_join(path, "name"),
                name != nullptr ? "unknown qubit profile '" + name->as_string() +
                                      "' and no 'instructionSet' to build a custom model"
                                : "custom qubit model requires 'instructionSet'");
  }
  // The fields the instruction set uses come from the section or the base
  // (a custom model has none).
  if (set_known) {
    for (const NumericField& f : kFields) {
      if (f.used_by(q.instruction_set) && q.*f.member == 0.0 && v.find(f.key) == nullptr) {
        diags.error("required-missing", pointer_join(path, f.key),
                    "required field '" + std::string(f.key) + "' is missing");
      }
    }
  }
  for (const NumericField& f : kFields) {
    if (const json::Value* x = expect(v, f.key, FieldKind::kNumber, path, diags)) {
      if (f.is_time ? check_positive_number(*x, f.key, path, diags)
                    : check_probability(*x, f.key, path, diags)) {
        q.*f.member = x->as_double();
      }
    }
  }
  if (diags.num_errors() != errors) return std::nullopt;
  return q;
}

QubitParams QubitParams::from_json(const json::Value& v, Diagnostics* diags) {
  const json::Value* name = v.is_object() ? v.find("name") : nullptr;
  std::optional<QubitParams> preset;
  try {
    if (name != nullptr) preset = from_name(name->as_string());
  } catch (const Error&) {
    // Not a preset: a custom model, or a name parse() reports.
  }
  return parse_or_throw(diags, [&](Diagnostics& found) {
    return parse(v, "/qubitParams", preset ? &*preset : nullptr, found);
  });
}

json::Value QubitParams::to_json() const {
  json::Object o;
  o.emplace_back("name", name);
  o.emplace_back("instructionSet", std::string(to_string(instruction_set)));
  for (const NumericField& f : kFields) {
    if (f.used_by(instruction_set)) o.emplace_back(std::string(f.key), this->*f.member);
  }
  return json::Value(std::move(o));
}

double QubitParams::clifford_error_rate() const {
  double worst = std::max(one_qubit_measurement_error_rate, idle_error_rate);
  if (instruction_set == InstructionSet::kGateBased) {
    worst = std::max({worst, one_qubit_gate_error_rate, two_qubit_gate_error_rate});
  } else {
    worst = std::max(worst, two_qubit_joint_measurement_error_rate);
  }
  return worst;
}

double QubitParams::readout_error_rate() const { return one_qubit_measurement_error_rate; }

void QubitParams::validate() const {
  auto check_time = [this](double t, const char* what) {
    QRE_REQUIRE(t > 0.0, "qubit model '" + name + "': " + what + " must be positive");
  };
  auto check_rate = [this](double r, const char* what) {
    QRE_REQUIRE(r > 0.0 && r < 1.0,
                "qubit model '" + name + "': " + what + " must be in (0, 1)");
  };
  check_time(one_qubit_measurement_time_ns, "oneQubitMeasurementTime");
  check_time(t_gate_time_ns, "tGateTime");
  check_rate(one_qubit_measurement_error_rate, "oneQubitMeasurementErrorRate");
  check_rate(t_gate_error_rate, "tGateErrorRate");
  check_rate(idle_error_rate, "idleErrorRate");
  if (instruction_set == InstructionSet::kGateBased) {
    check_time(one_qubit_gate_time_ns, "oneQubitGateTime");
    check_time(two_qubit_gate_time_ns, "twoQubitGateTime");
    check_rate(one_qubit_gate_error_rate, "oneQubitGateErrorRate");
    check_rate(two_qubit_gate_error_rate, "twoQubitGateErrorRate");
  } else {
    check_time(two_qubit_joint_measurement_time_ns, "twoQubitJointMeasurementTime");
    check_rate(two_qubit_joint_measurement_error_rate, "twoQubitJointMeasurementErrorRate");
  }
}

}  // namespace qre
