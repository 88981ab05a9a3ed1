#include "qec/qec_scheme.hpp"

#include <cmath>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/math.hpp"
#include "common/mutex.hpp"
#include "common/pinned.hpp"
#include "common/thread_annotations.hpp"

namespace qre {

/// Small bounded memo for the two formula-driven overheads. Keys compare
/// the exact inputs the formulas can observe, so a hit returns the exact
/// double a fresh evaluation would produce.
struct QecScheme::EvalCache {
  static constexpr std::size_t kMaxEntries = 256;

  struct CycleKey {
    std::uint64_t distance;
    int instruction_set;
    double one_qubit_measurement_time_ns;
    double one_qubit_gate_time_ns;
    double two_qubit_gate_time_ns;
    double two_qubit_joint_measurement_time_ns;
    double t_gate_time_ns;
    bool operator==(const CycleKey&) const = default;
  };

  Mutex mutex;
  std::vector<std::pair<CycleKey, double>> cycle_times QRE_GUARDED_BY(mutex);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> patch_qubits QRE_GUARDED_BY(mutex);
};

QecScheme::QecScheme(std::string name, double threshold, double prefactor, Formula cycle_time,
                     Formula physical_qubits, std::shared_ptr<EvalCache> eval_cache)
    : name_(std::move(name)),
      threshold_(threshold),
      crossing_prefactor_(prefactor),
      logical_cycle_time_(std::move(cycle_time)),
      physical_qubits_per_logical_qubit_(std::move(physical_qubits)),
      eval_cache_(std::move(eval_cache)) {}

// The built-in schemes are parsed once per process and handed out by copy:
// every EstimationInput, sweep item and ResourceEstimate starts from one.
// They are pinned (common/pinned.hpp) so that a copy copies pointers:
// with reference-counted parts, every worker of a sweep would write the
// same few counts for every item it composes and echoes. Copies share the
// exactly keyed eval memo; parse() and customize() give a changed scheme
// its own, owning one.

const QecScheme& QecScheme::pin(std::string name, double threshold, double prefactor,
                                std::string_view cycle_time, std::string_view physical_qubits) {
  return *new QecScheme(std::move(name), threshold, prefactor,
                        Formula::parse(cycle_time).pinned(),
                        Formula::parse(physical_qubits).pinned(),
                        pin_for_process(std::make_unique<EvalCache>()));
}

QecScheme QecScheme::surface_code_gate_based() {
  static const QecScheme& kScheme =
      pin("surface_code", 0.01, 0.03,
          "(4 * twoQubitGateTime + 2 * oneQubitMeasurementTime) * codeDistance",
          "2 * codeDistance * codeDistance");
  return kScheme;
}

QecScheme QecScheme::surface_code_majorana() {
  static const QecScheme& kScheme =
      pin("surface_code", 0.0015, 0.08, "20 * oneQubitMeasurementTime * codeDistance",
          "2 * codeDistance * codeDistance");
  return kScheme;
}

QecScheme QecScheme::floquet_code() {
  static const QecScheme& kScheme =
      pin("floquet_code", 0.01, 0.07, "3 * oneQubitMeasurementTime * codeDistance",
          "4 * codeDistance * codeDistance + 8 * (codeDistance - 1)");
  return kScheme;
}

QecScheme QecScheme::default_for(InstructionSet set) {
  return set == InstructionSet::kGateBased ? surface_code_gate_based() : floquet_code();
}

QecScheme QecScheme::from_name(std::string_view name, InstructionSet set) {
  if (name == "surface_code") {
    return set == InstructionSet::kGateBased ? surface_code_gate_based()
                                             : surface_code_majorana();
  }
  if (name == "floquet_code") {
    QRE_REQUIRE(set == InstructionSet::kMajorana,
                "the floquet_code QEC scheme requires Majorana hardware");
    return floquet_code();
  }
  throw_error("unknown QEC scheme '" + std::string(name) +
              "'; known schemes: surface_code, floquet_code");
}

const std::vector<std::string_view>& QecScheme::json_keys() {
  static const std::vector<std::string_view> kKeys = {
      "name",
      "errorCorrectionThreshold",
      "crossingPrefactor",
      "logicalCycleTime",
      "physicalQubitsPerLogicalQubit",
      "maxCodeDistance",
  };
  return kKeys;
}

std::optional<QecScheme> QecScheme::parse(const json::Value& v, std::string_view path,
                                          const QecScheme* base, InstructionSet set,
                                          Diagnostics& diags,
                                          const std::vector<std::string_view>& keys) {
  if (!v.is_object()) {
    diags.error("type-mismatch", std::string(path), "qecScheme must be an object");
    return std::nullopt;
  }
  const std::size_t errors = diags.num_errors();
  check_known_keys(v, keys, path, diags);
  if (const json::Value* name = expect(v, "name", FieldKind::kString, path, diags)) {
    if (base == nullptr) {
      diags.error("unknown-name", pointer_join(path, "name"),
                  "unknown QEC scheme '" + name->as_string() + "' for " +
                      std::string(to_string(set)) + " hardware");
    }
  }
  QecScheme scheme = base != nullptr ? *base : default_for(set);
  if (const json::Value* t =
          expect(v, "errorCorrectionThreshold", FieldKind::kNumber, path, diags)) {
    if (check_probability(*t, "errorCorrectionThreshold", path, diags)) {
      scheme.threshold_ = t->as_double();
    }
  }
  if (const json::Value* a = expect(v, "crossingPrefactor", FieldKind::kNumber, path, diags)) {
    if (check_positive_number(*a, "crossingPrefactor", path, diags)) {
      scheme.crossing_prefactor_ = a->as_double();
    }
  }
  for (const auto& [key, member] :
       {std::pair{"logicalCycleTime", &QecScheme::logical_cycle_time_},
        std::pair{"physicalQubitsPerLogicalQubit",
                  &QecScheme::physical_qubits_per_logical_qubit_}}) {
    if (const json::Value* f = expect(v, key, FieldKind::kString, path, diags)) {
      if (std::optional<Formula> formula = check_formula(*f, key, path, diags)) {
        scheme.*member = std::move(*formula);
      }
    }
  }
  if (const std::optional<std::uint64_t> m = expect_count(v, "maxCodeDistance", path, diags)) {
    if (*m == 0u) {
      diags.error("value-range", pointer_join(path, "maxCodeDistance"),
                  "'maxCodeDistance' must be >= 1");
    }
    scheme.max_code_distance_ = *m;
  }
  if (diags.num_errors() != errors || base == nullptr) return std::nullopt;
  // The copy shares the base scheme's memo; the formulas may just have
  // changed, so give the parsed scheme a cache of its own.
  scheme.eval_cache_ = std::make_shared<EvalCache>();
  return scheme;
}

QecScheme QecScheme::from_json(const json::Value& v, InstructionSet set, Diagnostics* diags) {
  const json::Value* name = v.is_object() ? v.find("name") : nullptr;
  std::optional<QecScheme> base;
  try {
    base = name == nullptr ? default_for(set) : from_name(name->as_string(), set);
  } catch (const Error&) {
    // No built-in scheme by that name (or no string name): parse() says so.
  }
  return parse_or_throw(diags, [&](Diagnostics& found) {
    return parse(v, "/qecScheme", base ? &*base : nullptr, set, found);
  });
}

QecScheme QecScheme::customize(QecScheme base, const json::Value& v) {
  if (const json::Value* t = v.find("errorCorrectionThreshold")) {
    base.threshold_ = t->as_double();
  }
  if (const json::Value* a = v.find("crossingPrefactor")) {
    base.crossing_prefactor_ = a->as_double();
  }
  if (const json::Value* f = v.find("logicalCycleTime")) {
    base.logical_cycle_time_ = Formula::parse(f->as_string());
  }
  if (const json::Value* f = v.find("physicalQubitsPerLogicalQubit")) {
    base.physical_qubits_per_logical_qubit_ = Formula::parse(f->as_string());
  }
  if (const json::Value* m = v.find("maxCodeDistance")) {
    base.max_code_distance_ = m->as_uint();
  }
  QRE_REQUIRE(base.threshold_ > 0.0 && base.threshold_ < 1.0,
              "QEC errorCorrectionThreshold must be in (0, 1)");
  QRE_REQUIRE(base.crossing_prefactor_ > 0.0, "QEC crossingPrefactor must be positive");
  // The copy shares the source scheme's memo; the formulas may just have
  // changed, so give the customized scheme a cache of its own.
  base.eval_cache_ = std::make_shared<EvalCache>();
  return base;
}

QecScheme QecScheme::with_name(std::string name) const {
  QecScheme copy = *this;
  copy.name_ = std::move(name);
  return copy;
}

json::Value QecScheme::to_json() const {
  json::Object o;
  o.emplace_back("name", name_);
  o.emplace_back("errorCorrectionThreshold", threshold_);
  o.emplace_back("crossingPrefactor", crossing_prefactor_);
  o.emplace_back("logicalCycleTime", logical_cycle_time_.text());
  o.emplace_back("physicalQubitsPerLogicalQubit", physical_qubits_per_logical_qubit_.text());
  o.emplace_back("maxCodeDistance", max_code_distance_);
  return json::Value(std::move(o));
}

double QecScheme::logical_error_rate(double physical_error_rate,
                                     std::uint64_t code_distance) const {
  QRE_REQUIRE(physical_error_rate > 0.0, "physical error rate must be positive");
  double ratio = physical_error_rate / threshold_;
  double exponent = static_cast<double>(code_distance + 1) / 2.0;
  return crossing_prefactor_ * std::pow(ratio, exponent);
}

std::uint64_t QecScheme::code_distance_for(double physical_error_rate,
                                           double required_logical_error_rate) const {
  QRE_REQUIRE(required_logical_error_rate > 0.0, "required logical error rate must be positive");
  if (physical_error_rate >= threshold_) {
    std::ostringstream os;
    os << "QEC scheme '" << name_ << "': physical error rate " << physical_error_rate
       << " is not below the threshold " << threshold_
       << "; error correction cannot reach the target logical error rate";
    throw_error(os.str());
  }
  for (std::uint64_t d = 1; d <= max_code_distance_; d += 2) {
    if (logical_error_rate(physical_error_rate, d) <= required_logical_error_rate) return d;
  }
  std::ostringstream os;
  os << "QEC scheme '" << name_ << "': required logical error rate "
     << required_logical_error_rate << " needs a code distance above the maximum "
     << max_code_distance_;
  throw_error(os.str());
}

Environment qec_formula_environment(const QubitParams& qubit, std::uint64_t code_distance) {
  Environment env;
  env.set("codeDistance", static_cast<double>(code_distance));
  env.set("oneQubitMeasurementTime", qubit.one_qubit_measurement_time_ns);
  env.set("tGateTime", qubit.t_gate_time_ns);
  if (qubit.instruction_set == InstructionSet::kGateBased) {
    env.set("oneQubitGateTime", qubit.one_qubit_gate_time_ns);
    env.set("twoQubitGateTime", qubit.two_qubit_gate_time_ns);
  } else {
    env.set("twoQubitJointMeasurementTime", qubit.two_qubit_joint_measurement_time_ns);
  }
  return env;
}

double QecScheme::logical_cycle_time_ns(const QubitParams& qubit,
                                        std::uint64_t code_distance) const {
  const EvalCache::CycleKey key{code_distance,
                                static_cast<int>(qubit.instruction_set),
                                qubit.one_qubit_measurement_time_ns,
                                qubit.one_qubit_gate_time_ns,
                                qubit.two_qubit_gate_time_ns,
                                qubit.two_qubit_joint_measurement_time_ns,
                                qubit.t_gate_time_ns};
  {
    MutexLock lock(eval_cache_->mutex);
    for (const auto& [k, v] : eval_cache_->cycle_times) {
      if (k == key) return v;
    }
  }
  Environment env = qec_formula_environment(qubit, code_distance);
  double t = logical_cycle_time_.evaluate(env);
  QRE_REQUIRE(t > 0.0, "QEC scheme '" + name_ + "': logical cycle time must be positive");
  MutexLock lock(eval_cache_->mutex);
  if (eval_cache_->cycle_times.size() < EvalCache::kMaxEntries) {
    eval_cache_->cycle_times.emplace_back(key, t);
  }
  return t;
}

std::uint64_t QecScheme::physical_qubits_per_logical_qubit(std::uint64_t code_distance) const {
  {
    MutexLock lock(eval_cache_->mutex);
    for (const auto& [d, q] : eval_cache_->patch_qubits) {
      if (d == code_distance) return q;
    }
  }
  Environment env;
  env.set("codeDistance", static_cast<double>(code_distance));
  double q = physical_qubits_per_logical_qubit_.evaluate(env);
  QRE_REQUIRE(q >= 1.0,
              "QEC scheme '" + name_ + "': physical qubits per logical qubit must be >= 1");
  std::uint64_t rounded = ceil_to_u64(q);
  MutexLock lock(eval_cache_->mutex);
  if (eval_cache_->patch_qubits.size() < EvalCache::kMaxEntries) {
    eval_cache_->patch_qubits.emplace_back(code_distance, rounded);
  }
  return rounded;
}

LogicalQubit LogicalQubit::create(const QubitParams& qubit, const QecScheme& scheme,
                                  std::uint64_t code_distance) {
  LogicalQubit lq;
  lq.code_distance = code_distance;
  lq.physical_qubits = scheme.physical_qubits_per_logical_qubit(code_distance);
  lq.cycle_time_ns = scheme.logical_cycle_time_ns(qubit, code_distance);
  lq.logical_error_rate = scheme.logical_error_rate(qubit.clifford_error_rate(), code_distance);
  return lq;
}

json::Value LogicalQubit::to_json() const {
  json::Object o;
  o.emplace_back("codeDistance", code_distance);
  o.emplace_back("physicalQubits", physical_qubits);
  o.emplace_back("logicalCycleTime", cycle_time_ns);
  o.emplace_back("logicalErrorRate", logical_error_rate);
  o.emplace_back("logicalClockFrequency", clock_frequency_hz());
  return json::Value(std::move(o));
}

}  // namespace qre
