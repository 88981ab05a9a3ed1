#include "report/report.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <sstream>
#include <tuple>
#include <vector>

#include "common/format.hpp"

namespace qre {

const std::vector<std::string>& estimator_assumptions() {
  static const std::vector<std::string> kAssumptions = {
      "Uniform, independent physical noise at the specified rates.",
      "Planar quantum ISA: 2D nearest-neighbor connectivity with alternating "
      "algorithmic and auxiliary logical qubit rows; program connectivity is "
      "not analyzed to reduce the layout overhead.",
      "Logical error rate model P(d) = a * (p/p*)^((d+1)/2).",
      "Each CCZ/CCiX consumes 4 T states and 3 logical cycles; T gates and "
      "measurements take 1 logical cycle each.",
      "Arbitrary rotations are synthesized with ceil(0.53*log2(R/eps) + 5.3) "
      "T gates per rotation.",
      "T factories run in parallel with the algorithm and rounds reuse "
      "qubits; unit failures are handled in expectation.",
      "Distillation unit footprints are the reconstructed defaults described "
      "in DESIGN.md.",
  };
  return kAssumptions;
}

json::Value report_to_json(const ResourceEstimate& e) {
  json::Object root;

  json::Object physical;
  physical.emplace_back("physicalQubits", e.total_physical_qubits);
  physical.emplace_back("runtime", e.runtime_ns);
  physical.emplace_back("rqops", e.rqops);
  root.emplace_back("physicalCounts", json::Value(std::move(physical)));

  json::Object breakdown;
  breakdown.emplace_back("algorithmicLogicalQubits", e.algorithmic_logical_qubits);
  breakdown.emplace_back("algorithmicLogicalDepth", e.algorithmic_logical_depth);
  breakdown.emplace_back("logicalDepth", e.logical_depth);
  breakdown.emplace_back("logicalDepthFactor", e.logical_depth_factor);
  breakdown.emplace_back("numTstates", e.num_tstates);
  breakdown.emplace_back("numTfactories", e.num_t_factories);
  breakdown.emplace_back("numTfactoryRuns", e.num_t_factory_invocations);
  breakdown.emplace_back("numInvocationsPerTfactory", e.num_invocations_per_factory);
  breakdown.emplace_back("physicalQubitsForAlgorithm", e.physical_qubits_for_algorithm);
  breakdown.emplace_back("physicalQubitsForTfactories", e.physical_qubits_for_tfactories);
  breakdown.emplace_back("requiredLogicalQubitErrorRate", e.required_logical_qubit_error_rate);
  breakdown.emplace_back("requiredTstateErrorRate", e.required_tstate_error_rate);
  breakdown.emplace_back("numTsPerRotation", e.num_ts_per_rotation);
  breakdown.emplace_back("clockFrequency", e.clock_frequency_hz);
  breakdown.emplace_back("logicalOperations", e.logical_operations);
  root.emplace_back("physicalCountsBreakdown", json::Value(std::move(breakdown)));

  root.emplace_back("logicalQubit", e.logical_qubit.to_json());
  if (e.tfactory != nullptr) {
    root.emplace_back("tfactory", e.tfactory->to_json());
  } else {
    root.emplace_back("tfactory", json::Value(nullptr));
  }
  root.emplace_back("logicalCounts", e.pre_layout.to_json());

  json::Object budget;
  budget.emplace_back("logical", e.budget.logical);
  budget.emplace_back("tstates", e.budget.tstates);
  budget.emplace_back("rotations", e.budget.rotations);
  budget.emplace_back("achievedLogical", e.achieved_logical_error);
  budget.emplace_back("achievedTstates", e.achieved_tstate_error);
  root.emplace_back("errorBudget", json::Value(std::move(budget)));

  root.emplace_back("physicalQubitParameters", e.qubit.to_json());
  root.emplace_back("qecScheme", e.qec.to_json());

  json::Array assumptions;
  for (const std::string& a : estimator_assumptions()) assumptions.emplace_back(a);
  root.emplace_back("assumptions", json::Value(std::move(assumptions)));

  return json::Value(std::move(root));
}

namespace {

void write_qubit(std::string& out, const QubitParams& q) {
  const bool gate_based = q.instruction_set == InstructionSet::kGateBased;
  json::ObjectWriter o(out);
  o.string("name", q.name);
  o.string("instructionSet", to_string(q.instruction_set));
  o.number("oneQubitMeasurementTime", q.one_qubit_measurement_time_ns);
  if (gate_based) {
    o.number("oneQubitGateTime", q.one_qubit_gate_time_ns);
    o.number("twoQubitGateTime", q.two_qubit_gate_time_ns);
  } else {
    o.number("twoQubitJointMeasurementTime", q.two_qubit_joint_measurement_time_ns);
  }
  o.number("tGateTime", q.t_gate_time_ns);
  o.number("oneQubitMeasurementErrorRate", q.one_qubit_measurement_error_rate);
  if (gate_based) {
    o.number("oneQubitGateErrorRate", q.one_qubit_gate_error_rate);
    o.number("twoQubitGateErrorRate", q.two_qubit_gate_error_rate);
  } else {
    o.number("twoQubitJointMeasurementErrorRate", q.two_qubit_joint_measurement_error_rate);
  }
  o.number("tGateErrorRate", q.t_gate_error_rate);
  o.number("idleErrorRate", q.idle_error_rate);
  o.close();
}

void write_qec(std::string& out, const QecScheme& s) {
  json::ObjectWriter o(out);
  o.string("name", s.name());
  o.number("errorCorrectionThreshold", s.threshold());
  o.number("crossingPrefactor", s.crossing_prefactor());
  o.string("logicalCycleTime", s.logical_cycle_time_text());
  o.string("physicalQubitsPerLogicalQubit", s.physical_qubits_text());
  o.count("maxCodeDistance", s.max_code_distance());
  o.close();
}

/// The constant "assumptions" array, serialized once per process.
const std::string& assumptions_bytes() {
  static const std::string bytes = [] {
    std::string out = "[";
    for (const std::string& a : estimator_assumptions()) {
      if (out.size() > 1) out.push_back(',');
      json::write_escaped(out, a);
    }
    out.push_back(']');
    return out;
  }();
  return bytes;
}

// ------------------------------------------------------------ echo memo --
//
// The echo tail — the "physicalQubitParameters", "qecScheme" and
// "assumptions" members — depends only on the qubit model and the QEC
// scheme, and sweeps repeat a few of those over thousands of results. Each
// thread keeps the tails it wrote last, keyed on every field of the model
// and every field the scheme group prints.

/// Every field of a QubitParams, in declaration order. The structured
/// binding stops compiling when the struct gains a field, so the memo key
/// cannot silently miss one.
auto qubit_fields(const QubitParams& q) {
  const auto& [name, set, t_meas, t_1q, t_2q, t_joint, t_t, e_meas, e_1q, e_2q, e_joint, e_t,
               e_idle] = q;
  return std::tie(name, set, t_meas, t_1q, t_2q, t_joint, t_t, e_meas, e_1q, e_2q, e_joint, e_t,
                  e_idle);
}

/// The QecScheme fields write_qec() prints.
auto qec_fields(const QecScheme& s) {
  return std::make_tuple(std::cref(s.name()), s.threshold(), s.crossing_prefactor(),
                         std::cref(s.logical_cycle_time_text()),
                         std::cref(s.physical_qubits_text()), s.max_code_distance());
}

/// Doubles compare by bit pattern: -0.0 and 0.0 print differently.
bool same(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}
template <typename T>
bool same(const T& a, const T& b) {
  return a == b;
}

template <typename... T>
bool same_fields(const std::tuple<T...>& a, const std::tuple<T...>& b) {
  return std::apply(
      [&b](const auto&... x) {
        return std::apply([&x...](const auto&... y) { return (same(x, y) && ...); }, b);
      },
      a);
}

struct EchoTail {
  QubitParams qubit;
  QecScheme qec;
  std::string bytes;  // starts with the comma before the first member
};

/// Tails each thread keeps, replaced round-robin once full.
constexpr std::size_t kEchoMemoEntries = 8;
/// Larger tails (long custom names) are written but not kept.
constexpr std::size_t kEchoTailMaxBytes = 16 * 1024;

void append_echo_tail(std::string& out, const QubitParams& q, const QecScheme& s) {
  thread_local std::vector<EchoTail> memo;
  thread_local std::size_t next = 0;
  for (const EchoTail& tail : memo) {
    if (same_fields(qubit_fields(tail.qubit), qubit_fields(q)) &&
        same_fields(qec_fields(tail.qec), qec_fields(s))) {
      out += tail.bytes;
      return;
    }
  }
  std::string bytes = ",\"physicalQubitParameters\":";
  write_qubit(bytes, q);
  bytes += ",\"qecScheme\":";
  write_qec(bytes, s);
  bytes += ",\"assumptions\":";
  bytes += assumptions_bytes();
  out += bytes;
  if (bytes.size() > kEchoTailMaxBytes) return;
  if (memo.size() < kEchoMemoEntries) {
    memo.push_back({q, s, std::move(bytes)});
  } else {
    memo[next] = {q, s, std::move(bytes)};
    next = (next + 1) % kEchoMemoEntries;
  }
}

/// The per-thread render buffer keeps at most this much capacity.
constexpr std::size_t kBufferMaxBytes = 64 * 1024;

}  // namespace

std::string report_bytes(const ResourceEstimate& e) {
  // Rendered into a per-thread buffer that keeps its capacity, then copied
  // once at exact size: results outlive the call in caches and the store.
  thread_local std::string out;
  out.clear();
  json::ObjectWriter root(out);

  json::ObjectWriter physical(root.key("physicalCounts"));
  physical.count("physicalQubits", e.total_physical_qubits);
  physical.number("runtime", e.runtime_ns);
  physical.number("rqops", e.rqops);
  physical.close();

  json::ObjectWriter breakdown(root.key("physicalCountsBreakdown"));
  breakdown.count("algorithmicLogicalQubits", e.algorithmic_logical_qubits);
  breakdown.count("algorithmicLogicalDepth", e.algorithmic_logical_depth);
  breakdown.count("logicalDepth", e.logical_depth);
  breakdown.number("logicalDepthFactor", e.logical_depth_factor);
  breakdown.count("numTstates", e.num_tstates);
  breakdown.count("numTfactories", e.num_t_factories);
  breakdown.count("numTfactoryRuns", e.num_t_factory_invocations);
  breakdown.count("numInvocationsPerTfactory", e.num_invocations_per_factory);
  breakdown.count("physicalQubitsForAlgorithm", e.physical_qubits_for_algorithm);
  breakdown.count("physicalQubitsForTfactories", e.physical_qubits_for_tfactories);
  breakdown.number("requiredLogicalQubitErrorRate", e.required_logical_qubit_error_rate);
  breakdown.number("requiredTstateErrorRate", e.required_tstate_error_rate);
  breakdown.count("numTsPerRotation", e.num_ts_per_rotation);
  breakdown.number("clockFrequency", e.clock_frequency_hz);
  breakdown.number("logicalOperations", e.logical_operations);
  breakdown.close();

  json::ObjectWriter logical(root.key("logicalQubit"));
  logical.count("codeDistance", e.logical_qubit.code_distance);
  logical.count("physicalQubits", e.logical_qubit.physical_qubits);
  logical.number("logicalCycleTime", e.logical_qubit.cycle_time_ns);
  logical.number("logicalErrorRate", e.logical_qubit.logical_error_rate);
  logical.number("logicalClockFrequency", e.logical_qubit.clock_frequency_hz());
  logical.close();

  if (e.tfactory != nullptr) {
    e.tfactory->append_json(root.key("tfactory"));
  } else {
    root.key("tfactory") += "null";
  }

  const LogicalCounts& c = e.pre_layout;
  json::ObjectWriter counts(root.key("logicalCounts"));
  counts.count("numQubits", c.num_qubits);
  counts.count("tCount", c.t_count);
  counts.count("rotationCount", c.rotation_count);
  counts.count("rotationDepth", c.rotation_depth);
  counts.count("cczCount", c.ccz_count);
  counts.count("ccixCount", c.ccix_count);
  counts.count("measurementCount", c.measurement_count);
  counts.count("cliffordCount", c.clifford_count);
  counts.close();

  json::ObjectWriter budget(root.key("errorBudget"));
  budget.number("logical", e.budget.logical);
  budget.number("tstates", e.budget.tstates);
  budget.number("rotations", e.budget.rotations);
  budget.number("achievedLogical", e.achieved_logical_error);
  budget.number("achievedTstates", e.achieved_tstate_error);
  budget.close();

  append_echo_tail(out, e.qubit, e.qec);
  root.close();

  std::string bytes = out;
  if (out.capacity() > kBufferMaxBytes) std::string().swap(out);
  return bytes;
}

std::string report_to_text(const ResourceEstimate& e) {
  std::ostringstream os;
  os << "=== Physical resource estimates ===\n";
  os << "  Physical qubits:           " << format_count(e.total_physical_qubits) << "\n";
  os << "  Runtime:                   " << format_duration_ns(e.runtime_ns) << "\n";
  os << "  rQOPS:                     " << format_sci(e.rqops) << "\n";

  os << "=== Resource estimates breakdown ===\n";
  os << "  Logical qubits (layout):   " << format_count(e.algorithmic_logical_qubits) << "\n";
  os << "  Algorithmic depth:         " << format_count(e.algorithmic_logical_depth) << "\n";
  os << "  Logical depth:             " << format_count(e.logical_depth) << "\n";
  os << "  Logical operations:        " << format_sci(e.logical_operations) << "\n";
  os << "  Clock frequency:           " << format_sci(e.clock_frequency_hz) << " Hz\n";
  os << "  T states:                  " << format_count(e.num_tstates) << "\n";
  os << "  T factories:               " << format_count(e.num_t_factories) << "\n";
  os << "  T factory runs:            " << format_count(e.num_t_factory_invocations) << "\n";
  os << "  Qubits (algorithm):        " << format_count(e.physical_qubits_for_algorithm) << "\n";
  os << "  Qubits (T factories):      " << format_count(e.physical_qubits_for_tfactories)
     << "\n";
  if (e.num_ts_per_rotation > 0) {
    os << "  T states per rotation:     " << e.num_ts_per_rotation << "\n";
  }

  os << "=== Logical qubit parameters ===\n";
  os << "  QEC scheme:                " << e.qec.name() << "\n";
  os << "  Code distance:             " << e.logical_qubit.code_distance << "\n";
  os << "  Physical qubits/logical:   " << format_count(e.logical_qubit.physical_qubits)
     << "\n";
  os << "  Logical cycle time:        " << format_duration_ns(e.logical_qubit.cycle_time_ns)
     << "\n";
  os << "  Logical error rate:        " << format_sci(e.logical_qubit.logical_error_rate)
     << "\n";

  if (e.tfactory != nullptr && !e.tfactory->no_distillation()) {
    const TFactory& f = *e.tfactory;
    os << "=== T factory parameters ===\n";
    os << "  Rounds:                    " << f.rounds.size() << "\n";
    for (std::size_t i = 0; i < f.rounds.size(); ++i) {
      const DistillationRound& r = f.rounds[i];
      os << "    round " << (i + 1) << ": " << r.unit_name << " x" << r.num_units
         << (r.physical ? " [physical]" : " [d=" + std::to_string(r.code_distance) + "]")
         << ", " << format_count(r.physical_qubits) << " qubits, "
         << format_duration_ns(r.duration_ns) << "\n";
    }
    os << "  Factory qubits:            " << format_count(f.physical_qubits) << "\n";
    os << "  Factory duration:          " << format_duration_ns(f.duration_ns) << "\n";
    os << "  Output T error rate:       " << format_sci(f.output_error_rate) << "\n";
  }

  os << "=== Pre-layout logical resources ===\n";
  os << "  Logical qubits (pre):      " << format_count(e.pre_layout.num_qubits) << "\n";
  os << "  T gates:                   " << format_count(e.pre_layout.t_count) << "\n";
  os << "  Rotation gates:            " << format_count(e.pre_layout.rotation_count) << "\n";
  os << "  Rotation depth:            " << format_count(e.pre_layout.rotation_depth) << "\n";
  os << "  CCZ gates:                 " << format_count(e.pre_layout.ccz_count) << "\n";
  os << "  CCiX gates:                " << format_count(e.pre_layout.ccix_count) << "\n";
  os << "  Measurements:              " << format_count(e.pre_layout.measurement_count) << "\n";

  os << "=== Assumed error budget ===\n";
  os << "  Logical:                   " << format_sci(e.budget.logical) << " (achieved "
     << format_sci(e.achieved_logical_error) << ")\n";
  os << "  T states:                  " << format_sci(e.budget.tstates) << " (achieved "
     << format_sci(e.achieved_tstate_error) << ")\n";
  os << "  Rotation synthesis:        " << format_sci(e.budget.rotations) << "\n";

  os << "=== Physical qubit parameters ===\n";
  os << "  Model:                     " << e.qubit.name << " ("
     << to_string(e.qubit.instruction_set) << ")\n";
  os << "  Clifford error rate:       " << format_sci(e.qubit.clifford_error_rate()) << "\n";
  os << "  T gate error rate:         " << format_sci(e.qubit.t_gate_error_rate) << "\n";
  return os.str();
}

std::string space_diagram(const ResourceEstimate& e) {
  std::ostringstream os;
  double total = static_cast<double>(e.total_physical_qubits);
  double alg = static_cast<double>(e.physical_qubits_for_algorithm);
  double fac = static_cast<double>(e.physical_qubits_for_tfactories);
  int alg_cells = total > 0 ? static_cast<int>(std::lround(40.0 * alg / total)) : 0;
  os << "physical qubits: " << format_count(e.total_physical_qubits) << "\n";
  os << "[";
  for (int i = 0; i < 40; ++i) os << (i < alg_cells ? '#' : '.');
  os << "]\n";
  os << "# algorithm   " << format_count(e.physical_qubits_for_algorithm) << " ("
     << format_sci(total > 0 ? 100.0 * alg / total : 0.0, 3) << "%)\n";
  os << ". T factories " << format_count(e.physical_qubits_for_tfactories) << " ("
     << format_sci(total > 0 ? 100.0 * fac / total : 0.0, 3) << "%)\n";
  return os.str();
}

}  // namespace qre
