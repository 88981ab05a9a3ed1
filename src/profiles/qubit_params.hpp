// Physical qubit parameter models (paper Section IV-C1).
//
// A qubit model describes the primitive instruction set of the hardware and
// the duration / error rate of each primitive. Two instruction sets are
// supported, as in the Azure Quantum Resource Estimator:
//
//  * gate-based: single-qubit gates, two-qubit gates, T gates, and
//    single-qubit measurements;
//  * Majorana: single-qubit measurements, two-qubit joint measurements, and
//    T gates (physical T states via injection, typically with a high error
//    rate that the T factories must distill away).
//
// Six default profiles are provided, mirroring the tool's presets
// (Beverland et al., arXiv:2211.07629, Table V):
//
//   name             t_gate   t_meas   Clifford err  T err
//   qubit_gate_ns_e3  50 ns   100 ns   1e-3          1e-3   (transmon-like, realistic)
//   qubit_gate_ns_e4  50 ns   100 ns   1e-4          1e-4   (transmon-like, optimistic)
//   qubit_gate_us_e3  100 us  100 us   1e-3          1e-6   (ion-like, realistic)
//   qubit_gate_us_e4  100 us  100 us   1e-4          1e-6   (ion-like, optimistic)
//   qubit_maj_ns_e4   100 ns  100 ns   1e-4          5e-2   (Majorana, realistic)
//   qubit_maj_ns_e6   100 ns  100 ns   1e-6          1e-2   (Majorana, optimistic)
//
// Any subset of the fields can be overridden on top of a preset, or a fully
// custom model can be specified (including via JSON, Section IV-C of the
// paper).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/diagnostics.hpp"
#include "json/json.hpp"

namespace qre {

enum class InstructionSet { kGateBased, kMajorana };

std::string_view to_string(InstructionSet s);

/// Parses the accepted spellings ("GateBased"/"gate_based"/"gateBased",
/// "Majorana"/"majorana"); returns false and leaves `out` untouched for
/// anything else. The one place the spelling table lives.
bool try_parse_instruction_set(std::string_view s, InstructionSet& out);

/// Physical qubit properties. All durations are in nanoseconds, all error
/// rates are probabilities per operation.
struct QubitParams {
  std::string name;
  InstructionSet instruction_set = InstructionSet::kGateBased;

  // Durations (ns). Gate fields apply to gate-based models; the joint
  // measurement field applies to Majorana models.
  double one_qubit_measurement_time_ns = 0.0;
  double one_qubit_gate_time_ns = 0.0;
  double two_qubit_gate_time_ns = 0.0;
  double two_qubit_joint_measurement_time_ns = 0.0;
  double t_gate_time_ns = 0.0;

  // Error rates.
  double one_qubit_measurement_error_rate = 0.0;
  double one_qubit_gate_error_rate = 0.0;
  double two_qubit_gate_error_rate = 0.0;
  double two_qubit_joint_measurement_error_rate = 0.0;
  double t_gate_error_rate = 0.0;
  double idle_error_rate = 0.0;

  /// The six presets.
  static QubitParams gate_ns_e3();
  static QubitParams gate_ns_e4();
  static QubitParams gate_us_e3();
  static QubitParams gate_us_e4();
  static QubitParams maj_ns_e4();
  static QubitParams maj_ns_e6();

  /// Lookup by preset name ("qubit_gate_ns_e3", ...); throws for unknown names.
  static QubitParams from_name(std::string_view name);

  /// Names of all presets, in the order the paper's Figure 4 uses.
  static const std::vector<std::string>& preset_names();

  /// The qubitParams section parser (contract in common/diagnostics.hpp)
  /// of a job's /qubitParams and a profile pack's /qubitParams/<i>, with
  /// unknown keys checked against `keys`. The section overrides `base`, the
  /// profile its name resolved to; nullptr makes a custom model. Every field
  /// the (new) instruction set uses must come from the section or the base.
  static std::optional<QubitParams> parse(const json::Value& v, std::string_view path,
                                          const QubitParams* base, Diagnostics& diags,
                                          const std::vector<std::string_view>& keys = json_keys());

  /// parse() for direct callers (see parse_or_throw), with the preset
  /// "name" names as the base.
  static QubitParams from_json(const json::Value& v, Diagnostics* diags = nullptr);

  json::Value to_json() const;

  /// The keys parse() understands.
  static const std::vector<std::string_view>& json_keys();

  /// The representative physical Clifford error rate used by the QEC
  /// logical-error model: the worst error rate among the Clifford-level
  /// primitives (gates/joint measurements, measurement, idle).
  double clifford_error_rate() const;

  /// The measurement ("readout") error rate, available to QEC/distillation
  /// formulas.
  double readout_error_rate() const;

  /// Validates ranges (positive times, error rates in (0,1)); throws
  /// qre::Error describing the first violation.
  void validate() const;
};

}  // namespace qre
