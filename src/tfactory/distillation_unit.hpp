// Distillation unit specifications (paper Section IV-C5).
//
// A distillation unit consumes noisy T states and produces fewer,
// better T states. A unit is described by its input/output counts, two
// formulas — the failure probability and the output T-state error rate, over
// the variables inputErrorRate, cliffordErrorRate, readoutErrorRate — and
// footprint/duration specifications for the levels it can run at:
//
//  * at the physical level (round 1 only): raw physical qubits and a
//    duration formula over the physical operation times;
//  * at the logical level: a number of logical patches and a duration in
//    logical cycles, both scaled by the code distance chosen for the round.
//
// The default units are the 15-to-1 Reed-Muller preparation unit (physical
// or logical) and the 15-to-1 space-efficient logical unit, with formulas
// from Beverland et al. (arXiv:2211.07629, Appendix C):
//
//    failure     = 15 * inputErrorRate + 356 * cliffordErrorRate
//    outputError = 35 * inputErrorRate^3 + 7.1 * cliffordErrorRate
//
// The footprint constants (31 qubits / 23 measurement times for the RM
// preparation; 20 logical qubits / 13 cycles for the space-efficient unit,
// after Litinski 2019) are reconstructions — see DESIGN.md.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/diagnostics.hpp"
#include "formula/formula.hpp"
#include "json/json.hpp"
#include "profiles/qubit_params.hpp"

namespace qre {

struct DistillationUnit {
  std::string name;
  std::uint64_t num_input_ts = 0;
  std::uint64_t num_output_ts = 0;
  bool allow_physical = false;
  bool allow_logical = false;

  Formula failure_probability = Formula::parse("0");
  Formula output_error_rate = Formula::parse("0");

  /// Physical-level footprint (valid when allow_physical).
  std::uint64_t physical_qubits_at_physical = 0;
  Formula duration_at_physical_ns = Formula::parse("0");

  /// Logical-level footprint (valid when allow_logical).
  std::uint64_t logical_qubits_at_logical = 0;
  std::uint64_t duration_in_logical_cycles = 0;

  /// 15-to-1 Reed-Muller preparation unit, usable physically or logically.
  static DistillationUnit rm_prep_15_to_1();
  /// 15-to-1 space-efficient unit (logical level only).
  static DistillationUnit space_efficient_15_to_1();
  /// The default unit set used when none is specified (built once and
  /// pinned for the life of the process; each call returns a copy whose
  /// formulas share the pinned programs).
  static std::vector<DistillationUnit> default_units();

  /// The distillation unit parser (contract in common/diagnostics.hpp) of
  /// a job's /distillationUnitSpecifications/<i> and a profile pack's
  /// /distillationUnits/<i>; see tests/test_tfactory.cpp for the schema.
  static std::optional<DistillationUnit> parse(const json::Value& v, std::string_view path,
                                               Diagnostics& diags);

  /// parse() for direct callers (see parse_or_throw), under `base_path`.
  static DistillationUnit from_json(const json::Value& v, Diagnostics* diags = nullptr,
                                    std::string_view base_path =
                                        "/distillationUnitSpecifications");
  json::Value to_json() const;

  /// The keys parse() understands (top level and the two nested level
  /// specifications).
  static const std::vector<std::string_view>& json_keys();
  static const std::vector<std::string_view>& physical_spec_keys();
  static const std::vector<std::string_view>& logical_spec_keys();

  void validate() const;
};

/// Evaluates a unit's error formulas for the given input/Clifford/readout
/// error rates. Exposed for tests and ablation benches.
struct DistillationOutcome {
  double failure_probability = 0.0;
  double output_error_rate = 0.0;
};
DistillationOutcome evaluate_unit(const DistillationUnit& unit, double input_error_rate,
                                  double clifford_error_rate, double readout_error_rate);

}  // namespace qre
