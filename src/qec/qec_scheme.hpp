// Quantum error correction schemes (paper Sections III-C and IV-C2).
//
// A QEC scheme is described by two numeric parameters — the error-correction
// threshold p* and the crossing pre-factor a — and two formula parameters:
// the logical cycle time and the number of physical qubits per logical
// qubit, both functions of the code distance and the physical operation
// times. The logical error rate per logical qubit per logical cycle at code
// distance d is modelled as
//
//     P(d) = a * (p / p*) ^ ((d + 1) / 2)
//
// where p is the representative physical (Clifford) error rate. Given a
// target logical error rate, the scheme computes the smallest odd code
// distance d with P(d) <= target.
//
// Defaults match the tool's presets: the surface code for both instruction
// sets and the floquet (Hastings-Haah) code for Majorana hardware. Each
// built-in scheme is built once and pinned for the life of the process
// (common/pinned.hpp); the factories return copies, and copying a built-in
// copies pointers, with no reference count for concurrent copies to share.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/diagnostics.hpp"
#include "formula/formula.hpp"
#include "json/json.hpp"
#include "profiles/qubit_params.hpp"

namespace qre {

/// A quantum error correction scheme with formula-driven overheads.
class QecScheme {
 public:
  /// Gate-based surface code: p* = 0.01, a = 0.03,
  /// cycle = (4*t_2q + 2*t_meas)*d, qubits = 2*d^2.
  static QecScheme surface_code_gate_based();

  /// Majorana surface code: p* = 0.0015, a = 0.08,
  /// cycle = 20*t_meas*d, qubits = 2*d^2.
  static QecScheme surface_code_majorana();

  /// Floquet / Hastings-Haah code (Majorana hardware): p* = 0.01, a = 0.07,
  /// cycle = 3*t_meas*d, qubits = 4*d^2 + 8*(d-1).
  static QecScheme floquet_code();

  /// Default scheme for an instruction set: surface code for gate-based,
  /// floquet code for Majorana (as used in the paper's Figures 3 and 4).
  static QecScheme default_for(InstructionSet set);

  /// Lookup by name: "surface_code" (instruction-set dependent) or
  /// "floquet_code" (Majorana only; throws for gate-based).
  static QecScheme from_name(std::string_view name, InstructionSet set);

  /// The qecScheme section parser (contract in common/diagnostics.hpp) of
  /// a job's /qecScheme and a profile pack's /qecSchemes/<i>, with unknown
  /// keys checked against `keys`: an optional "name" plus any of
  /// "errorCorrectionThreshold", "crossingPrefactor", "logicalCycleTime",
  /// "physicalQubitsPerLogicalQubit", "maxCodeDistance" overrides onto
  /// `base`, the scheme the name resolved to for `set` hardware (the default
  /// scheme without a name; nullptr when the name resolved to none).
  static std::optional<QecScheme> parse(const json::Value& v, std::string_view path,
                                        const QecScheme* base, InstructionSet set,
                                        Diagnostics& diags,
                                        const std::vector<std::string_view>& keys = json_keys());

  /// parse() for direct callers (see parse_or_throw), with the built-in
  /// scheme "name" names as the base.
  static QecScheme from_json(const json::Value& v, InstructionSet set,
                             Diagnostics* diags = nullptr);

  /// Applies the JSON override keys (everything but "name") onto `base` and
  /// range-checks the result: an entry point for overrides built in code,
  /// which trusts the keys' types (documents go through parse()).
  static QecScheme customize(QecScheme base, const json::Value& v);

  /// A copy of this scheme under a different name (profile-pack loading).
  QecScheme with_name(std::string name) const;

  json::Value to_json() const;

  /// The keys parse() understands.
  static const std::vector<std::string_view>& json_keys();

  const std::string& name() const { return name_; }
  double threshold() const { return threshold_; }
  double crossing_prefactor() const { return crossing_prefactor_; }
  std::uint64_t max_code_distance() const { return max_code_distance_; }
  /// Source texts of the two overhead formulas (cache fingerprinting).
  const std::string& logical_cycle_time_text() const { return logical_cycle_time_.text(); }
  const std::string& physical_qubits_text() const {
    return physical_qubits_per_logical_qubit_.text();
  }

  /// P(d) for the given physical error rate; requires p < p*.
  double logical_error_rate(double physical_error_rate, std::uint64_t code_distance) const;

  /// Smallest odd distance d with P(d) <= required; throws qre::Error when
  /// the physical error rate is at/above threshold or when the distance
  /// would exceed max_code_distance().
  std::uint64_t code_distance_for(double physical_error_rate,
                                  double required_logical_error_rate) const;

  /// Logical cycle duration in nanoseconds at the given distance.
  /// Memoized per (qubit operation times, distance): the formulas are
  /// invariant, and the estimator's search loops re-ask for the same few
  /// distances thousands of times.
  double logical_cycle_time_ns(const QubitParams& qubit, std::uint64_t code_distance) const;

  /// Physical qubits making up one logical qubit at the given distance.
  /// Memoized per distance (the formula sees only the code distance).
  std::uint64_t physical_qubits_per_logical_qubit(std::uint64_t code_distance) const;

 private:
  struct EvalCache;

  QecScheme(std::string name, double threshold, double prefactor, Formula cycle_time,
            Formula physical_qubits, std::shared_ptr<EvalCache> eval_cache);

  /// A built-in scheme, pinned: made once, never destroyed, with pinned
  /// formulas and a pinned eval memo.
  static const QecScheme& pin(std::string name, double threshold, double prefactor,
                              std::string_view cycle_time, std::string_view physical_qubits);

  std::string name_;
  double threshold_;
  double crossing_prefactor_;
  Formula logical_cycle_time_;
  Formula physical_qubits_per_logical_qubit_;
  std::uint64_t max_code_distance_ = 51;

  /// Formula-evaluation memo, shared by copies of this scheme (copies keep
  /// the same formulas; parse() and customize() give the scheme they
  /// return its own, owning memo). A built-in's memo is pinned.
  /// Concurrency-safe: results are plain doubles guarded by a mutex.
  std::shared_ptr<EvalCache> eval_cache_;
};

/// One logical qubit patch: the QEC parameters the estimator reports
/// (paper Section IV-D3).
struct LogicalQubit {
  std::uint64_t code_distance = 0;
  std::uint64_t physical_qubits = 0;
  double cycle_time_ns = 0.0;
  /// Error rate per logical qubit per logical cycle.
  double logical_error_rate = 0.0;

  /// Logical clock frequency in Hz (inverse cycle time).
  double clock_frequency_hz() const { return 1e9 / cycle_time_ns; }

  static LogicalQubit create(const QubitParams& qubit, const QecScheme& scheme,
                             std::uint64_t code_distance);

  json::Value to_json() const;
};

/// Binds the formula variables (operation times and code distance) for a
/// qubit model; exposed for custom formulas in tests and examples.
Environment qec_formula_environment(const QubitParams& qubit, std::uint64_t code_distance);

}  // namespace qre
