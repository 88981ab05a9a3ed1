// T factories: multi-round distillation pipelines (paper Section III-D).
//
// A T factory is a sequence of distillation rounds. Round 1 may run directly
// on physical qubits (for units that allow it) or on logical patches at a
// chosen code distance; later rounds run on logical patches with
// non-decreasing distances. Each round runs enough unit copies in parallel —
// inflated by the units' failure probabilities — to feed the next round.
//
// The factory's physical footprint is the maximum round footprint (rounds
// execute sequentially and reuse qubits), its duration is the sum of round
// durations, and its per-invocation output is the final round's output count
// discounted by the final failure probability.
//
// design_tfactory() searches unit choices and per-round code distances for
// the pipeline that reaches a required output T-state error rate, optimizing
// a configurable objective (default: qubit-seconds per produced T state).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "json/json.hpp"
#include "profiles/qubit_params.hpp"
#include "qec/qec_scheme.hpp"
#include "tfactory/distillation_unit.hpp"

namespace qre {

struct DistillationRound {
  std::string unit_name;
  bool physical = false;           // round runs on raw physical qubits
  std::uint64_t code_distance = 0; // 0 for physical rounds
  std::uint64_t num_units = 0;     // parallel unit copies in this round
  double duration_ns = 0.0;
  double failure_probability = 0.0;
  double output_error_rate = 0.0;  // per output T state after this round
  std::uint64_t physical_qubits_per_unit = 0;
  std::uint64_t physical_qubits = 0;
};

/// Bytes derived from the object that holds them. A copy, and a moved-to
/// object, starts empty: an edited copy of the holder is never served its
/// source's bytes.
class DerivedBytes {
 public:
  DerivedBytes() = default;
  DerivedBytes(const DerivedBytes&) noexcept {}
  DerivedBytes& operator=(const DerivedBytes&) noexcept {
    bytes_.clear();
    return *this;
  }

  const std::string& get() const { return bytes_; }
  void set(std::string bytes) { bytes_ = std::move(bytes); }

 private:
  std::string bytes_;
};

struct TFactory {
  std::vector<DistillationRound> rounds;
  std::uint64_t physical_qubits = 0;
  double duration_ns = 0.0;
  double input_t_error_rate = 0.0;
  double output_error_rate = 0.0;
  /// Expected accepted T states per factory invocation.
  double tstates_per_invocation = 0.0;
  /// This design's "tfactory" output group once keep_json() wrote it.
  DerivedBytes json_bytes;

  /// True when the raw physical T states already meet the requirement and
  /// no distillation runs (zero qubits, zero duration).
  bool no_distillation() const { return rounds.empty(); }

  /// Qubit-seconds consumed per produced T state; the default search
  /// objective.
  double normalized_volume() const;

  json::Value to_json() const;
  /// Appends to_json().dump(): the bytes keep_json() stored, or written
  /// afresh without the tree.
  void append_json(std::string& out) const;
  /// Writes the group once and keeps it in json_bytes. FactoryCache calls
  /// it on every design it shares, before the design becomes const.
  void keep_json();
};

struct TFactoryOptions {
  /// Maximum number of distillation rounds to consider.
  std::uint64_t max_rounds = 3;
  /// Distance search range for logical rounds (odd values).
  std::uint64_t min_code_distance = 1;
  std::uint64_t max_code_distance = 31;
  /// Candidate rounds whose failure probability exceeds this are rejected.
  double max_round_failure_probability = 0.9;

  enum class Objective { kMinVolume, kMinQubits, kMinDuration };
  Objective objective = Objective::kMinVolume;

  /// Force the brute-force pipeline enumeration instead of the pruned
  /// branch-and-bound search. Both return bit-identical factories (the
  /// pruned search only skips subtrees that cannot beat the incumbent);
  /// the exhaustive mode exists so tests can prove that equivalence and
  /// as an escape hatch. The QRE_EXHAUSTIVE_SEARCH environment variable
  /// (any value other than "0") forces it globally.
  bool exhaustive = false;
};

/// Finds the best factory producing T states with error <= required, or
/// std::nullopt when no pipeline within the options reaches it. When the raw
/// physical T-state error already meets the requirement a no-distillation
/// factory is returned.
std::optional<TFactory> design_tfactory(double required_output_error, const QubitParams& qubit,
                                        const QecScheme& scheme,
                                        const std::vector<DistillationUnit>& units,
                                        const TFactoryOptions& options = {});

/// All feasible factories that are Pareto-optimal in (physical qubits,
/// duration). Used by the frontier bench and tests.
std::vector<TFactory> tfactory_pareto_frontier(double required_output_error,
                                               const QubitParams& qubit,
                                               const QecScheme& scheme,
                                               const std::vector<DistillationUnit>& units,
                                               const TFactoryOptions& options = {});

}  // namespace qre
