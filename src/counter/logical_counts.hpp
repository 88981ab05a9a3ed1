// Pre-layout logical resource counts (paper Sections III-A and IV-B3).
//
// These are the numbers the first estimation step extracts from a program:
// circuit width and counts of T gates, arbitrary rotations, CCZ/CCiX gates,
// and measurements, plus the rotation depth. They are also the third input
// format of the tool ("known logical estimates", the Q# AccountForEstimates /
// Python LogicalCounts path), so they can be constructed directly or loaded
// from JSON without any program.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "common/diagnostics.hpp"
#include "json/json.hpp"

namespace qre {

struct LogicalCounts {
  /// Number of logical qubits the program uses (live high-water mark).
  std::uint64_t num_qubits = 0;
  /// T and T† gates invoked explicitly.
  std::uint64_t t_count = 0;
  /// Arbitrary-angle rotation gates (Rx/Ry/Rz/R1).
  std::uint64_t rotation_count = 0;
  /// Number of non-Clifford layers containing at least one rotation
  /// (paper Section III-B2).
  std::uint64_t rotation_depth = 0;
  /// CCZ gates (Toffoli up to Cliffords).
  std::uint64_t ccz_count = 0;
  /// CCiX gates (the AND-gadget Toffoli variant, counted separately).
  std::uint64_t ccix_count = 0;
  /// Single-qubit measurements (Z or X basis).
  std::uint64_t measurement_count = 0;
  /// Clifford gates; informational only, not used by the estimate.
  std::uint64_t clifford_count = 0;

  bool has_non_clifford() const {
    return t_count + rotation_count + ccz_count + ccix_count != 0;
  }

  /// The logicalCounts section parser (contract in common/diagnostics.hpp):
  /// {"numQubits": ..., "tCount": ..., "rotationCount": ..., ...}; all
  /// fields except numQubits default to 0.
  static std::optional<LogicalCounts> parse(const json::Value& v, std::string_view path,
                                            Diagnostics& diags);

  /// parse() for direct callers (see parse_or_throw).
  static LogicalCounts from_json(const json::Value& v, Diagnostics* diags = nullptr);
  json::Value to_json() const;

  /// The keys parse() understands.
  static const std::vector<std::string_view>& json_keys();

  /// Composes subroutines executed one after another on a shared machine —
  /// the AccountForEstimates pattern (paper Section IV-B3): gate and
  /// measurement counts add, rotation depths add, and the width is the
  /// widest subroutine.
  static LogicalCounts sequential(const std::vector<LogicalCounts>& parts);

  /// This subroutine repeated `times` in sequence.
  LogicalCounts repeated(std::uint64_t times) const;

  bool operator==(const LogicalCounts&) const = default;
};

}  // namespace qre
