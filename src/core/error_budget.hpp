// Error budget for the algorithm (paper Section IV-C3).
//
// The total budget epsilon is the maximum allowed failure probability of the
// whole computation. It is partitioned into three parts that drive different
// parameter choices:
//
//   * epsilon_log — implementing logical qubits (sets the code distance),
//   * epsilon_dis — producing T states through distillation,
//   * epsilon_syn — synthesizing arbitrary rotations from T gates.
//
// By default the split is even thirds; when the program has no rotations the
// synthesis share is zero and the remainder is split between the other two;
// with no T states at all, everything goes to the logical part. The three
// parts can also be specified explicitly.
#pragma once

#include <optional>
#include <string_view>
#include <vector>

#include "common/diagnostics.hpp"
#include "json/json.hpp"

namespace qre {

struct ErrorBudgetPartition {
  double logical = 0.0;
  double tstates = 0.0;
  double rotations = 0.0;

  double total() const { return logical + tstates + rotations; }
};

class ErrorBudget {
 public:
  /// Default budget: total of 1e-3 with automatic partitioning.
  ErrorBudget() = default;

  /// Total budget with automatic partitioning.
  static ErrorBudget from_total(double total);

  /// Fully explicit partition.
  static ErrorBudget from_parts(double logical, double tstates, double rotations);

  /// The errorBudget section parser (contract in common/diagnostics.hpp):
  /// a bare number, {"total": x}, or {"logical": a, "tstates": b,
  /// "rotations": c}.
  static std::optional<ErrorBudget> parse(const json::Value& v, std::string_view path,
                                          Diagnostics& diags);

  /// parse() for direct callers (see parse_or_throw).
  static ErrorBudget from_json(const json::Value& v, Diagnostics* diags = nullptr);
  json::Value to_json() const;

  /// The object keys parse() understands.
  static const std::vector<std::string_view>& json_keys();

  double total() const;

  /// Resolves the partition for a program; `has_tstates` and `has_rotations`
  /// tell which sinks exist.
  ErrorBudgetPartition resolve(bool has_tstates, bool has_rotations) const;

 private:
  double total_ = 1e-3;
  std::optional<ErrorBudgetPartition> explicit_parts_;
};

}  // namespace qre
