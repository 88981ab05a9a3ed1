// The sweep plan: per-value parsing and spliced cache keys for sweep grids.
//
// Dense sweep grids — the paper's Fig. 3/4 workloads — are cartesian
// products of a handful of axis values over one base document, yet the
// per-item path re-parses and re-validates the full JSON item and rebuilds
// an EstimationInput for every grid point. The plan removes that per-item
// JSON work:
//
//  * plan_batch_kernel() analyzes the sweep ONCE: it parses and validates
//    each axis VALUE once (not each grid item), keeps the parsed input of
//    every value, and precomputes the canonical cache-key skeleton so
//    per-item keys are spliced, not re-serialized;
//  * run_batch_kernel() evaluates a grid item as estimate() on a copy of the
//    plan's reference input with each axis's section copied in from the
//    picked value;
//  * items the plan cannot cover — an axis value whose materialized document
//    fails validation — run through the per-item fallback runner, so mixed
//    batches produce exactly the documents the per-item path would.
//
// Eligibility is conservative; plan_batch_kernel() declines (with a reason
// recorded in batchStats.batchKernel) whenever per-axis-value analysis could
// diverge from per-item semantics:
//
//  * the job must be a sweep (not items/frontier) with estimateType absent
//    or "singlePoint";
//  * every axis must target one of the sections logicalCounts, errorBudget,
//    constraints, or qubitParams (dotted paths into them included), with at
//    most one axis per section;
//  * a qubitParams axis is rejected when the base document pins a qecScheme
//    (the scheme resolution would depend on the combined document);
//  * the spliced key skeleton must round-trip canonical_key() exactly
//    (checked structurally at plan time; degenerate documents decline).
//
// A declined sweep runs the per-item path. The plan is asserted
// bit-identical to that path — same estimate() arithmetic, same report
// rendering, same cache keys — by tests/test_batch_kernel.cpp.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "core/estimator.hpp"
#include "json/json.hpp"
#include "service/engine.hpp"

namespace qre::service {

/// One sweep axis, analyzed: its grid geometry plus the parsed input of
/// every axis value. Only the axis's own section of each input is used.
struct BatchKernelAxis {
  enum class Section { kLogicalCounts, kErrorBudget, kConstraints, kQubitParams };

  Section section = Section::kLogicalCounts;
  std::string path;        // as declared in the sweep, possibly dotted
  std::size_t size = 0;    // number of values
  std::size_t stride = 1;  // row-major stride in the expanded grid

  /// Per-value: the parsed input of the value's materialized probe
  /// document, or nullopt when that document failed validation or parsing
  /// (items picking the value run the per-item fallback).
  std::vector<std::optional<EstimationInput>> inputs;

  /// Per-value canonical dump of the raw axis value, spliced into cache keys.
  std::vector<std::string> key_dumps;

  /// The value grid item `index` picks on this axis.
  std::size_t pick(std::size_t index) const { return (index / stride) % size; }
};

/// The per-sweep analysis result.
class BatchKernelPlan {
 public:
  /// The plan can evaluate this sweep; when false, `reason()` says why and
  /// the caller runs the per-item path.
  bool eligible() const { return eligible_; }
  const std::string& reason() const { return reason_; }

  std::size_t num_items() const { return num_items_; }

  /// Every value grid item `index` picks passed plan-time validation (else:
  /// per-item fallback).
  bool covers(std::size_t index) const;

  /// The input of grid item `index`: the reference input with each axis's
  /// section copied from the picked value. Requires covers(index).
  EstimationInput item_input(std::size_t index) const;

  /// The canonical cache key of grid item `index`, spliced from the key
  /// skeleton and the picked values' dumps. Byte-identical to
  /// canonical_key() of the expanded item document.
  std::string item_key(std::size_t index) const;

 private:
  friend BatchKernelPlan plan_batch_kernel(const json::Value& job,
                                           const std::vector<json::Value>& items,
                                           const api::Registry& registry);

  bool eligible_ = false;
  std::string reason_;
  std::size_t num_items_ = 0;
  std::vector<BatchKernelAxis> axes_;
  /// The fully parsed input of the first all-valid grid point; it fixes
  /// every section no axis targets.
  EstimationInput reference_input_;
  /// Key skeleton: literals_[0] + dump(axis key_order_[0]) + literals_[1] +
  /// ... + literals_[num_axes].
  std::vector<std::string> key_literals_;
  std::vector<std::size_t> key_order_;
};

/// Analyzes `job` (a sweep document, already expanded to `items` by
/// expand_sweep) against `registry`. Never throws: any analysis failure
/// yields an ineligible plan whose reason() explains it.
BatchKernelPlan plan_batch_kernel(const json::Value& job, const std::vector<json::Value>& items,
                                  const api::Registry& registry);

/// Evaluates the expanded grid through the plan on the engine's worker pool
/// (run_batch_indexed), so ordering, error isolation, cancellation,
/// streaming, and cache accounting are shared with the per-item path and
/// every counter tallies exactly once. Items with invalid axis values run
/// through `fallback` (the per-item runner). Requires plan.eligible() and
/// items.size() == plan.num_items(). Fills stats->kernel when stats is
/// given.
json::Array run_batch_kernel(const BatchKernelPlan& plan, const std::vector<json::Value>& items,
                             const JobRunner& fallback, const EngineOptions& options = {},
                             BatchStats* stats = nullptr);

}  // namespace qre::service
