// The sweep plan: per-value parsing and spliced cache keys for sweep grids.
//
// Dense sweep grids — the paper's Fig. 3/4 workloads — are cartesian
// products of a handful of axis values over one base document, yet the
// per-item path re-parses and re-validates the full JSON item and rebuilds
// an EstimationInput for every grid point. The plan works from the job
// document alone and never expands the grid:
//
//  * plan_batch_kernel() analyzes the sweep ONCE: it resolves the axes,
//    checks the grid against expand_sweep's item cap, parses and validates
//    each axis VALUE once (one probe document per value, not one document
//    per grid item), keeps the parsed input of every value, and
//    precomputes the canonical cache-key skeleton so per-item keys are
//    spliced, not re-serialized;
//  * run_batch_kernel() evaluates a grid item as estimate() on a copy of the
//    plan's reference input with each axis's section copied in from the
//    picked value;
//  * items the plan cannot cover — an axis value whose probe document fails
//    validation — run through the per-item fallback runner on the document
//    item_document() builds for them, so mixed batches produce exactly the
//    documents the per-item path would.
//
// Eligibility is conservative; plan_batch_kernel() declines (with a reason
// recorded in batchStats.batchKernel) whenever per-axis-value analysis could
// diverge from per-item semantics, and whenever expand_sweep would throw:
//
//  * the job must be a sweep (not items/frontier) with estimateType absent
//    or "singlePoint";
//  * the axes must resolve and the grid must fit kMaxSweepItems;
//  * every axis must target one of the sections logicalCounts, errorBudget,
//    constraints, or qubitParams (dotted paths into them included), with at
//    most one axis per section;
//  * a qubitParams axis is rejected when the base document pins a qecScheme
//    (the scheme resolution would depend on the combined document);
//  * the spliced key skeleton must round-trip canonical_key() exactly
//    (checked structurally at plan time; degenerate documents decline).
//
// A declined sweep is expanded and runs the per-item path, which reports
// any error the plan declined on. The plan is asserted bit-identical to
// that path — same estimate() arithmetic, same report rendering, same cache
// keys, same grid documents — by tests/test_batch_kernel.cpp.
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
  std::string path;                 // as declared in the sweep, possibly dotted
  std::vector<json::Value> values;  // the resolved axis values, in order
  std::size_t stride = 1;           // row-major stride in the grid

  /// Per-value: the parsed input of the value's materialized probe
  /// document, or nullopt when that document failed validation or parsing
  /// (items picking the value run the per-item fallback).
  std::vector<std::optional<EstimationInput>> inputs;

  /// Per-value canonical dump of the raw axis value, spliced into cache keys.
  std::vector<std::string> key_dumps;

  /// The value grid item `index` picks on this axis.
  std::size_t pick(std::size_t index) const { return (index / stride) % values.size(); }
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

  /// The complete job document of grid item `index`, byte-identical to
  /// expand_sweep(job)[index]. Built on demand: the plan's runner needs one
  /// only for items it does not cover.
  json::Value item_document(std::size_t index) const;

 private:
  friend BatchKernelPlan plan_batch_kernel(const json::Value& job,
                                           const api::Registry& registry);
  friend BatchKernelPlan plan_batch_kernel(const json::Value& job,
                                           const std::vector<json::Value>& items,
                                           const api::Registry& registry);

  bool eligible_ = false;
  std::string reason_;
  std::size_t num_items_ = 0;
  std::vector<BatchKernelAxis> axes_;
  /// The job without "sweep": every grid document starts from it.
  json::Value base_;
  /// The parsed input of a valid probe; it fixes every section no axis
  /// targets (all grid documents share those sections with the base).
  EstimationInput reference_input_;
  /// Key skeleton: literals_[0] + dump(axis key_order_[0]) + literals_[1] +
  /// ... + literals_[num_axes].
  std::vector<std::string> key_literals_;
  std::vector<std::size_t> key_order_;
};

/// Analyzes the sweep document `job` against `registry` without expanding
/// the grid: it builds one probe document per axis value, not one per grid
/// item. Never throws: any analysis
/// failure (a malformed axis, a grid over kMaxSweepItems, a path
/// expand_sweep would reject) yields an ineligible plan whose reason()
/// explains it, and the caller's expand_sweep then reports the error.
BatchKernelPlan plan_batch_kernel(const json::Value& job, const api::Registry& registry);

/// plan_batch_kernel(job, registry), declined unless `items` (the job's
/// expand_sweep output) has exactly num_items() entries.
BatchKernelPlan plan_batch_kernel(const json::Value& job, const std::vector<json::Value>& items,
                                  const api::Registry& registry);

/// Evaluates the plan's grid on the engine's worker pool
/// (run_batch_indexed), so ordering, error isolation, cancellation,
/// streaming, and cache accounting are shared with the per-item path and
/// every counter tallies exactly once. Items with invalid axis values run
/// through `fallback` (the per-item runner) on their item_document().
/// Requires plan.eligible(). Fills stats->kernel when stats is given.
json::Array run_batch_kernel(const BatchKernelPlan& plan, const JobRunner& fallback,
                             const EngineOptions& options = {}, BatchStats* stats = nullptr);

}  // namespace qre::service
