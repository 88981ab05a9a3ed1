// The sweep plan: the one evaluator of sweep grids.
//
// Dense sweep grids — the paper's Fig. 3/4 workloads — are cartesian
// products of a handful of axis values over one base document. The plan
// works from the job document alone and never expands the grid:
// plan_batch_kernel() resolves the axes, applies expand_sweep's item cap,
// builds one probe document per axis VALUE (not one per grid item), and
// precomputes the canonical cache-key skeleton, so per-item keys are
// spliced rather than re-serialized. api::run then evaluates the grid with
// one run_batch_indexed call:
//
//  * an item the plan covers runs estimate() on a copy of the plan's
//    reference input with each axis's section copied in from the picked
//    value's parsed probe;
//  * every other item runs the per-item runner on the document
//    item_document() builds for it, byte-identical to
//    expand_sweep(job)[index].
//
// The plan composes inputs only where per-value parsing cannot diverge
// from per-item semantics. It composes none when the estimateType is not
// "singlePoint", when an axis targets a section other than logicalCounts,
// errorBudget, constraints, or qubitParams (dotted paths into them
// included), when two axes target one section, or when a qubitParams axis
// meets a base qecScheme (scheme resolution would depend on the combined
// document). It composes no item picking a value whose probe fails
// validation. When the key skeleton is ambiguous, item_key() falls back to
// canonical_key() of the item document.
//
// The plan is asserted bit-identical to the per-item path — same
// estimate() arithmetic, same report bytes, same cache keys, same grid
// documents, same errors — by tests/test_batch_kernel.cpp.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "core/estimator.hpp"
#include "json/json.hpp"

namespace qre::service {

/// One sweep axis, analyzed: its grid geometry plus the parsed input of
/// every axis value. Only the axis's own section of each input is used.
struct BatchKernelAxis {
  enum class Section { kLogicalCounts, kErrorBudget, kConstraints, kQubitParams };

  Section section = Section::kLogicalCounts;
  std::string path;                 // as declared in the sweep, possibly dotted
  std::vector<json::Value> values;  // the resolved axis values, in order
  std::size_t stride = 1;           // row-major stride in the grid

  /// Per-value: the parsed input of the value's probe document, or nullopt
  /// when that document failed validation or parsing, or when the plan
  /// composes no inputs (items picking the value run the per-item runner).
  std::vector<std::optional<EstimationInput>> inputs;

  /// Per-value canonical dump of the raw axis value, spliced into cache keys.
  std::vector<std::string> key_dumps;

  /// The value grid item `index` picks on this axis.
  std::size_t pick(std::size_t index) const { return (index / stride) % values.size(); }
};

/// The per-sweep analysis result.
class BatchKernelPlan {
 public:
  /// Every plan plan_batch_kernel(job, registry) returns is eligible; only
  /// the three-argument forwarder below declines, with a reason().
  bool eligible() const { return eligible_; }
  const std::string& reason() const { return reason_; }

  std::size_t num_items() const { return num_items_; }

  /// The plan composes the input of grid item `index`: every value it picks
  /// passed plan-time validation, in a sweep the plan composes at all.
  bool covers(std::size_t index) const;

  /// The input of grid item `index`: the reference input with each axis's
  /// section copied from the picked value. Requires covers(index).
  EstimationInput item_input(std::size_t index) const;

  /// The canonical cache key of grid item `index`, byte-identical to
  /// canonical_key(item_document(index)): spliced from the key skeleton
  /// and the picked values' dumps, or, when the skeleton is ambiguous,
  /// computed from the item document.
  std::string item_key(std::size_t index) const;

  /// The complete job document of grid item `index`, byte-identical to
  /// expand_sweep(job)[index]. Built on demand, for the items the plan
  /// does not cover.
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
  /// ... + literals_[num_axes]; empty when the skeleton is ambiguous.
  std::vector<std::string> key_literals_;
  std::vector<std::size_t> key_order_;
};

/// Plans the sweep document `job` against `registry` without expanding the
/// grid: it builds one probe document per axis value, not one per grid
/// item. Throws the qre::Error expand_sweep(job) would throw — a malformed
/// axis, a grid over kMaxSweepItems, the first grid document (row-major)
/// whose dotted path cannot be set — and nothing else.
BatchKernelPlan plan_batch_kernel(const json::Value& job, const api::Registry& registry);

/// plan_batch_kernel(job, registry), declined unless `items` (the job's
/// expand_sweep output) has exactly num_items() entries. Kept, with
/// eligible() and reason(), for servebench/traced.cpp, which times the
/// plan through it.
BatchKernelPlan plan_batch_kernel(const json::Value& job, const std::vector<json::Value>& items,
                                  const api::Registry& registry);

}  // namespace qre::service
