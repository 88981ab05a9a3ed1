#include "service/batch_kernel.hpp"

#include <algorithm>
#include <iterator>
#include <string_view>
#include <utility>

#include "api/schema.hpp"
#include "common/diagnostics.hpp"
#include "common/error.hpp"
#include "service/cache.hpp"
#include "service/sweep.hpp"

namespace qre::service {

namespace {

/// Assigns each axis its section. False when per-value inputs could
/// diverge from per-item semantics: a non-singlePoint estimateType, an
/// axis outside the modeled sections (qecScheme, distillation units, ...),
/// two axes on one section, or a qubitParams axis over a base qecScheme
/// (scheme resolution would depend on the combined document).
bool composable(const json::Value& job, std::vector<BatchKernelAxis>& axes) {
  if (const json::Value* type = job.find("estimateType")) {
    if (!type->is_string() || type->as_string() != "singlePoint") return false;
  }
  // In BatchKernelAxis::Section order.
  static constexpr std::string_view kSections[] = {"logicalCounts", "errorBudget",
                                                   "constraints", "qubitParams"};
  bool section_used[std::size(kSections)] = {};
  for (BatchKernelAxis& a : axes) {
    const std::string_view head = std::string_view(a.path).substr(0, a.path.find('.'));
    const auto* section = std::find(std::begin(kSections), std::end(kSections), head);
    if (section == std::end(kSections)) return false;
    const std::size_t s = static_cast<std::size_t>(section - std::begin(kSections));
    if (section_used[s]) return false;
    section_used[s] = true;
    a.section = static_cast<BatchKernelAxis::Section>(s);
    if (a.section == BatchKernelAxis::Section::kQubitParams &&
        job.find("qecScheme") != nullptr) {
      return false;
    }
  }
  return true;
}

std::string axis_sentinel(std::size_t axis_index) {
  return "qre.batch-kernel.axis." + std::to_string(axis_index) + ".sentinel";
}

/// The cache-key skeleton: substitute a unique sentinel string for each
/// axis leaf, canonicalize once, and split at the sentinels, so per-item
/// keys are literal segments with per-value dumps spliced in. Leaves
/// `literals` empty when the skeleton is ambiguous: a sentinel is not
/// unique, or one axis's path descends through another's leaf.
void split_key_skeleton(const json::Value& base, const std::vector<BatchKernelAxis>& axes,
                        std::vector<std::string>& literals, std::vector<std::size_t>& order) {
  json::Value skeleton = base;
  try {
    for (std::size_t j = 0; j < axes.size(); ++j) {
      set_path(skeleton, axes[j].path, json::Value(axis_sentinel(j)));
    }
  } catch (const Error&) {
    return;
  }
  const std::string canon = canonical_key(skeleton);
  std::vector<std::pair<std::size_t, std::size_t>> markers;  // (pos, axis)
  for (std::size_t j = 0; j < axes.size(); ++j) {
    // A quoted sentinel is a whole JSON string; a degenerate document that
    // embeds one elsewhere makes splicing ambiguous.
    const std::string quoted = '"' + axis_sentinel(j) + '"';
    const std::size_t pos = canon.find(quoted);
    if (pos == std::string::npos || canon.find(quoted, pos + 1) != std::string::npos) return;
    markers.emplace_back(pos, j);
  }
  std::sort(markers.begin(), markers.end());
  std::size_t cursor = 0;
  for (const auto& [pos, j] : markers) {
    literals.push_back(canon.substr(cursor, pos - cursor));
    order.push_back(j);
    cursor = pos + axis_sentinel(j).size() + 2;  // skip both quotes
  }
  literals.push_back(canon.substr(cursor));
}

}  // namespace

bool BatchKernelPlan::covers(std::size_t index) const {
  for (const BatchKernelAxis& a : axes_) {
    if (!a.inputs[a.pick(index)].has_value()) return false;
  }
  return true;
}

EstimationInput BatchKernelPlan::item_input(std::size_t index) const {
  EstimationInput input = reference_input_;
  for (const BatchKernelAxis& a : axes_) {
    const EstimationInput& value = *a.inputs[a.pick(index)];
    switch (a.section) {
      case BatchKernelAxis::Section::kLogicalCounts:
        input.counts = value.counts;
        break;
      case BatchKernelAxis::Section::kErrorBudget:
        input.budget = value.budget;
        break;
      case BatchKernelAxis::Section::kConstraints:
        input.constraints = value.constraints;
        break;
      case BatchKernelAxis::Section::kQubitParams:
        // The QEC scheme follows the qubit value: the registry default for
        // its instruction set, or the scheme the value names.
        input.qubit = value.qubit;
        input.qec = value.qec;
        break;
    }
  }
  return input;
}

std::string BatchKernelPlan::item_key(std::size_t index) const {
  if (key_literals_.empty()) return canonical_key(item_document(index));
  std::string out;
  for (std::size_t g = 0; g < key_order_.size(); ++g) {
    out.append(key_literals_[g]);
    const BatchKernelAxis& a = axes_[key_order_[g]];
    out.append(a.key_dumps[a.pick(index)]);
  }
  out.append(key_literals_.back());
  return out;
}

json::Value BatchKernelPlan::item_document(std::size_t index) const {
  // The same steps as expand_sweep: the base, then each axis's picked value
  // deep-set in declaration order.
  json::Value item = base_;
  for (const BatchKernelAxis& a : axes_) set_path(item, a.path, a.values[a.pick(index)]);
  return item;
}

BatchKernelPlan plan_batch_kernel(const json::Value& job, const api::Registry& registry) {
  // The same checks, in the same order, as expand_sweep, so a job it
  // rejects fails here with its error; the cap applies before anything is
  // allocated.
  QRE_REQUIRE(job.is_object(), "sweep job must be a JSON object");
  const json::Value* sweep = job.find("sweep");
  QRE_REQUIRE(sweep != nullptr, "job has no sweep to expand");
  std::vector<SweepAxis> declared = sweep_axes(*sweep);
  BatchKernelPlan plan;
  plan.eligible_ = true;
  plan.num_items_ = sweep_grid_size(declared);
  plan.base_ = sweep_base(job);

  // Row-major geometry, matching expand_sweep: first axis varies slowest.
  plan.axes_.resize(declared.size());
  std::size_t stride = plan.num_items_;
  for (std::size_t j = 0; j < declared.size(); ++j) {
    BatchKernelAxis& a = plan.axes_[j];
    a.path = std::move(declared[j].path);
    a.values = std::move(declared[j].values);
    stride /= a.values.size();
    a.stride = stride;
  }
  const bool composes = composable(job, plan.axes_);

  // One probe document per axis VALUE (base + this value, every other axis
  // at its first value): the grid document the per-item path would parse
  // for that item, so parsed inputs are exact. A value whose probe fails
  // validation stays nullopt; grid items picking it run the per-item runner
  // and produce identical error documents.
  for (BatchKernelAxis& a : plan.axes_) {
    a.inputs.resize(a.values.size());
    a.key_dumps.reserve(a.values.size());
    for (std::size_t k = 0; k < a.values.size(); ++k) {
      a.key_dumps.push_back(canonical_key(a.values[k]));
      json::Value probe;
      try {
        probe = plan.item_document(k * a.stride);
      } catch (const Error&) {
        // Some grid document cannot be built: throw the error expand_sweep
        // would, that of the first such document in row-major order.
        for (std::size_t index = 0; index < plan.num_items_; ++index) plan.item_document(index);
        throw;
      }
      if (!composes) continue;
      Diagnostics probe_diags;  // tolerate warnings, as the per-item runner does
      a.inputs[k] = api::validate_job(probe, registry, probe_diags);
    }
  }

  // Reference input: any valid probe's. Every grid document shares the
  // sections no axis targets with the base, and item_input() overwrites
  // the rest. Without one, the first axis covers no item.
  const auto& first = plan.axes_.front().inputs;
  const auto valid = std::find_if(first.begin(), first.end(),
                                  [](const auto& input) { return input.has_value(); });
  if (valid != first.end()) plan.reference_input_ = **valid;

  split_key_skeleton(plan.base_, plan.axes_, plan.key_literals_, plan.key_order_);
  return plan;
}

BatchKernelPlan plan_batch_kernel(const json::Value& job, const std::vector<json::Value>& items,
                                  const api::Registry& registry) {
  BatchKernelPlan plan = plan_batch_kernel(job, registry);
  if (plan.num_items() != items.size()) {
    plan.eligible_ = false;
    plan.reason_ = "expanded item count does not match the axis grid";
  }
  return plan;
}

}  // namespace qre::service
