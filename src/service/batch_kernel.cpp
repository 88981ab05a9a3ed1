#include "service/batch_kernel.hpp"

#include <algorithm>
#include <string_view>
#include <utility>

#include "api/api.hpp"
#include "api/schema.hpp"
#include "common/diagnostics.hpp"
#include "common/error.hpp"
#include "report/report.hpp"
#include "service/cache.hpp"
#include "service/sweep.hpp"

namespace qre::service {

namespace {

/// Maps an axis path's head segment to its section; false = the axis
/// targets something the plan does not model (estimateType, qecScheme,
/// distillation units, ...), so the whole sweep runs the per-item path.
bool head_section(const std::string& path, BatchKernelAxis::Section& out) {
  const std::size_t dot = path.find('.');
  const std::string_view head =
      dot == std::string::npos ? std::string_view(path) : std::string_view(path).substr(0, dot);
  if (head == "logicalCounts") {
    out = BatchKernelAxis::Section::kLogicalCounts;
  } else if (head == "errorBudget") {
    out = BatchKernelAxis::Section::kErrorBudget;
  } else if (head == "constraints") {
    out = BatchKernelAxis::Section::kConstraints;
  } else if (head == "qubitParams") {
    out = BatchKernelAxis::Section::kQubitParams;
  } else {
    return false;
  }
  return true;
}

std::string axis_sentinel(std::size_t axis_index) {
  return "qre.batch-kernel.axis." + std::to_string(axis_index) + ".sentinel";
}

/// Finds the unique occurrence of `needle` in `canon` and checks it sits in
/// string position (surrounded by quotes). Returns npos when the occurrence
/// is not unique or not a whole JSON string — a degenerate document embeds
/// the sentinel text somewhere else, and splicing would be ambiguous.
std::size_t locate_sentinel(const std::string& canon, const std::string& needle) {
  const std::size_t first = canon.find(needle);
  if (first == std::string::npos) return std::string::npos;
  if (canon.find(needle, first + 1) != std::string::npos) return std::string::npos;
  if (first == 0 || canon[first - 1] != '"') return std::string::npos;
  const std::size_t end = first + needle.size();
  if (end >= canon.size() || canon[end] != '"') return std::string::npos;
  return first - 1;  // include the opening quote
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
  BatchKernelPlan plan;
  auto decline = [&plan](std::string reason) {
    plan.eligible_ = false;
    plan.reason_ = std::move(reason);
    return std::move(plan);
  };
  try {
    if (!job.is_object() || job.find("sweep") == nullptr) {
      return decline("not a sweep job");
    }
    if (job.find("items") != nullptr || job.find("frontier") != nullptr) {
      return decline("sweep is combined with items/frontier");
    }
    if (const json::Value* type = job.find("estimateType")) {
      if (!type->is_string() || type->as_string() != "singlePoint") {
        return decline("estimateType is not singlePoint");
      }
    }

    std::vector<SweepAxis> declared = sweep_axes(job.at("sweep"));
    bool section_used[4] = {false, false, false, false};
    for (const SweepAxis& axis : declared) {
      BatchKernelAxis::Section section;
      if (!head_section(axis.path, section)) {
        return decline("axis '" + axis.path + "' targets a section outside the kernel");
      }
      if (section_used[static_cast<int>(section)]) {
        return decline("multiple axes target the same section as '" + axis.path + "'");
      }
      section_used[static_cast<int>(section)] = true;
      if (section == BatchKernelAxis::Section::kQubitParams &&
          job.find("qecScheme") != nullptr) {
        return decline("qubitParams axis with a base qecScheme (scheme resolution "
                       "depends on the combined document)");
      }
    }

    // Over the cap this throws expand_sweep's error, before anything is
    // allocated; the plan declines and expand_sweep reports it.
    plan.num_items_ = sweep_grid_size(declared);
    plan.base_ = sweep_base(job);

    // Row-major geometry, matching expand_sweep: first axis varies slowest.
    plan.axes_.resize(declared.size());
    {
      std::size_t stride = plan.num_items_;
      for (std::size_t j = 0; j < declared.size(); ++j) {
        BatchKernelAxis& a = plan.axes_[j];
        a.path = std::move(declared[j].path);
        a.values = std::move(declared[j].values);
        stride /= a.values.size();
        a.stride = stride;
        head_section(a.path, a.section);
      }
    }

    // Parse and validate each axis VALUE once, via its probe document (base
    // + this value, every other axis at its first value): the grid document
    // the per-item path would parse for that item, so inputs are exact. A
    // value whose probe fails validation/parsing stays nullopt; grid items
    // picking it run the per-item fallback and produce identical error
    // documents.
    for (BatchKernelAxis& a : plan.axes_) {
      a.inputs.resize(a.values.size());
      a.key_dumps.reserve(a.values.size());
      for (std::size_t k = 0; k < a.values.size(); ++k) {
        a.key_dumps.push_back(canonical_key(a.values[k]));
        const json::Value probe = plan.item_document(k * a.stride);
        Diagnostics probe_diags;
        api::validate_job(probe, registry, probe_diags);
        if (probe_diags.has_errors()) continue;
        try {
          Diagnostics sink;  // tolerate warnings, as the per-item runner does
          a.inputs[k] = api::input_from_document(probe, registry, &sink);
        } catch (const std::exception&) {
          // leave invalid: the fallback runner reports the exact error
        }
      }
      if (std::none_of(a.inputs.begin(), a.inputs.end(),
                       [](const auto& input) { return input.has_value(); })) {
        return decline("axis '" + a.path + "' has no valid values");
      }
    }

    // Reference input: any valid probe's. Every grid document shares the
    // sections no axis targets with the base, and item_input() overwrites
    // the rest.
    {
      const BatchKernelAxis& first = plan.axes_.front();
      plan.reference_input_ = **std::find_if(first.inputs.begin(), first.inputs.end(),
                                             [](const auto& input) { return input.has_value(); });
    }

    // Cache-key skeleton: substitute a unique sentinel string for each axis
    // leaf, canonicalize once, and split at the sentinels. Per-item keys are
    // then literal segments with per-value dumps spliced in — byte-identical
    // to canonical_key(item) without re-serializing the document.
    {
      json::Value skeleton = plan.base_;
      for (std::size_t j = 0; j < plan.axes_.size(); ++j) {
        set_path(skeleton, plan.axes_[j].path, json::Value(axis_sentinel(j)));
      }
      const std::string canon = canonical_key(skeleton);
      std::vector<std::pair<std::size_t, std::size_t>> markers;  // (pos, axis)
      for (std::size_t j = 0; j < plan.axes_.size(); ++j) {
        const std::string sentinel = axis_sentinel(j);
        const std::size_t pos = locate_sentinel(canon, sentinel);
        if (pos == std::string::npos) {
          return decline("cache-key skeleton is ambiguous for axis '" +
                         plan.axes_[j].path + "'");
        }
        markers.emplace_back(pos, j);
      }
      std::sort(markers.begin(), markers.end());
      std::size_t cursor = 0;
      for (const auto& [pos, j] : markers) {
        plan.key_literals_.push_back(canon.substr(cursor, pos - cursor));
        plan.key_order_.push_back(j);
        cursor = pos + axis_sentinel(j).size() + 2;  // skip both quotes
      }
      plan.key_literals_.push_back(canon.substr(cursor));
    }

    plan.eligible_ = true;
    return plan;
  } catch (const std::exception& e) {
    return decline(std::string("plan analysis failed: ") + e.what());
  }
}

BatchKernelPlan plan_batch_kernel(const json::Value& job, const std::vector<json::Value>& items,
                                  const api::Registry& registry) {
  BatchKernelPlan plan = plan_batch_kernel(job, registry);
  if (plan.eligible() && plan.num_items() != items.size()) {
    plan.eligible_ = false;
    plan.reason_ = "expanded item count does not match the axis grid";
  }
  return plan;
}

json::Array run_batch_kernel(const BatchKernelPlan& plan, const JobRunner& fallback,
                             const EngineOptions& options, BatchStats* stats) {
  QRE_REQUIRE(plan.eligible(), "run_batch_kernel requires an eligible plan");
  QRE_REQUIRE(fallback != nullptr, "run_batch_kernel requires a fallback runner");

  // Classify every grid item up front (cheap: a few divisions each), so the
  // engagement counters partition numItems exactly — a duplicated grid
  // point served from the cache still counts under the path that covers
  // it, and kernelItems + fallbackItems always equals the grid size.
  const std::size_t num_items = plan.num_items();
  std::uint64_t kernel_items = 0;
  for (std::size_t index = 0; index < num_items; ++index) {
    if (plan.covers(index)) ++kernel_items;
  }

  // Both paths run under run_batch_indexed, so cancellation, ordering,
  // error isolation, and cache counters are the engine's — planned results
  // and fallback results tally through one code path.
  const IndexedRunner runner = [&](std::size_t index) -> json::Value {
    if (!plan.covers(index)) return fallback(plan.item_document(index));
    return json::Value::raw(report_bytes(estimate(plan.item_input(index))));
  };
  const IndexedKeyFn key_fn = [&plan](std::size_t index) { return plan.item_key(index); };

  json::Array out = run_batch_indexed(num_items, runner, key_fn, options, stats);
  if (stats != nullptr) {
    BatchKernelStats kernel_stats;
    kernel_stats.engaged = true;
    kernel_stats.kernel_items = kernel_items;
    kernel_stats.fallback_items = num_items - kernel_items;
    stats->kernel = std::move(kernel_stats);
  }
  return out;
}

}  // namespace qre::service
