#include "api/schema.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "frontier/explorer.hpp"
#include "service/sweep.hpp"

namespace qre::api {

namespace {

/// The instruction set a document's qubitParams section resolves to, used
/// to pick the QEC scheme namespace. Falls back to gate-based (the default
/// profile) when the section is absent or too broken to tell.
InstructionSet resolve_instruction_set(const json::Value& doc, const Registry& registry) {
  InstructionSet set = InstructionSet::kGateBased;
  const json::Value* qubit = doc.find("qubitParams");
  if (qubit == nullptr || !qubit->is_object()) return set;
  if (const json::Value* name = qubit->find("name")) {
    if (name->is_string()) {
      if (const QubitParams* profile = registry.find_qubit(name->as_string())) {
        set = profile->instruction_set;
      }
    }
  }
  if (const json::Value* is = qubit->find("instructionSet")) {
    if (is->is_string()) try_parse_instruction_set(is->as_string(), set);
  }
  return set;
}

void validate_estimate_type(const json::Value& v, const std::string& base, Diagnostics& diags) {
  if (!v.is_string()) {
    diags.error("type-mismatch", base, "estimateType must be a string");
    return;
  }
  if (v.as_string() != "singlePoint" && v.as_string() != "frontier") {
    diags.error("invalid-value", base,
                "unknown estimateType '" + v.as_string() +
                    "' (expected singlePoint or frontier)");
  }
}

/// Parses the estimation sections `doc` carries, each through its module's
/// parser, with names resolved against `registry` (paths are anchored at
/// the document root; batch items are parsed as documents of their own).
/// Returns the input when no section has an error and logicalCounts is
/// present.
std::optional<EstimationInput> parse_sections(const json::Value& doc, const Registry& registry,
                                              Diagnostics& diags) {
  const std::size_t errors = diags.num_errors();
  EstimationInput input;
  const json::Value* counts = doc.find("logicalCounts");
  if (counts != nullptr) {
    if (auto parsed = LogicalCounts::parse(*counts, "/logicalCounts", diags)) {
      input.counts = *parsed;
    }
  }
  if (const json::Value* qubit = doc.find("qubitParams")) {
    const json::Value* name = qubit->is_object() ? qubit->find("name") : nullptr;
    const QubitParams* base =
        name != nullptr && name->is_string() ? registry.find_qubit(name->as_string()) : nullptr;
    if (auto parsed = QubitParams::parse(*qubit, "/qubitParams", base, diags)) {
      input.qubit = std::move(*parsed);
    }
  }
  // Without a qecScheme section the registry's entry for the default scheme
  // wins (a pack may re-tune it); a section without a name overrides the
  // built-in default. QecScheme::default_for stays the single source of the
  // name table.
  const InstructionSet set = resolve_instruction_set(doc, registry);
  const QecScheme builtin = QecScheme::default_for(set);
  if (const json::Value* qec = doc.find("qecScheme")) {
    const QecScheme* scheme = &builtin;
    if (const json::Value* name = qec->is_object() ? qec->find("name") : nullptr) {
      scheme = name->is_string() ? registry.find_qec(name->as_string(), set) : nullptr;
    }
    if (auto parsed = QecScheme::parse(*qec, "/qecScheme", scheme, set, diags)) {
      input.qec = std::move(*parsed);
    }
  } else {
    const QecScheme* scheme = registry.find_qec(builtin.name(), set);
    input.qec = scheme != nullptr ? *scheme : builtin;
  }
  if (const json::Value* budget = doc.find("errorBudget")) {
    if (auto parsed = ErrorBudget::parse(*budget, "/errorBudget", diags)) input.budget = *parsed;
  }
  if (const json::Value* constraints = doc.find("constraints")) {
    if (auto parsed = Constraints::parse(*constraints, "/constraints", diags)) {
      input.constraints = *parsed;
    }
  }
  if (const json::Value* units = doc.find("distillationUnitSpecifications")) {
    const std::string base = "/distillationUnitSpecifications";
    if (!units->is_array()) {
      diags.error("type-mismatch", base, "distillationUnitSpecifications must be an array");
    } else if (units->as_array().empty()) {
      diags.error("value-range", base, "distillationUnitSpecifications must not be empty");
    } else if (units->as_array().size() > kMaxDistillationUnits) {
      diags.error("value-range", base,
                  "distillationUnitSpecifications lists " +
                      std::to_string(units->as_array().size()) + " units; at most " +
                      std::to_string(kMaxDistillationUnits) + " are allowed");
    } else {
      input.distillation_units.clear();
      for (std::size_t i = 0; i < units->as_array().size(); ++i) {
        const json::Value& unit = units->as_array()[i];
        const std::string path = pointer_join(base, i);
        // A name-only entry references a registered template.
        if (unit.is_object() && unit.as_object().size() == 1 && unit.find("name") != nullptr) {
          const json::Value* name = expect(unit, "name", FieldKind::kString, path, diags);
          if (name == nullptr) continue;
          if (const DistillationUnit* found = registry.find_distillation(name->as_string())) {
            input.distillation_units.push_back(*found);
          } else {
            diags.error("unknown-name", pointer_join(path, "name"),
                        "unknown distillation unit template '" + name->as_string() + "'");
          }
        } else if (auto parsed = DistillationUnit::parse(unit, path, diags)) {
          input.distillation_units.push_back(std::move(*parsed));
        }
      }
    }
  }
  if (const json::Value* type = doc.find("estimateType")) {
    validate_estimate_type(*type, "/estimateType", diags);
  }
  if (counts == nullptr || diags.num_errors() != errors) return std::nullopt;
  return input;
}

}  // namespace

const std::vector<std::string_view>& job_keys() {
  static const std::vector<std::string_view> kKeys = {
      "schemaVersion", "logicalCounts",
      "qubitParams",   "qecScheme",
      "errorBudget",   "constraints",
      "distillationUnitSpecifications", "estimateType",
      "items",         "sweep",
      "frontier",
  };
  return kKeys;
}

const std::vector<std::string_view>& job_kinds() {
  static const std::vector<std::string_view> kKinds = {"items", "sweep", "frontier"};
  return kKinds;
}

namespace {

bool is_job_kind(std::string_view key) {
  const std::vector<std::string_view>& kinds = job_kinds();
  return std::find(kinds.begin(), kinds.end(), key) != kinds.end();
}

}  // namespace

json::Value upgrade_job(json::Value job, Diagnostics& diags, int* source_version) {
  if (source_version != nullptr) *source_version = 1;
  if (!job.is_object()) return job;  // the validator reports the type error
  const json::Value* version = job.find("schemaVersion");
  if (version == nullptr) {
    job.set("schemaVersion", kSchemaVersion);
    return job;
  }
  if (!version->is_number()) {
    diags.error("type-mismatch", "/schemaVersion", "schemaVersion must be a number");
    return job;
  }
  const double declared = version->as_double();
  if (declared == 1.0) {
    job.set("schemaVersion", kSchemaVersion);
    return job;
  }
  if (declared == 2.0) {
    if (source_version != nullptr) *source_version = 2;
    return job;
  }
  diags.error("unsupported-version", "/schemaVersion",
              "unsupported schemaVersion " + version->dump() + " (this service handles 1 and 2)");
  return job;
}

void validate_batch_items(const json::Value& job, const Registry& registry,
                          Diagnostics& diags) {
  if (!job.is_object()) return;
  const json::Value* items = job.find("items");
  if (items == nullptr || !items->is_array()) return;
  for (std::size_t i = 0; i < items->as_array().size(); ++i) {
    const json::Value& item = items->as_array()[i];
    if (!item.is_object()) continue;  // the structural pass already flagged it
    Diagnostics item_diags;
    validate_job(merge_job_item(job, item), registry, item_diags);
    const std::string prefix = pointer_join("/items", i);
    for (const Diagnostic& d : item_diags.entries()) {
      // Report only what this item causes: problems in sections the item
      // itself overrides, or logicalCounts missing on both levels. Findings
      // in inherited sections were already reported at the top level.
      if (d.path.empty()) continue;
      const std::size_t next = d.path.find('/', 1);
      const std::string section = d.path.substr(1, next == std::string::npos
                                                       ? std::string::npos
                                                       : next - 1);
      if (item.find(section) != nullptr || d.path == "/logicalCounts") {
        diags.add({d.severity, d.code, prefix + d.path, d.message});
      }
    }
  }
}

json::Value merge_job_item(const json::Value& base, const json::Value& overlay) {
  json::Object pruned;
  for (const auto& [k, v] : base.as_object()) {
    if (!is_job_kind(k)) pruned.emplace_back(k, v);
  }
  json::Value merged{std::move(pruned)};
  for (const auto& [k, v] : overlay.as_object()) merged.set(k, v);
  return merged;
}

std::optional<EstimationInput> validate_job(const json::Value& job, const Registry& registry,
                                            Diagnostics& diags) {
  if (!job.is_object()) {
    diags.error("type-mismatch", "", "estimation job must be a JSON object");
    return std::nullopt;
  }
  const std::size_t errors = diags.num_errors();
  check_known_keys(job, job_keys(), "", diags);
  if (const json::Value* version = job.find("schemaVersion")) {
    if (!version->is_number() || version->as_double() != static_cast<double>(kSchemaVersion)) {
      diags.error("unsupported-version", "/schemaVersion",
                  "expected schemaVersion 2; run v1 documents through the upgrade shim");
    }
  }

  const json::Value* items = job.find("items");
  const json::Value* sweep = job.find("sweep");
  if (items != nullptr && sweep != nullptr) {
    diags.error("mutually-exclusive", "/items", "a job cannot carry both items and sweep");
  }
  if (const json::Value* frontier_section = job.find("frontier")) {
    if (items != nullptr || sweep != nullptr) {
      diags.error("mutually-exclusive", "/frontier",
                  "a frontier job cannot carry items or sweep");
    }
    if (const json::Value* type = job.find("estimateType")) {
      if (type->is_string() && type->as_string() == "frontier") {
        diags.error("mutually-exclusive", "/frontier",
                    "the adaptive 'frontier' section replaces the fixed-grid "
                    "estimateType \"frontier\"; use one or the other");
      }
    }
    frontier::ExploreOptions::parse(*frontier_section, "/frontier", diags);
  }

  std::optional<EstimationInput> input = parse_sections(job, registry, diags);

  bool counts_may_come_later = false;
  if (sweep != nullptr) {
    if (!sweep->is_object()) {
      diags.error("type-mismatch", "/sweep", "sweep must be an object");
    } else {
      try {
        for (const service::SweepAxis& axis : service::sweep_axes(*sweep)) {
          if (axis.path == "logicalCounts" || axis.path.rfind("logicalCounts.", 0) == 0) {
            counts_may_come_later = true;
          }
        }
      } catch (const Error& e) {
        diags.error("invalid-sweep", "/sweep", e.what());
      }
    }
  }
  if (items != nullptr) {
    // Only the batch *structure* is validated here; each item's content is
    // validated individually when the batch runs, so one bad item degrades
    // to a structured "invalid-item" result entry instead of rejecting the
    // whole request (the engine's per-item isolation contract).
    if (!items->is_array()) {
      diags.error("type-mismatch", "/items", "items must be an array");
    } else {
      for (std::size_t i = 0; i < items->as_array().size(); ++i) {
        const json::Value& item = items->as_array()[i];
        const std::string path = pointer_join("/items", i);
        if (!item.is_object()) {
          diags.error("type-mismatch", path, "batch item must be an object");
          continue;
        }
        check_known_keys(item, job_keys(), path, diags);
        for (std::string_view kind : job_kinds()) {
          if (item.find(kind) != nullptr) {
            diags.error("mutually-exclusive", path,
                        "a batch item must not itself carry items, sweep, or frontier");
            break;
          }
        }
      }
    }
  }

  if (job.find("logicalCounts") == nullptr && items == nullptr && !counts_may_come_later) {
    diags.error("required-missing", "/logicalCounts",
                "required field 'logicalCounts' is missing");
  }
  if (diags.num_errors() != errors) return std::nullopt;
  return input;
}

}  // namespace qre::api
