// Versioned job schema (API v2).
//
// A v2 job document is the v1 document shape plus an explicit contract:
//
//   {
//     "schemaVersion": 2,
//     "logicalCounts": { ... },            // required for non-batch jobs
//     "qubitParams": { ... },              // names resolve via the Registry
//     "qecScheme": { ... },
//     "errorBudget": ...,
//     "constraints": { ... },
//     "distillationUnitSpecifications": [ ... ],
//     "estimateType": "singlePoint" | "frontier",
//     "items": [ ... ] | "sweep": { ... } | "frontier": { ... }
//                                          // mutually exclusive job kinds
//   }
//
// Two things change relative to v1:
//
//  * validation is strict and total — validate_job walks the whole document
//    and collects every problem as a structured diagnostic with a JSON
//    pointer path, including "unknown-key" warnings for typos that v1
//    silently ignored;
//  * the version is explicit — documents without "schemaVersion" (or with
//    schemaVersion 1) are v1 and pass through upgrade_job, a shim that
//    normalizes them to v2 without changing any estimation semantics, so
//    existing jobs keep producing identical results.
#pragma once

#include <optional>

#include "api/registry.hpp"
#include "common/diagnostics.hpp"
#include "core/estimator.hpp"
#include "json/json.hpp"

namespace qre::api {

inline constexpr int kSchemaVersion = 2;

/// The most entries "distillationUnitSpecifications" may list. The T-factory
/// search grows about cubically with the unit count (a 256-entry list takes
/// tens of seconds per design, and a deadline cannot interrupt a search),
/// while the paper and every shipped template set use 2 units.
inline constexpr std::size_t kMaxDistillationUnits = 8;

/// The top-level keys a v2 job document may carry.
const std::vector<std::string_view>& job_keys();

/// The mutually exclusive multi-result job kinds ("items", "sweep",
/// "frontier"): top-level sections that shape the whole job rather than one
/// estimate, so batch items never inherit or carry them. This is the
/// canonical table — the validator, merge_job_item, and the qre_lint
/// invariant checker (tools/qre_lint.cpp) all key off it, so adding a kind
/// here flags every place that must learn about it.
const std::vector<std::string_view>& job_kinds();

/// Upgrades a job document to schema v2: a missing "schemaVersion" (or 1)
/// marks a v1 document and is rewritten to 2; other versions produce an
/// "unsupported-version" error. Returns the normalized document and stores
/// the version the input declared in `source_version`. Takes `job` by
/// value: a caller done with its document moves it in, and nothing is copied.
json::Value upgrade_job(json::Value job, Diagnostics& diags, int* source_version);

/// Strict validation of a (normalized, v2) job document against
/// `registry`. Collects ALL problems on `diags` — errors for structural and
/// range violations, warnings for unknown keys — and never throws. The
/// document-level rules (version, job kinds, items/sweep structure, a
/// missing logicalCounts) live here; every section goes through its
/// module's one parser. Returns the estimation input the document's own
/// sections build (api::input_from_document's value) when the document has
/// no error and carries logicalCounts.
std::optional<EstimationInput> validate_job(const json::Value& job, const Registry& registry,
                                            Diagnostics& diags);

/// Merges a batch item onto its enclosing job document (top-level keys;
/// the batch-shaping keys "items"/"sweep" are never inherited).
json::Value merge_job_item(const json::Value& base, const json::Value& overlay);

/// Dry-run deep pass over "items": validates every merged batch item as a
/// complete job and reports the problems the *item* introduces (sections it
/// overrides, or a logicalCounts missing on both levels) under
/// "/items/<i>/...". validate_job deliberately leaves these to run time —
/// one bad item degrades to an "invalid-item" result entry instead of
/// rejecting the batch — so this extra pass exists for qre_cli --validate,
/// where the user wants everything that will fail, up front. Sweep grids
/// are not expanded here.
void validate_batch_items(const json::Value& job, const Registry& registry,
                          Diagnostics& diags);

}  // namespace qre::api
