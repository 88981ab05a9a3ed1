// Stable public API façade (v2).
//
// The one way into the estimator as a service (paper Sec. IV-A: a JSON job
// in, result groups out). qre_cli, qre_serve, the job queue, examples and
// external embedders all sit on this layer:
//
//   EstimateRequest request = api::EstimateRequest::parse(document);
//   if (!request.ok()) { /* request.diagnostics lists every problem */ }
//   EstimateResponse response = api::run(request);
//   response.to_json();  // {"schemaVersion": 2, "success": ...,
//                        //  "diagnostics": [...], "result": ...}
//
// parse() upgrades v1 documents through the schema shim, validates the
// result against a profile registry (collecting ALL problems as structured
// diagnostics, not throwing on the first), and never raises. run() executes
// a valid request — single estimates, frontiers, batches, and sweeps, the
// latter two on the concurrent engine — and reports failures, including
// per-item failures inside a batch, as structured diagnostics rather than
// opaque error strings.
#pragma once

#include <optional>

#include "api/registry.hpp"
#include "api/schema.hpp"
#include "common/diagnostics.hpp"
#include "core/estimator.hpp"
#include "json/json.hpp"
#include "service/engine.hpp"

namespace qre::api {

/// A parsed, validated job document (normalized to schema v2).
struct EstimateRequest {
  json::Value document;      // normalized v2 document
  int source_version = kSchemaVersion;  // version the input declared
  Diagnostics diagnostics;   // everything the upgrade + validation passes found
  /// The estimation input validation built from the document's own
  /// sections (see validate_job); run() estimates a single job from it.
  std::optional<EstimationInput> input;
  /// The document carried `"collectTimings": true`. The key is stripped
  /// from `document` during parse so cache keys, store records, and result
  /// documents stay byte-identical whether or not timing was requested;
  /// run() appends the "timings" block to the result only when this is set.
  bool collect_timings = false;

  bool ok() const { return !diagnostics.has_errors(); }

  /// Upgrades, normalizes, and validates `job`. Never throws: problems are
  /// collected on the returned request's diagnostics.
  static EstimateRequest parse(const json::Value& job,
                               const Registry& registry = Registry::global());
};

/// The outcome of running a request.
struct EstimateResponse {
  bool success = false;
  json::Value result;        // report | {"frontier": [...]} | {"results": [...], "batchStats": {...}}
  Diagnostics diagnostics;   // request diagnostics plus runtime failures

  /// {"schemaVersion": 2, "success": ..., "diagnostics": [...], "result": ...}.
  json::Value to_json() const;
};

/// Builds the estimator input from a (single, non-batch) job document,
/// resolving qubit/QEC/distillation names through `registry`: the input
/// validate_job builds. With a diagnostics sink, unknown keys are tolerated
/// as warnings; without one they throw, as does any error (ValidationError).
EstimationInput input_from_document(const json::Value& doc, const Registry& registry,
                                    Diagnostics* diags = nullptr);

/// Executes a request. A single estimate runs on `request.input`, which
/// parse() built against its registry; batch items, sweeps and frontiers
/// resolve names through `registry`. Invalid requests return success=false
/// with the validation diagnostics; runtime failures of single estimates become
/// "estimation-failed" diagnostics; batch/sweep items are isolated as
/// structured {"error": {"code", "message"}, "diagnostics": [...]} entries
/// in "results". Never throws. When `options.cache` points at an external
/// (engine-owned) cache, single estimates are memoized through it as well
/// as batch items, so a serving process reuses results across requests.
/// Cache keys cover the job document only, NOT registry contents: mutating
/// `registry` (re-registering a profile a cached result resolved) makes
/// replayed entries stale — clear the external cache on registry mutation,
/// or follow the serving layer's registration-before-serve discipline.
/// A single estimate's result is a raw leaf of compact bytes (see
/// json::Value::raw) written straight from the estimate by report_bytes;
/// the caches, the store and the writers splice these bytes, and readers
/// that need fields materialize().
EstimateResponse run(const EstimateRequest& request,
                     const service::EngineOptions& options = {},
                     const Registry& registry = Registry::global());

}  // namespace qre::api
