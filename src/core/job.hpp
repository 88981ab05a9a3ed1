// Service-style job interface (paper Section IV-A).
//
// Azure Quantum exposes the estimator as a cloud target: a job carries the
// algorithm specification and estimation parameters as JSON and returns the
// result groups as JSON. This module is that interface: one self-describing
// JSON document in, one out, covering single estimates, frontier estimates,
// and batched parameter sweeps.
//
// Job schema (v2; see docs/schema_v2.md and src/api/):
//   {
//     "schemaVersion": 2,                                         // 1/absent -> upgrade shim
//     "logicalCounts": { "numQubits": ..., "tCount": ..., ... },  // required
//     "qubitParams":  { "name": "qubit_gate_ns_e3", ...overrides },
//     "qecScheme":    { "name": "surface_code", ...overrides },
//     "errorBudget":  1e-3 | { "total": ... } | { "logical": ..., ... },
//     "constraints":  { "maxTFactories": ..., "logicalDepthFactor": ..., ... },
//     "distillationUnitSpecifications": [ { ...unit... }, ... ],
//     "estimateType": "singlePoint" | "frontier"
//   }
//
// These entry points are thin wrappers over the api/ façade: documents are
// validated up front (all problems collected as structured diagnostics —
// run_job throws qre::ValidationError carrying them), and named profiles
// resolve through api::Registry::global().
//
// Batched jobs wrap per-item overrides:
//   { "items": [ {..job..}, {..job..} ] }  ->  { "results": [ ... ] }
// Each item inherits the top-level fields and overrides whichever it sets,
// which is how the paper's Figure 4 style sweeps are expressed.
//
// Alternatively a job may declare a parameter grid (see service/sweep.hpp):
//   { "sweep": { "<fieldPath>": [v0, v1, ...] | {start, stop, steps, scale} } }
// The grid expands to the cartesian product of its axes and runs like a
// batch. "sweep" and "items" are mutually exclusive.
//
// A third job kind, { "frontier": { maxProbes, qubitTolerance,
// runtimeTolerance, errorBudgets } }, runs the adaptive Pareto explorer
// (src/frontier/, api/frontier.hpp) and yields {"frontier": [...],
// "frontierStats": {...}}. It is mutually exclusive with "items"/"sweep"
// and with the legacy fixed-grid estimateType "frontier".
//
// Batches and sweeps execute on the concurrent engine (service/engine.hpp):
// a worker pool of configurable width with per-item memoization, so
// duplicated grid points are estimated once. Output order always matches
// item order, and the result document carries a "batchStats" summary next
// to "results".
#pragma once

#include "core/estimator.hpp"
#include "json/json.hpp"

namespace qre {

namespace service {
struct EngineOptions;  // service/engine.hpp; core stays header-independent of it
}  // namespace service

/// Builds an EstimationInput from a job document (without "items").
EstimationInput estimation_input_from_json(const json::Value& job);

/// Runs one non-batch job document: the report object (estimateType
/// "singlePoint", the default) or {"frontier": [...]} (estimateType
/// "frontier"), as a raw leaf of compact bytes (json::Value::raw): dump()
/// and pretty() print it, readers that need fields call materialize().
/// Rejects documents carrying "items", "sweep" or "frontier".
json::Value run_single_job(const json::Value& job);

/// Runs a job document and returns the result document. Single jobs yield
/// run_single_job's output; batched and sweep jobs yield
/// {"results": [...], "batchStats": {...}} in item order. Per-item failures
/// are reported as structured {"error": {"code", "message"}} entries
/// instead of aborting the batch.
json::Value run_job(const json::Value& job);

/// run_job with explicit engine options (worker-pool width, caching,
/// streaming sink) for batched and sweep jobs.
json::Value run_job(const json::Value& job, const service::EngineOptions& options);

/// Reads a job file and runs it.
json::Value run_job_file(const std::string& path);

}  // namespace qre
