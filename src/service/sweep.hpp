// Declarative parameter-grid sweeps (service layer).
//
// The paper's batched studies — the Figure 3 multiplication sweep, the
// Figure 4 hardware-profile comparison, the frontier ablations — are
// cartesian grids over a handful of job fields. Instead of hand-writing an
// "items" array with one entry per grid point, a job may carry a "sweep"
// object mapping field paths to value axes:
//
//   {
//     "logicalCounts": { ... },                       // shared base fields
//     "errorBudget": 0.001,
//     "sweep": {
//       "qubitParams": [ {"name": "qubit_gate_ns_e3"},
//                        {"name": "qubit_maj_ns_e4"} ],   // explicit values
//       "errorBudget": {"start": 1e-4, "stop": 1e-2,
//                        "steps": 5, "scale": "log"},     // ranged axis
//       "constraints.maxTFactories": [1, 2, 4]            // dotted path
//     }
//   }
//
// Axis forms:
//  - a JSON array: the listed values, in order;
//  - a range object {start, stop, steps, scale}: `steps` evenly spaced
//    values from start to stop inclusive, on a "linear" (default) or "log"
//    scale; values that land on integers are emitted as JSON integers.
//
// Keys may be dotted paths ("constraints.maxTFactories"): the expansion
// deep-sets the leaf, preserving sibling fields of the base document's
// nested objects — which a shallow item override would clobber.
//
// Expansion order is row-major over the axes in declaration order: the
// first axis varies slowest, the last fastest. Every expanded item is a
// complete job document (base fields inherited, "sweep" removed), ready
// for the engine.
#pragma once

#include <string>
#include <vector>

#include "json/json.hpp"

namespace qre::service {

/// One sweep dimension: a field path and its resolved candidate values.
struct SweepAxis {
  std::string path;                 // field name, possibly dotted
  std::vector<json::Value> values;  // at least one value
};

/// Parses a "sweep" object into axes, in declaration order. Ranged axes are
/// resolved to explicit value lists. Throws qre::Error on malformed axes
/// (empty arrays, non-positive steps, log scale across zero, ...).
std::vector<SweepAxis> sweep_axes(const json::Value& sweep);

/// Deep-sets `value` at the (possibly dotted) field path inside `root`,
/// creating intermediate objects and preserving their sibling fields.
/// Throws qre::Error when a dotted path would descend through an existing
/// non-object field — silently clobbering a scalar would hide a mistyped
/// axis path.
void set_path(json::Value& root, const std::string& path, json::Value value);

/// The largest grid a sweep may describe.
constexpr std::size_t kMaxSweepItems = 1'000'000;

/// The number of grid items `axes` span. Throws qre::Error, before
/// anything is allocated, when the grid exceeds `max_items`.
std::size_t sweep_grid_size(const std::vector<SweepAxis>& axes,
                            std::size_t max_items = kMaxSweepItems);

/// The document every grid item starts from: `job` without "sweep" and
/// "items" (a job cannot carry both).
json::Value sweep_base(const json::Value& job);

/// Expands job["sweep"] into the cartesian grid of complete job documents.
/// Each item inherits every non-swept base field; "sweep" and "items" never
/// appear in the output. Throws qre::Error if "sweep" is missing or the
/// grid exceeds `max_items`.
std::vector<json::Value> expand_sweep(const json::Value& job,
                                      std::size_t max_items = kMaxSweepItems);

}  // namespace qre::service
