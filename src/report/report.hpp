// Result reporting (paper Section IV-D).
//
// Renders a ResourceEstimate into the tool's eight output groups:
//   1. physical resource estimates (runtime, rQOPS, physical qubits),
//   2. resource estimates breakdown,
//   3. logical qubit parameters,
//   4. T factory parameters,
//   5. pre-layout logical resources,
//   6. assumed error budget,
//   7. physical qubit parameters,
//   8. assumptions.
// Output is available as JSON (the service response shape) and as a
// human-readable text report; space_diagram() summarizes the physical qubit
// split between algorithm and T factories.
//
// The JSON comes in two forms with the same bytes. report_bytes() is what
// every runner serves: it appends the compact document straight into one
// string, with no tree in between. It splices the groups a result shares
// with others: the echo of the qubit model, QEC scheme and assumptions from
// a per-thread memo of 8 entries, and the "tfactory" group from the bytes
// kept with the shared design (TFactory::keep_json). report_to_json()
// builds the tree; it is the independent reference the writer is tested
// against, and the form for callers that want to read fields.
#pragma once

#include <string>

#include "core/estimator.hpp"
#include "json/json.hpp"

namespace qre {

json::Value report_to_json(const ResourceEstimate& estimate);
/// Exactly report_to_json(estimate).dump(), written without the tree.
std::string report_bytes(const ResourceEstimate& estimate);
std::string report_to_text(const ResourceEstimate& estimate);
std::string space_diagram(const ResourceEstimate& estimate);

/// The fixed list of modeling assumptions (output group 8).
const std::vector<std::string>& estimator_assumptions();

}  // namespace qre
