// Multi-objective Pareto design-space explorer (frontier layer).
//
// The paper's headline artifacts are frontier questions: which combinations
// of (physical qubits, runtime) — and, across accuracy targets, error
// budget — are achievable for a workload? estimate_frontier() answers with
// a fixed geometric scan of T-factory caps; this module replaces the fixed
// grid with *adaptive bisection refinement*:
//
//  - the unconstrained estimate and the cap-1 estimate bracket the
//    achievable cap range [1, N];
//  - an interval is bisected only while BOTH its qubit gap and its runtime
//    gap exceed the configured tolerances — probes concentrate where the
//    trade-off curve actually bends, and flat stretches cost nothing;
//  - an optional "errorBudgets" axis adds the third objective: each budget
//    level contributes its own cap curve, and the final non-dominated set
//    is computed over (physical qubits, runtime, error budget) jointly.
//
// Every probe is a complete single-estimate job document executed through
// service::run_batch, so the engine's shared EstimateCache (and,
// transitively, the process-level T-factory cache) serves repeated probes:
// a warm engine re-explores a frontier without a single raw estimate, and
// serial and parallel exploration return byte-identical documents (waves
// are deterministic, and run_batch reports results in item order).
//
// The module is deliberately decoupled from the API layer: it executes any
// JobRunner over probe documents it derives from the base job, which keeps
// it unit-testable with synthetic runners (see tests/test_frontier.cpp).
// api::run (api/api.hpp) wires in the real estimator runner.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/diagnostics.hpp"
#include "json/json.hpp"
#include "service/engine.hpp"

namespace qre::frontier {

/// Exploration parameters, parsed from a job's "frontier" section.
struct ExploreOptions {
  /// Hard bound on the number of probe estimates submitted (including the
  /// bracketing endpoints of every budget level).
  std::size_t max_probes = 64;
  /// An interval stops refining once the relative physical-qubit gap
  /// between its endpoints drops to this bound (0 = refine to unit caps).
  double qubit_tolerance = 0.01;
  /// Likewise for the relative runtime gap.
  double runtime_tolerance = 0.01;
  /// Optional third objective axis: total error budgets to explore. Each
  /// value replaces the document's "errorBudget" for its probes. Empty
  /// keeps the document's own budget (a 2-objective exploration).
  std::vector<double> error_budgets;

  /// The "frontier" section parser (contract in common/diagnostics.hpp).
  static std::optional<ExploreOptions> parse(const json::Value& v, std::string_view path,
                                             Diagnostics& diags);

  /// parse() for direct callers (see parse_or_throw).
  static ExploreOptions from_json(const json::Value& v, Diagnostics* diags = nullptr);

  /// The keys parse() understands.
  static const std::vector<std::string_view>& json_keys();
};

/// Deterministic counters for one exploration (safe to embed in result
/// documents: identical jobs yield identical stats, cold or warm cache).
struct ExploreStats {
  std::size_t num_probes = 0;         // probe documents submitted
  std::size_t num_failed_probes = 0;  // probes that returned {"error": ...}
  std::size_t num_waves = 0;          // run_batch invocations
  std::size_t num_points = 0;         // non-dominated points kept
  std::string first_error;            // message of the first failed probe
};

/// Explores the Pareto surface of `job` (a validated, non-batch v2 job
/// document; its "frontier" section configures the exploration and is
/// stripped from probe documents). `runner` executes one complete single
/// job document and returns its report; `engine_options` supply the worker
/// pool and the (ideally engine-shared) estimate cache. When
/// `engine_options.on_result` is set it observes each *probe record* — the
/// same {maxTFactories?, errorBudget?, physicalQubits, runtime, result}
/// object a frontier entry carries — in deterministic probe order, which is
/// the NDJSON streaming hook.
///
/// Returns {"frontier": [...points...], "frontierStats": {...}} with points
/// sorted by (errorBudget, runtime) ascending. Probe failures (an
/// infeasible cap tripping a constraint, say) are isolated per probe; they
/// surface only in the stats. Throws qre::Error when no probe at all
/// succeeded.
json::Value explore(const json::Value& job, const ExploreOptions& options,
                    const service::JobRunner& runner,
                    const service::EngineOptions& engine_options,
                    ExploreStats* stats = nullptr);

}  // namespace qre::frontier
