// The resource estimation pipeline (paper Section III).
//
// estimate() turns pre-layout logical counts plus a hardware specification
// into physical resource estimates, following the paper's five steps:
//
//  A. pre-layout counts are the input (produced by a LogicalCounter, the QIR
//     reader, or given directly as "known logical estimates");
//  B. algorithmic logical estimation — post-layout logical qubits
//     Q = 2*Q_alg + ceil(sqrt(8*Q_alg)) + 1, rotation-synthesis cost per
//     rotation, algorithmic logical depth
//     C = M + R + T + 3*(CCZ + CCiX) + n_T * D_R,
//     and total T states N_T = T + 4*(CCZ + CCiX) + n_T * R;
//  C. error correction — smallest odd code distance with
//     a*(p/p*)^((d+1)/2) <= eps_log / (Q*C);
//  D. T-factory physical estimation — factory design plus the number of
//     parallel copies needed to supply N_T states within the runtime;
//  E. totals — physical qubits, runtime, and rQOPS = Q * logical clock rate.
//
// Constraints (paper Section IV-C4) are honored through a fixed point: a
// logical-depth factor or a T-factory cap stretches the number of logical
// cycles, which feeds back into the required logical error rate and hence
// the code distance. estimate_frontier() exposes the qubit/runtime trade-off
// as a Pareto frontier by sweeping the factory cap.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/error_budget.hpp"
#include "counter/logical_counts.hpp"
#include "profiles/qubit_params.hpp"
#include "qec/qec_scheme.hpp"
#include "tfactory/tfactory.hpp"

namespace qre {

struct Constraints {
  /// Multiplies the algorithmic logical depth (>= 1), slowing the program to
  /// let fewer T factories keep up.
  std::optional<double> logical_depth_factor;
  /// Upper bound on parallel T-factory copies.
  std::optional<std::uint64_t> max_t_factories;
  /// Reject estimates slower than this (ns).
  std::optional<double> max_duration_ns;
  /// Trade runtime for fewer qubits until the total fits this bound.
  std::optional<std::uint64_t> max_physical_qubits;
  /// Override for the number of T states consumed per rotation.
  std::optional<std::uint64_t> num_ts_per_rotation;

  /// The constraints section parser (contract in common/diagnostics.hpp).
  static std::optional<Constraints> parse(const json::Value& v, std::string_view path,
                                          Diagnostics& diags);

  /// parse() for direct callers (see parse_or_throw).
  static Constraints from_json(const json::Value& v, Diagnostics* diags = nullptr);
  json::Value to_json() const;

  /// The keys parse() understands.
  static const std::vector<std::string_view>& json_keys();
};

struct EstimationInput {
  LogicalCounts counts;
  QubitParams qubit = QubitParams::gate_ns_e3();
  QecScheme qec = QecScheme::surface_code_gate_based();
  ErrorBudget budget;
  Constraints constraints;
  std::vector<DistillationUnit> distillation_units = DistillationUnit::default_units();
  TFactoryOptions factory_options;

  /// Convenience: preset qubit model + default QEC scheme for it.
  static EstimationInput for_profile(LogicalCounts counts, std::string_view qubit_name,
                                     double error_budget_total);
};

/// Full estimation result; the report module renders the output groups of
/// paper Section IV-D from this.
struct ResourceEstimate {
  ResourceEstimate() = default;
  /// A result echoing `qubit_params` and `qec_scheme` (groups 7/8), built
  /// without first copying the default scheme.
  ResourceEstimate(QubitParams qubit_params, QecScheme qec_scheme)
      : qubit(std::move(qubit_params)), qec(std::move(qec_scheme)) {}

  // Group 1: physical resource estimates.
  std::uint64_t total_physical_qubits = 0;
  double runtime_ns = 0.0;
  double rqops = 0.0;

  // Group 2: resource estimate breakdown.
  std::uint64_t algorithmic_logical_qubits = 0;  // Q, after layout
  std::uint64_t algorithmic_logical_depth = 0;   // C before constraint scaling
  std::uint64_t logical_depth = 0;               // cycles actually scheduled
  double logical_depth_factor = 1.0;
  std::uint64_t num_tstates = 0;
  std::uint64_t num_t_factories = 0;
  std::uint64_t num_t_factory_invocations = 0;   // across all copies
  std::uint64_t num_invocations_per_factory = 0;
  std::uint64_t physical_qubits_for_algorithm = 0;
  std::uint64_t physical_qubits_for_tfactories = 0;
  double required_logical_qubit_error_rate = 0.0;
  double required_tstate_error_rate = 0.0;
  std::uint64_t num_ts_per_rotation = 0;
  double clock_frequency_hz = 0.0;
  /// Q * logical_depth; the "logical quantum operations" count the paper
  /// quotes for the 2048-bit windowed multiplier.
  double logical_operations = 0.0;

  // Group 3: logical qubit parameters.
  LogicalQubit logical_qubit;

  // Group 4: T factory parameters: the shared FactoryCache design, or null
  // for a program without T states.
  std::shared_ptr<const TFactory> tfactory;

  // Group 5: pre-layout logical resources.
  LogicalCounts pre_layout;

  // Group 6: assumed error budget.
  ErrorBudgetPartition budget;
  double achieved_logical_error = 0.0;
  double achieved_tstate_error = 0.0;

  // Groups 7/8 echo the inputs.
  QubitParams qubit;
  QecScheme qec = QecScheme::surface_code_gate_based();
};

/// Runs the full pipeline; throws qre::Error with an explanatory message for
/// infeasible inputs (error rates at threshold, unreachable T-state quality,
/// violated max_duration/max_physical_qubits, ...).
ResourceEstimate estimate(const EstimationInput& input);

/// The cap-probe entry point: estimate() with the T-factory copy cap
/// overridden to `max_t_factories` (every other constraint preserved).
/// This is the primitive under the maxPhysicalQubits search, the
/// estimate_frontier cap scan, and the adaptive frontier explorer
/// (src/frontier/) — capped probes all funnel through here.
ResourceEstimate estimate_with_cap(const EstimationInput& input,
                                   std::uint64_t max_t_factories);

/// estimate_with_cap with infeasibility mapped to nullopt: a probe that
/// trips a constraint (a low cap's stretched schedule exceeding
/// maxDuration, say) tells a search "this cap does not work", not "the job
/// is invalid".
std::optional<ResourceEstimate> try_estimate_with_cap(const EstimationInput& input,
                                                      std::uint64_t max_t_factories);

/// Qubit/runtime Pareto frontier obtained by capping the number of T-factory
/// copies (at most `max_points` points, fastest first). Programs without
/// T states yield the single base estimate.
std::vector<ResourceEstimate> estimate_frontier(const EstimationInput& input,
                                                std::size_t max_points = 16);

}  // namespace qre
