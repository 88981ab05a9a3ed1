#include "core/estimator.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/math.hpp"
#include "layout/layout.hpp"
#include "tfactory/factory_cache.hpp"

namespace qre {

const std::vector<std::string_view>& Constraints::json_keys() {
  static const std::vector<std::string_view> kKeys = {
      "logicalDepthFactor", "maxTFactories", "maxDuration", "maxPhysicalQubits",
      "numTsPerRotation",
  };
  return kKeys;
}

std::optional<Constraints> Constraints::parse(const json::Value& v, std::string_view path,
                                              Diagnostics& diags) {
  if (!v.is_object()) {
    diags.error("type-mismatch", std::string(path), "constraints must be an object");
    return std::nullopt;
  }
  const std::size_t errors = diags.num_errors();
  check_known_keys(v, json_keys(), path, diags);
  Constraints c;
  if (const json::Value* f = expect(v, "logicalDepthFactor", FieldKind::kNumber, path, diags)) {
    c.logical_depth_factor = f->as_double();
    if (*c.logical_depth_factor < 1.0) {
      diags.error("value-range", pointer_join(path, "logicalDepthFactor"),
                  "'logicalDepthFactor' must be >= 1");
    }
  }
  for (const auto& [key, member] : {std::pair{"maxTFactories", &Constraints::max_t_factories},
                                    std::pair{"maxPhysicalQubits",
                                              &Constraints::max_physical_qubits}}) {
    c.*member = expect_count(v, key, path, diags);
    if (c.*member == 0u) {
      diags.error("value-range", pointer_join(path, key),
                  "'" + std::string(key) + "' must be >= 1");
    }
  }
  // numTsPerRotation accepts 0 ("rotations are free").
  c.num_ts_per_rotation = expect_count(v, "numTsPerRotation", path, diags);
  if (const json::Value* f = expect(v, "maxDuration", FieldKind::kNumber, path, diags)) {
    if (check_positive_number(*f, "maxDuration", path, diags)) c.max_duration_ns = f->as_double();
  }
  if (diags.num_errors() != errors) return std::nullopt;
  return c;
}

Constraints Constraints::from_json(const json::Value& v, Diagnostics* diags) {
  return parse_or_throw(diags, [&](Diagnostics& found) { return parse(v, "/constraints", found); });
}

json::Value Constraints::to_json() const {
  json::Object o;
  if (logical_depth_factor) o.emplace_back("logicalDepthFactor", *logical_depth_factor);
  if (max_t_factories) o.emplace_back("maxTFactories", *max_t_factories);
  if (max_duration_ns) o.emplace_back("maxDuration", *max_duration_ns);
  if (max_physical_qubits) o.emplace_back("maxPhysicalQubits", *max_physical_qubits);
  if (num_ts_per_rotation) o.emplace_back("numTsPerRotation", *num_ts_per_rotation);
  return json::Value(std::move(o));
}

EstimationInput EstimationInput::for_profile(LogicalCounts counts, std::string_view qubit_name,
                                             double error_budget_total) {
  EstimationInput input;
  input.counts = std::move(counts);
  input.qubit = QubitParams::from_name(qubit_name);
  input.qec = QecScheme::default_for(input.qubit.instruction_set);
  input.budget = ErrorBudget::from_total(error_budget_total);
  return input;
}

namespace {

/// T states needed to synthesize one arbitrary rotation within per-rotation
/// error eps_syn / R (Beverland et al., Eq. for Ross-Selinger style
/// synthesis): ceil(0.53 * log2(R / eps_syn) + 5.3).
std::uint64_t ts_per_rotation(std::uint64_t num_rotations, double synthesis_budget) {
  if (num_rotations == 0) return 0;
  double x = std::log2(static_cast<double>(num_rotations) / synthesis_budget);
  return ceil_to_u64(0.53 * x + 5.3);
}

}  // namespace

ResourceEstimate estimate(const EstimationInput& input) {
  const LogicalCounts& counts = input.counts;
  QRE_REQUIRE(counts.num_qubits > 0, "estimation requires at least one logical qubit");
  input.qubit.validate();

  ResourceEstimate out(input.qubit, input.qec);
  out.pre_layout = counts;

  // --- Step B: algorithmic logical estimation ----------------------------.
  const bool has_rotations = counts.rotation_count > 0;
  out.budget = input.budget.resolve(/*has_tstates=*/counts.has_non_clifford(), has_rotations);

  out.num_ts_per_rotation = input.constraints.num_ts_per_rotation.has_value()
                                ? *input.constraints.num_ts_per_rotation
                                : ts_per_rotation(counts.rotation_count, out.budget.rotations);

  out.algorithmic_logical_qubits = post_layout_logical_qubits(counts.num_qubits);
  const std::uint64_t q = out.algorithmic_logical_qubits;

  std::uint64_t depth0 = counts.measurement_count + counts.rotation_count + counts.t_count +
                         3 * (counts.ccz_count + counts.ccix_count) +
                         out.num_ts_per_rotation * counts.rotation_depth;
  depth0 = std::max<std::uint64_t>(depth0, 1);
  out.algorithmic_logical_depth = depth0;

  out.num_tstates = counts.t_count + 4 * (counts.ccz_count + counts.ccix_count) +
                    out.num_ts_per_rotation * counts.rotation_count;

  // --- Steps C/D with the constraint fixed point --------------------------.
  const double physical_error = input.qubit.clifford_error_rate();
  double depth_factor = input.constraints.logical_depth_factor.value_or(1.0);
  QRE_REQUIRE(depth_factor >= 1.0, "logicalDepthFactor must be >= 1");

  std::shared_ptr<const TFactory> factory;
  if (out.num_tstates > 0) {
    out.required_tstate_error_rate =
        out.budget.tstates / static_cast<double>(out.num_tstates);
    factory = FactoryCache::global().design_shared(out.required_tstate_error_rate, input.qubit,
                                                   input.qec, input.distillation_units,
                                                   input.factory_options);
    if (factory == nullptr) {
      std::ostringstream os;
      os << "no T factory configuration reaches the required T-state error rate "
         << out.required_tstate_error_rate << " from physical T error "
         << input.qubit.t_gate_error_rate << " within " << input.factory_options.max_rounds
         << " distillation rounds";
      throw_error(os.str());
    }
  }

  std::uint64_t cycles = 0;
  std::uint64_t copies = 0;
  std::uint64_t invocations_needed = 0;
  std::uint64_t invocations_per_copy = 0;
  LogicalQubit patch;
  double runtime_ns = 0.0;

  constexpr int kMaxIterations = 64;
  int iteration = 0;
  for (;; ++iteration) {
    QRE_REQUIRE(iteration < kMaxIterations,
                "estimation did not converge while balancing T factories against runtime");

    cycles = ceil_to_u64(static_cast<double>(depth0) * depth_factor);
    double required_logical_error =
        out.budget.logical / (static_cast<double>(q) * static_cast<double>(cycles));
    std::uint64_t distance = input.qec.code_distance_for(physical_error, required_logical_error);
    patch = LogicalQubit::create(input.qubit, input.qec, distance);
    runtime_ns = static_cast<double>(cycles) * patch.cycle_time_ns;
    out.required_logical_qubit_error_rate = required_logical_error;

    if (factory == nullptr || factory->no_distillation()) {
      copies = 0;
      break;
    }

    invocations_needed =
        ceil_to_u64(static_cast<double>(out.num_tstates) / factory->tstates_per_invocation);

    if (factory->duration_ns > runtime_ns) {
      // The program finishes before a single factory invocation completes;
      // stretch the schedule so at least one invocation fits.
      depth_factor = factory->duration_ns / (static_cast<double>(depth0) * patch.cycle_time_ns);
      depth_factor = std::max(depth_factor * (1.0 + 1e-12), 1.0);
      continue;
    }

    invocations_per_copy =
        static_cast<std::uint64_t>(std::floor(runtime_ns / factory->duration_ns));
    copies = ceil_div(invocations_needed, invocations_per_copy);

    if (input.constraints.max_t_factories.has_value() &&
        copies > *input.constraints.max_t_factories) {
      copies = *input.constraints.max_t_factories;
      double needed_runtime =
          static_cast<double>(ceil_div(invocations_needed, copies)) * factory->duration_ns;
      if (needed_runtime > runtime_ns) {
        depth_factor =
            needed_runtime / (static_cast<double>(depth0) * patch.cycle_time_ns);
        depth_factor = std::max(depth_factor * (1.0 + 1e-12), 1.0);
        continue;
      }
    }
    break;
  }

  // --- Step E: totals -----------------------------------------------------.
  out.logical_depth = cycles;
  out.logical_depth_factor = static_cast<double>(cycles) / static_cast<double>(depth0);
  out.logical_qubit = patch;
  out.runtime_ns = runtime_ns;
  out.clock_frequency_hz = patch.clock_frequency_hz();
  out.rqops = static_cast<double>(q) * out.clock_frequency_hz;
  out.logical_operations = static_cast<double>(q) * static_cast<double>(cycles);

  out.physical_qubits_for_algorithm = q * patch.physical_qubits;
  out.num_t_factories = copies;
  if (factory != nullptr && !factory->no_distillation() && copies > 0) {
    out.tfactory = factory;
    out.physical_qubits_for_tfactories = copies * factory->physical_qubits;
    out.num_t_factory_invocations = invocations_needed;
    out.num_invocations_per_factory = ceil_div(invocations_needed, copies);
    out.achieved_tstate_error =
        static_cast<double>(out.num_tstates) * factory->output_error_rate;
  } else if (factory != nullptr) {
    out.tfactory = factory;  // raw physical T states suffice
    out.achieved_tstate_error =
        static_cast<double>(out.num_tstates) * factory->output_error_rate;
  }
  out.total_physical_qubits =
      out.physical_qubits_for_algorithm + out.physical_qubits_for_tfactories;
  out.achieved_logical_error = static_cast<double>(q) * static_cast<double>(cycles) *
                               patch.logical_error_rate;

  if (input.constraints.max_duration_ns.has_value() &&
      out.runtime_ns > *input.constraints.max_duration_ns) {
    std::ostringstream os;
    os << "estimated runtime " << out.runtime_ns << " ns exceeds maxDuration "
       << *input.constraints.max_duration_ns << " ns";
    throw_error(os.str());
  }

  if (input.constraints.max_physical_qubits.has_value() &&
      out.total_physical_qubits > *input.constraints.max_physical_qubits) {
    // Trade runtime for qubits by capping factory copies: lowering the cap
    // sheds factory qubits linearly while the stretched schedule raises the
    // algorithm's footprint only through quantized code-distance bumps, so
    // the total is monotone in the cap for all practical inputs and the
    // largest feasible cap is found by binary search — O(log copies)
    // estimates instead of a linear scan. (A distance bump can in principle
    // outweigh one cap step and dent the monotonicity; the search may then
    // settle on a smaller — still limit-respecting — cap, trading a bit of
    // runtime. Feasibility is never lost: when the binary search finds no
    // fit at all, the exhaustive downward scan runs before giving up.)
    std::uint64_t limit = *input.constraints.max_physical_qubits;
    // Probes drop the qubit bound (it is what the search enforces) and run
    // through the shared cap-probe entry point; infeasible caps come back
    // as nullopt ("this cap is too low", not "the job is invalid").
    EstimationInput relaxed = input;
    relaxed.constraints.max_physical_qubits.reset();
    auto probe = [&relaxed](std::uint64_t target) {
      return try_estimate_with_cap(relaxed, target);
    };
    auto fits = [limit](const std::optional<ResourceEstimate>& candidate) {
      return candidate.has_value() && candidate->total_physical_qubits <= limit;
    };
    auto within_duration = [&input](const ResourceEstimate& candidate) {
      return !input.constraints.max_duration_ns.has_value() ||
             candidate.runtime_ns <= *input.constraints.max_duration_ns;
    };
    std::optional<ResourceEstimate> best_fit;
    std::uint64_t lo = 1;
    std::uint64_t hi = copies >= 2 ? copies - 1 : 0;
    while (lo <= hi) {
      std::uint64_t mid = lo + (hi - lo) / 2;
      std::optional<ResourceEstimate> candidate = probe(mid);
      if (fits(candidate)) {
        best_fit = std::move(candidate);
        lo = mid + 1;  // a larger cap (faster schedule) may still fit
      } else if (!candidate.has_value()) {
        lo = mid + 1;  // cap too low to finish in time; only larger can work
      } else {
        hi = mid - 1;  // mid >= lo >= 1, so this cannot underflow
      }
    }
    if (!best_fit.has_value() || !within_duration(*best_fit)) {
      // Fall back to the exhaustive downward scan: if the feasible caps
      // form a band rather than a prefix (non-monotone corner), the binary
      // search can overlook them or land on a cap whose schedule is too
      // slow, and a wrong "infeasible" here would reject a valid job.
      // Factory designs are cached, so each probe is cheap.
      for (std::uint64_t target = copies; target-- > 1;) {
        std::optional<ResourceEstimate> candidate = probe(target);
        if (fits(candidate)) {
          best_fit = std::move(candidate);
          break;
        }
      }
    }
    if (best_fit.has_value() && within_duration(*best_fit)) {
      return *std::move(best_fit);
    }
    // Either no cap fits, or the qubit bound is only reachable beyond the
    // duration bound.
    std::ostringstream os;
    os << "estimate needs " << out.total_physical_qubits
       << " physical qubits even after slowing the schedule; maxPhysicalQubits " << limit
       << " is infeasible";
    throw_error(os.str());
  }

  return out;
}

ResourceEstimate estimate_with_cap(const EstimationInput& input,
                                   std::uint64_t max_t_factories) {
  QRE_REQUIRE(max_t_factories >= 1, "a T-factory cap probe requires a cap >= 1");
  EstimationInput capped = input;
  capped.constraints.max_t_factories = max_t_factories;
  return estimate(capped);
}

std::optional<ResourceEstimate> try_estimate_with_cap(const EstimationInput& input,
                                                      std::uint64_t max_t_factories) {
  try {
    return estimate_with_cap(input, max_t_factories);
  } catch (const Error&) {
    return std::nullopt;
  }
}

std::vector<ResourceEstimate> estimate_frontier(const EstimationInput& input,
                                                std::size_t max_points) {
  QRE_REQUIRE(max_points >= 1, "estimate_frontier requires max_points >= 1");
  ResourceEstimate base = estimate(input);
  std::vector<ResourceEstimate> points;
  points.push_back(base);
  if (base.num_t_factories <= 1) return points;

  // Geometric sweep of factory caps between 1 and the unconstrained count.
  // Cap targets are deduplicated globally (the geometric values are
  // monotone, so comparing against the last kept target suffices) and
  // against the base point: a cap at or above the unconstrained factory
  // count cannot bind, so estimating it would just re-derive `base`.
  std::vector<std::uint64_t> targets;
  double ratio = std::pow(static_cast<double>(base.num_t_factories),
                          1.0 / static_cast<double>(max_points - 1));
  double value = 1.0;
  for (std::size_t i = 0; i + 1 < max_points; ++i) {
    auto t = static_cast<std::uint64_t>(std::llround(value));
    value *= ratio;
    if (t < 1) t = 1;
    if (t >= base.num_t_factories) continue;
    if (!targets.empty() && targets.back() == t) continue;
    targets.push_back(t);
  }

  // Every capped point shares the base point's factory design (the cap
  // changes the schedule, not the required T-state quality), so the
  // process-level FactoryCache serves all of them from the base design.
  for (std::uint64_t target : targets) {
    points.push_back(estimate_with_cap(input, target));
  }

  // Pareto filter on (total qubits, runtime), fastest first.
  std::sort(points.begin(), points.end(),
            [](const ResourceEstimate& a, const ResourceEstimate& b) {
              if (a.runtime_ns != b.runtime_ns) return a.runtime_ns < b.runtime_ns;
              return a.total_physical_qubits < b.total_physical_qubits;
            });
  std::vector<ResourceEstimate> frontier;
  std::uint64_t best_qubits = std::numeric_limits<std::uint64_t>::max();
  for (ResourceEstimate& p : points) {
    if (p.total_physical_qubits < best_qubits) {
      best_qubits = p.total_physical_qubits;
      frontier.push_back(std::move(p));
    }
  }
  return frontier;
}

}  // namespace qre
