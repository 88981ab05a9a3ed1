// End-to-end tests of the estimation pipeline (paper Section III), including
// a fully hand-computed reference case, budget-satisfaction properties
// across profiles and workloads, constraint handling, and frontier Pareto
// invariants.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "arith/qft.hpp"
#include "circuit/builder.hpp"
#include "common/error.hpp"
#include "core/estimator.hpp"
#include "counter/logical_counter.hpp"
#include "layout/layout.hpp"
#include "tfactory/factory_cache.hpp"

namespace qre {
namespace {

LogicalCounts t_workload() {
  LogicalCounts c;
  c.num_qubits = 100;
  c.t_count = 1'000'000;
  c.measurement_count = 100'000;
  return c;
}

TEST(Estimator, DefaultInputMatchesFreshlyBuiltDefaults) {
  // EstimationInput{} starts from the once-per-process built-in scheme and
  // distillation units; they must equal freshly built ones.
  const EstimationInput input;
  const QecScheme fresh_qec = QecScheme::customize(
      QecScheme::surface_code_gate_based(),
      json::parse(R"({"logicalCycleTime":
                        "(4 * twoQubitGateTime + 2 * oneQubitMeasurementTime) * codeDistance",
                      "physicalQubitsPerLogicalQubit": "2 * codeDistance * codeDistance"})"));
  EXPECT_EQ(input.qec.to_json().dump(), fresh_qec.to_json().dump());
  const DistillationUnit fresh_units[] = {DistillationUnit::rm_prep_15_to_1(),
                                          DistillationUnit::space_efficient_15_to_1()};
  ASSERT_EQ(input.distillation_units.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(input.distillation_units[i].name, fresh_units[i].name);
    EXPECT_EQ(input.distillation_units[i].to_json().dump(), fresh_units[i].to_json().dump());
  }
  EXPECT_EQ(QecScheme::default_for(InstructionSet::kMajorana).to_json().dump(),
            QecScheme::floquet_code().to_json().dump());
}

TEST(ErrorBudgetTest, DefaultPartitions) {
  ErrorBudget b = ErrorBudget::from_total(9e-4);
  ErrorBudgetPartition rot = b.resolve(true, true);
  EXPECT_DOUBLE_EQ(rot.logical, 3e-4);
  EXPECT_DOUBLE_EQ(rot.tstates, 3e-4);
  EXPECT_DOUBLE_EQ(rot.rotations, 3e-4);
  ErrorBudgetPartition no_rot = b.resolve(true, false);
  EXPECT_DOUBLE_EQ(no_rot.logical, 4.5e-4);
  EXPECT_DOUBLE_EQ(no_rot.rotations, 0.0);
  ErrorBudgetPartition clifford_only = b.resolve(false, false);
  EXPECT_DOUBLE_EQ(clifford_only.logical, 9e-4);
}

TEST(ErrorBudgetTest, ExplicitPartsAndJson) {
  ErrorBudget b = ErrorBudget::from_parts(1e-4, 2e-4, 3e-4);
  EXPECT_DOUBLE_EQ(b.total(), 6e-4);
  ErrorBudgetPartition p = b.resolve(true, true);
  EXPECT_DOUBLE_EQ(p.tstates, 2e-4);
  ErrorBudget from_num = ErrorBudget::from_json(json::parse("0.001"));
  EXPECT_DOUBLE_EQ(from_num.total(), 1e-3);
  ErrorBudget from_obj =
      ErrorBudget::from_json(json::parse(R"({"logical":1e-5,"tstates":1e-5,"rotations":0})"));
  EXPECT_DOUBLE_EQ(from_obj.total(), 2e-5);
  EXPECT_THROW(from_obj.resolve(true, true), Error);  // rotations present, budget zero
  EXPECT_THROW(ErrorBudget::from_total(0.0), Error);
  EXPECT_THROW(ErrorBudget::from_total(1.5), Error);
}

TEST(Estimator, HandComputedReferenceCase) {
  // 100 algorithmic qubits, 1e6 T gates, 1e5 measurements on gate_ns_e3
  // with the surface code and a 1e-3 budget (no rotations -> 1/2, 1/2, 0).
  EstimationInput input = EstimationInput::for_profile(t_workload(), "qubit_gate_ns_e3", 1e-3);
  ResourceEstimate e = estimate(input);

  // Layout: Q = 2*100 + ceil(sqrt(800)) + 1 = 230.
  EXPECT_EQ(e.algorithmic_logical_qubits, 230u);
  // Depth: C = M + T = 1.1e6 (no CCZ/CCiX/rotations).
  EXPECT_EQ(e.algorithmic_logical_depth, 1'100'000u);
  EXPECT_EQ(e.num_tstates, 1'000'000u);
  EXPECT_EQ(e.num_ts_per_rotation, 0u);

  // Required logical error: 5e-4 / (230 * 1.1e6) = 1.976e-12 -> d = 21.
  EXPECT_NEAR(e.required_logical_qubit_error_rate, 5e-4 / (230.0 * 1.1e6), 1e-18);
  EXPECT_EQ(e.logical_qubit.code_distance, 21u);
  EXPECT_EQ(e.logical_qubit.physical_qubits, 2u * 21 * 21);
  // Cycle: (4*50 + 2*100) * 21 = 8400 ns.
  EXPECT_DOUBLE_EQ(e.logical_qubit.cycle_time_ns, 8400.0);

  EXPECT_EQ(e.physical_qubits_for_algorithm, 230u * 882);
  // No factory cap: runtime = C * cycle.
  EXPECT_DOUBLE_EQ(e.runtime_ns, 1.1e6 * 8400.0);
  EXPECT_NEAR(e.rqops, 230.0 * (1e9 / 8400.0), 1e-3);
  EXPECT_NEAR(e.logical_operations, 230.0 * 1.1e6, 1.0);

  // T factory: required per-T error 5e-4 / 1e6 = 5e-10.
  EXPECT_NEAR(e.required_tstate_error_rate, 5e-10, 1e-20);
  ASSERT_NE(e.tfactory, nullptr);
  EXPECT_FALSE(e.tfactory->no_distillation());
  EXPECT_LE(e.tfactory->output_error_rate, 5e-10);
  EXPECT_GE(e.num_t_factories, 1u);
  EXPECT_EQ(e.total_physical_qubits,
            e.physical_qubits_for_algorithm + e.physical_qubits_for_tfactories);
  EXPECT_EQ(e.physical_qubits_for_tfactories,
            e.num_t_factories * e.tfactory->physical_qubits);

  // Budget respected.
  EXPECT_LE(e.achieved_logical_error, 5e-4 * (1 + 1e-9));
  EXPECT_LE(e.achieved_tstate_error, 5e-4 * (1 + 1e-9));
}

TEST(Estimator, FactorySupplyCoversDemand) {
  EstimationInput input = EstimationInput::for_profile(t_workload(), "qubit_gate_ns_e3", 1e-3);
  ResourceEstimate e = estimate(input);
  ASSERT_NE(e.tfactory, nullptr);
  // Total invocations across all copies deliver enough T states within the
  // runtime.
  double delivered = static_cast<double>(e.num_t_factory_invocations) *
                     e.tfactory->tstates_per_invocation;
  EXPECT_GE(delivered + 1.0, static_cast<double>(e.num_tstates));
  double per_copy_time = static_cast<double>(e.num_invocations_per_factory) *
                         e.tfactory->duration_ns;
  EXPECT_LE(per_copy_time, e.runtime_ns * (1 + 1e-9));
}

struct SweepCase {
  const char* profile;
  double budget;
};

class BudgetSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(BudgetSweep, InvariantsHoldAcrossProfilesAndBudgets) {
  auto [profile, budget] = GetParam();
  LogicalCounts counts;
  counts.num_qubits = 50;
  counts.t_count = 2'000;
  counts.ccz_count = 10'000;
  counts.ccix_count = 5'000;
  counts.measurement_count = 20'000;
  counts.rotation_count = 300;
  counts.rotation_depth = 120;
  EstimationInput input = EstimationInput::for_profile(counts, profile, budget);
  ResourceEstimate e = estimate(input);

  EXPECT_EQ(e.logical_qubit.code_distance % 2, 1u);
  EXPECT_GT(e.total_physical_qubits, 0u);
  EXPECT_GT(e.runtime_ns, 0.0);
  EXPECT_GT(e.rqops, 0.0);
  EXPECT_EQ(e.algorithmic_logical_qubits, post_layout_logical_qubits(50));

  // Depth formula: C = M + R + T + 3*(CCZ+CCiX) + nT * D_R.
  std::uint64_t expected_depth = 20'000 + 300 + 2'000 + 3 * 15'000 +
                                 e.num_ts_per_rotation * 120;
  EXPECT_EQ(e.algorithmic_logical_depth, expected_depth);
  // T states: T + 4*(CCZ+CCiX) + nT * R.
  EXPECT_EQ(e.num_tstates, 2'000 + 4 * 15'000 + e.num_ts_per_rotation * 300);
  // Rotation synthesis cost: ceil(0.53*log2(R/eps_syn) + 5.3).
  double eps_syn = budget / 3.0;
  auto expected_nt = static_cast<std::uint64_t>(
      std::ceil(0.53 * std::log2(300.0 / eps_syn) + 5.3 - 1e-9));
  EXPECT_EQ(e.num_ts_per_rotation, expected_nt);

  // Budgets respected.
  EXPECT_LE(e.achieved_logical_error, e.budget.logical * (1 + 1e-9));
  EXPECT_LE(e.achieved_tstate_error, e.budget.tstates * (1 + 1e-9));
  EXPECT_NEAR(e.budget.logical + e.budget.tstates + e.budget.rotations, budget, budget * 1e-9);

  // rQOPS definition.
  EXPECT_NEAR(e.rqops,
              static_cast<double>(e.algorithmic_logical_qubits) * e.clock_frequency_hz,
              e.rqops * 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    ProfilesAndBudgets, BudgetSweep,
    ::testing::Values(SweepCase{"qubit_gate_ns_e3", 1e-2}, SweepCase{"qubit_gate_ns_e3", 1e-4},
                      SweepCase{"qubit_gate_ns_e4", 1e-3}, SweepCase{"qubit_gate_us_e3", 1e-3},
                      SweepCase{"qubit_gate_us_e4", 1e-4}, SweepCase{"qubit_maj_ns_e4", 1e-3},
                      SweepCase{"qubit_maj_ns_e4", 1e-4}, SweepCase{"qubit_maj_ns_e6", 1e-3}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      std::string name = info.param.profile;
      name += info.param.budget == 1e-2 ? "_e2" : (info.param.budget == 1e-3 ? "_e3" : "_e4");
      return name;
    });

TEST(Estimator, TighterBudgetNeverCheaper) {
  LogicalCounts counts = t_workload();
  ResourceEstimate loose =
      estimate(EstimationInput::for_profile(counts, "qubit_maj_ns_e4", 1e-2));
  ResourceEstimate tight =
      estimate(EstimationInput::for_profile(counts, "qubit_maj_ns_e4", 1e-5));
  EXPECT_GE(tight.logical_qubit.code_distance, loose.logical_qubit.code_distance);
  EXPECT_GE(tight.total_physical_qubits, loose.total_physical_qubits);
  EXPECT_GE(tight.runtime_ns, loose.runtime_ns);
}

TEST(Estimator, CliffordOnlyProgramNeedsNoFactories) {
  LogicalCounts counts;
  counts.num_qubits = 16;
  counts.measurement_count = 5'000;
  counts.clifford_count = 100'000;
  EstimationInput input = EstimationInput::for_profile(counts, "qubit_gate_ns_e3", 1e-3);
  ResourceEstimate e = estimate(input);
  EXPECT_EQ(e.num_tstates, 0u);
  EXPECT_EQ(e.num_t_factories, 0u);
  EXPECT_EQ(e.physical_qubits_for_tfactories, 0u);
  EXPECT_EQ(e.tfactory, nullptr);
  EXPECT_DOUBLE_EQ(e.budget.logical, 1e-3);  // everything went to the logical part
}

TEST(Estimator, RawTStatesWithoutDistillation) {
  // us-scale ions have 1e-6 T error; a loose budget needs no distillation.
  LogicalCounts counts;
  counts.num_qubits = 10;
  counts.t_count = 50;
  counts.measurement_count = 10;
  EstimationInput input = EstimationInput::for_profile(counts, "qubit_gate_us_e3", 1e-2);
  ResourceEstimate e = estimate(input);
  ASSERT_NE(e.tfactory, nullptr);
  EXPECT_TRUE(e.tfactory->no_distillation());
  EXPECT_EQ(e.num_t_factories, 0u);
  EXPECT_EQ(e.physical_qubits_for_tfactories, 0u);
}

TEST(Estimator, LogicalDepthFactorStretchesSchedule) {
  EstimationInput input = EstimationInput::for_profile(t_workload(), "qubit_gate_ns_e3", 1e-3);
  ResourceEstimate base = estimate(input);
  input.constraints.logical_depth_factor = 4.0;
  ResourceEstimate slow = estimate(input);
  EXPECT_GE(slow.logical_depth, 4 * slow.algorithmic_logical_depth);
  EXPECT_GT(slow.runtime_ns, base.runtime_ns);
  // Fewer factory copies are needed when there is more time.
  EXPECT_LE(slow.num_t_factories, base.num_t_factories);
  // Stretching the schedule may demand a larger code distance, never smaller.
  EXPECT_GE(slow.logical_qubit.code_distance, base.logical_qubit.code_distance);
}

TEST(Estimator, MaxTFactoriesCapRespected) {
  EstimationInput input = EstimationInput::for_profile(t_workload(), "qubit_gate_ns_e3", 1e-3);
  ResourceEstimate base = estimate(input);
  ASSERT_GT(base.num_t_factories, 2u);
  input.constraints.max_t_factories = 2;
  ResourceEstimate capped = estimate(input);
  EXPECT_LE(capped.num_t_factories, 2u);
  EXPECT_GE(capped.runtime_ns, base.runtime_ns);
  EXPECT_LE(capped.physical_qubits_for_tfactories, base.physical_qubits_for_tfactories);
  // Supply still covers demand.
  ASSERT_NE(capped.tfactory, nullptr);
  double delivered = static_cast<double>(capped.num_t_factory_invocations) *
                     capped.tfactory->tstates_per_invocation;
  EXPECT_GE(delivered + 1.0, static_cast<double>(capped.num_tstates));
}

TEST(Estimator, MaxDurationValidates) {
  EstimationInput input = EstimationInput::for_profile(t_workload(), "qubit_gate_ns_e3", 1e-3);
  ResourceEstimate base = estimate(input);
  input.constraints.max_duration_ns = base.runtime_ns * 0.5;
  EXPECT_THROW(estimate(input), Error);
  input.constraints.max_duration_ns = base.runtime_ns * 2.0;
  EXPECT_NO_THROW(estimate(input));
}

TEST(Estimator, MaxPhysicalQubitsTradesRuntime) {
  EstimationInput input = EstimationInput::for_profile(t_workload(), "qubit_gate_ns_e3", 1e-3);
  ResourceEstimate base = estimate(input);
  ASSERT_GT(base.num_t_factories, 2u);
  std::uint64_t limit = base.physical_qubits_for_algorithm +
                        base.physical_qubits_for_tfactories / 2;
  input.constraints.max_physical_qubits = limit;
  ResourceEstimate squeezed = estimate(input);
  EXPECT_LE(squeezed.total_physical_qubits, limit);
  EXPECT_GE(squeezed.runtime_ns, base.runtime_ns);
  // An impossible bound still throws.
  input.constraints.max_physical_qubits = base.physical_qubits_for_algorithm / 10;
  EXPECT_THROW(estimate(input), Error);
}

TEST(Estimator, MaxPhysicalQubitsWithMaxDurationStaysFeasible) {
  // Both bounds at once: the cap search probes low factory caps whose
  // stretched schedules violate maxDuration; those probes must steer the
  // search upward, not reject the job.
  EstimationInput input = EstimationInput::for_profile(t_workload(), "qubit_gate_ns_e3", 1e-3);
  ResourceEstimate base = estimate(input);
  ASSERT_GT(base.num_t_factories, 2u);
  std::uint64_t limit = base.physical_qubits_for_algorithm +
                        base.physical_qubits_for_tfactories / 2;
  input.constraints.max_physical_qubits = limit;
  ResourceEstimate squeezed = estimate(input);
  // A duration bound just above the squeezed schedule: satisfiable, but
  // violated by every slower (lower-cap) schedule.
  input.constraints.max_duration_ns = squeezed.runtime_ns * 1.01;
  ResourceEstimate both = estimate(input);
  EXPECT_LE(both.total_physical_qubits, limit);
  EXPECT_LE(both.runtime_ns, *input.constraints.max_duration_ns);
}

TEST(Estimator, FrontierIsPareto) {
  EstimationInput input = EstimationInput::for_profile(t_workload(), "qubit_gate_ns_e3", 1e-3);
  std::vector<ResourceEstimate> frontier = estimate_frontier(input, 8);
  ASSERT_GE(frontier.size(), 2u);
  for (std::size_t i = 1; i < frontier.size(); ++i) {
    EXPECT_GT(frontier[i].runtime_ns, frontier[i - 1].runtime_ns);
    EXPECT_LT(frontier[i].total_physical_qubits, frontier[i - 1].total_physical_qubits);
  }
  // The fastest point is the unconstrained estimate.
  ResourceEstimate base = estimate(input);
  EXPECT_DOUBLE_EQ(frontier.front().runtime_ns, base.runtime_ns);
}

TEST(Estimator, FrontierReusesTheBaseFactoryDesign) {
  // Every capped frontier point shares the base point's factory (the cap
  // changes the schedule, not the required T-state quality), so the
  // process-level FactoryCache must serve all of them from one design.
  EstimationInput input = EstimationInput::for_profile(t_workload(), "qubit_gate_ns_e3", 1e-3);
  FactoryCache& cache = FactoryCache::global();
  cache.clear();
  std::vector<ResourceEstimate> frontier = estimate_frontier(input, 8);
  ASSERT_GE(frontier.size(), 2u);
  EXPECT_EQ(cache.misses(), 1u);  // one design problem across the whole frontier
  EXPECT_GE(cache.hits(), frontier.size() - 1);
  // And the hit rate only improves when the same input is estimated again.
  std::uint64_t hits_before = cache.hits();
  estimate(input);
  EXPECT_EQ(cache.hits(), hits_before + 1);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(Estimator, QftRotationWorkload) {
  LogicalCounter counter;
  ProgramBuilder bld(counter);
  Register reg = bld.alloc_register(12);
  qft(bld, reg);
  LogicalCounts counts = counter.counts();
  EXPECT_EQ(counts.rotation_count, 3u * (12 * 11 / 2));
  EXPECT_GT(counts.rotation_depth, 0u);

  EstimationInput input = EstimationInput::for_profile(counts, "qubit_gate_ns_e4", 1e-3);
  ResourceEstimate e = estimate(input);
  EXPECT_GE(e.num_ts_per_rotation, 6u);
  EXPECT_GT(e.num_tstates, counts.rotation_count * e.num_ts_per_rotation - 1);
  EXPECT_DOUBLE_EQ(e.budget.rotations, 1e-3 / 3.0);
}

TEST(Estimator, NumTsPerRotationOverride) {
  LogicalCounts counts;
  counts.num_qubits = 8;
  counts.rotation_count = 100;
  counts.rotation_depth = 100;
  EstimationInput input = EstimationInput::for_profile(counts, "qubit_gate_ns_e3", 1e-3);
  input.constraints.num_ts_per_rotation = 30;
  ResourceEstimate e = estimate(input);
  EXPECT_EQ(e.num_ts_per_rotation, 30u);
  EXPECT_EQ(e.num_tstates, 3000u);
  EXPECT_EQ(e.algorithmic_logical_depth, 100u + 30u * 100u);
}

TEST(Estimator, ConstraintsJsonRoundTrip) {
  json::Value v = json::parse(R"({
    "logicalDepthFactor": 2.5,
    "maxTFactories": 7,
    "maxDuration": 1e12,
    "maxPhysicalQubits": 5000000,
    "numTsPerRotation": 17
  })");
  Constraints c = Constraints::from_json(v);
  EXPECT_DOUBLE_EQ(*c.logical_depth_factor, 2.5);
  EXPECT_EQ(*c.max_t_factories, 7u);
  EXPECT_DOUBLE_EQ(*c.max_duration_ns, 1e12);
  EXPECT_EQ(*c.max_physical_qubits, 5'000'000u);
  EXPECT_EQ(*c.num_ts_per_rotation, 17u);
  Constraints back = Constraints::from_json(c.to_json());
  EXPECT_EQ(*back.max_t_factories, 7u);
  EXPECT_THROW(Constraints::from_json(json::parse(R"({"logicalDepthFactor": 0.5})")), Error);
  // Typos ("maxTFactoris") are rejected, or warned about through a sink.
  json::Value typo = json::parse(R"({"maxTFactoris": 4})");
  EXPECT_THROW(Constraints::from_json(typo), Error);
  Diagnostics diags;
  Constraints lenient = Constraints::from_json(typo, &diags);
  EXPECT_FALSE(lenient.max_t_factories.has_value());
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags.entries()[0].path, "/constraints/maxTFactoris");
  // Same for the error budget object ("totl" vs "total").
  EXPECT_THROW(ErrorBudget::from_json(json::parse(R"({"totl": 0.01})")), Error);
}

TEST(Estimator, InfeasibleTargetsExplain) {
  LogicalCounts counts = t_workload();
  EstimationInput input = EstimationInput::for_profile(counts, "qubit_maj_ns_e4", 1e-3);
  input.factory_options.max_rounds = 1;  // cannot reach per-T 5e-10 from 5e-2
  try {
    estimate(input);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("T factory"), std::string::npos);
  }
}

TEST(Estimator, ZeroQubitProgramRejected) {
  LogicalCounts counts;
  counts.num_qubits = 0;
  EstimationInput input;
  input.counts = counts;
  EXPECT_THROW(estimate(input), Error);
}

}  // namespace
}  // namespace qre
