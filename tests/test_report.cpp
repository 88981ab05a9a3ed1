#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "core/estimator.hpp"
#include "report/report.hpp"

namespace qre {
namespace {

ResourceEstimate sample_estimate() {
  LogicalCounts counts;
  counts.num_qubits = 100;
  counts.t_count = 1'000'000;
  counts.measurement_count = 100'000;
  EstimationInput input = EstimationInput::for_profile(counts, "qubit_gate_ns_e3", 1e-3);
  return estimate(input);
}

TEST(Report, JsonHasAllOutputGroups) {
  ResourceEstimate e = sample_estimate();
  json::Value j = report_to_json(e);
  // The eight output groups of paper Section IV-D.
  EXPECT_NE(j.find("physicalCounts"), nullptr);
  EXPECT_NE(j.find("physicalCountsBreakdown"), nullptr);
  EXPECT_NE(j.find("logicalQubit"), nullptr);
  EXPECT_NE(j.find("tfactory"), nullptr);
  EXPECT_NE(j.find("logicalCounts"), nullptr);
  EXPECT_NE(j.find("errorBudget"), nullptr);
  EXPECT_NE(j.find("physicalQubitParameters"), nullptr);
  EXPECT_NE(j.find("assumptions"), nullptr);
}

TEST(Report, JsonValuesMatchEstimate) {
  ResourceEstimate e = sample_estimate();
  json::Value j = report_to_json(e);
  EXPECT_EQ(j.at("physicalCounts").at("physicalQubits").as_uint(), e.total_physical_qubits);
  EXPECT_DOUBLE_EQ(j.at("physicalCounts").at("runtime").as_double(), e.runtime_ns);
  EXPECT_DOUBLE_EQ(j.at("physicalCounts").at("rqops").as_double(), e.rqops);
  const json::Value& bd = j.at("physicalCountsBreakdown");
  EXPECT_EQ(bd.at("algorithmicLogicalQubits").as_uint(), e.algorithmic_logical_qubits);
  EXPECT_EQ(bd.at("numTfactories").as_uint(), e.num_t_factories);
  EXPECT_EQ(j.at("logicalQubit").at("codeDistance").as_uint(),
            e.logical_qubit.code_distance);
  EXPECT_EQ(j.at("logicalCounts").at("tCount").as_uint(), 1'000'000u);
  // The whole document serializes and re-parses.
  json::Value back = json::parse(j.pretty());
  EXPECT_EQ(back.at("physicalCounts").at("physicalQubits").as_uint(),
            e.total_physical_qubits);
}

TEST(Report, TextMentionsEveryGroup) {
  ResourceEstimate e = sample_estimate();
  std::string text = report_to_text(e);
  EXPECT_NE(text.find("Physical resource estimates"), std::string::npos);
  EXPECT_NE(text.find("Resource estimates breakdown"), std::string::npos);
  EXPECT_NE(text.find("Logical qubit parameters"), std::string::npos);
  EXPECT_NE(text.find("T factory parameters"), std::string::npos);
  EXPECT_NE(text.find("Pre-layout logical resources"), std::string::npos);
  EXPECT_NE(text.find("Assumed error budget"), std::string::npos);
  EXPECT_NE(text.find("Physical qubit parameters"), std::string::npos);
  EXPECT_NE(text.find("qubit_gate_ns_e3"), std::string::npos);
  EXPECT_NE(text.find("rQOPS"), std::string::npos);
}

TEST(Report, SpaceDiagramSplitsQubits) {
  ResourceEstimate e = sample_estimate();
  std::string diagram = space_diagram(e);
  EXPECT_NE(diagram.find("algorithm"), std::string::npos);
  EXPECT_NE(diagram.find("T factories"), std::string::npos);
  EXPECT_NE(diagram.find('#'), std::string::npos);
}

TEST(Report, AssumptionsListed) {
  const auto& assumptions = estimator_assumptions();
  EXPECT_GE(assumptions.size(), 5u);
  json::Value j = report_to_json(sample_estimate());
  EXPECT_EQ(j.at("assumptions").as_array().size(), assumptions.size());
}

TEST(Report, CliffordOnlyReportOmitsFactory) {
  LogicalCounts counts;
  counts.num_qubits = 5;
  counts.measurement_count = 10;
  EstimationInput input = EstimationInput::for_profile(counts, "qubit_gate_ns_e3", 1e-3);
  ResourceEstimate e = estimate(input);
  json::Value j = report_to_json(e);
  EXPECT_TRUE(j.at("tfactory").is_null());
  std::string text = report_to_text(e);
  EXPECT_EQ(text.find("T factory parameters"), std::string::npos);
}

// ------------------------------------------- report_bytes against the tree --
//
// report_bytes writes the document without building it; report_to_json is
// the independent reference. Each case asserts the bytes match exactly.

void expect_bytes_match_tree(const ResourceEstimate& e) {
  EXPECT_EQ(report_bytes(e), report_to_json(e).dump());
}

LogicalCounts mixed_counts() {
  LogicalCounts counts;
  counts.num_qubits = 200;
  counts.t_count = 3'000'000;
  counts.rotation_count = 4'000;
  counts.rotation_depth = 1'000;
  counts.ccz_count = 50'000;
  counts.ccix_count = 7'000;
  counts.measurement_count = 120'000;
  counts.clifford_count = 9'000'000;
  return counts;
}

TEST(ReportBytes, MatchesTheTreeForEveryProfileAndBudget) {
  int checked = 0;
  for (const std::string& profile : QubitParams::preset_names()) {
    for (int exponent = 1; exponent <= 10; ++exponent) {
      const double budget = std::pow(10.0, -exponent);
      SCOPED_TRACE(profile + " budget 1e-" + std::to_string(exponent));
      ResourceEstimate e;
      try {
        e = estimate(EstimationInput::for_profile(mixed_counts(), profile, budget));
      } catch (const Error&) {
        continue;  // infeasible at this budget: nothing to write
      }
      expect_bytes_match_tree(e);
      ++checked;
    }
  }
  EXPECT_GE(checked, 50);  // most of the 6 x 10 grid is feasible
}

TEST(ReportBytes, CliffordOnlyJobWritesANullFactory) {
  LogicalCounts counts;
  counts.num_qubits = 5;
  counts.measurement_count = 10;
  const ResourceEstimate e =
      estimate(EstimationInput::for_profile(counts, "qubit_maj_ns_e4", 1e-3));
  ASSERT_EQ(e.tfactory, nullptr);
  EXPECT_NE(report_bytes(e).find("\"tfactory\":null"), std::string::npos);
  expect_bytes_match_tree(e);
}

TEST(ReportBytes, RawTStatesWriteEmptyRoundArrays) {
  LogicalCounts counts;
  counts.num_qubits = 4;
  counts.t_count = 10;
  EstimationInput input = EstimationInput::for_profile(counts, "qubit_gate_ns_e3", 0.5);
  input.qubit.t_gate_error_rate = 1e-12;
  const ResourceEstimate e = estimate(input);
  ASSERT_NE(e.tfactory, nullptr);
  ASSERT_TRUE(e.tfactory->no_distillation());
  EXPECT_NE(report_bytes(e).find("\"unitNamePerRound\":[]"), std::string::npos);
  expect_bytes_match_tree(e);
}

TEST(ReportBytes, EscapesCustomNames) {
  ResourceEstimate e = sample_estimate();
  ASSERT_NE(e.tfactory, nullptr);
  ASSERT_FALSE(e.tfactory->rounds.empty());
  e.qubit.name = "my \"qubit\" \\ v2\x01\n";
  // The design is shared with the factory cache: rename a copy of it.
  auto renamed = std::make_shared<TFactory>(*e.tfactory);
  for (DistillationRound& round : renamed->rounds) round.unit_name = "unit\\\"\x1f\t";
  e.tfactory = renamed;
  const std::string bytes = report_bytes(e);
  EXPECT_NE(bytes.find(R"("my \"qubit\" \\ v2\u0001\n")"), std::string::npos) << bytes;
  expect_bytes_match_tree(e);
  // Majorana models write the other field set.
  e.qubit = QubitParams::maj_ns_e6();
  e.qubit.name = "\x7f\"";
  expect_bytes_match_tree(e);
}

TEST(ReportBytes, CountsAboveInt64MaxAreWrittenAsDoubles) {
  ResourceEstimate e = sample_estimate();
  e.pre_layout.t_count = std::numeric_limits<std::uint64_t>::max();
  e.total_physical_qubits = static_cast<std::uint64_t>(INT64_MAX) + 1;
  e.num_tstates = static_cast<std::uint64_t>(INT64_MAX);
  const std::string bytes = report_bytes(e);
  EXPECT_NE(bytes.find("\"tCount\":1.8446744073709552e+19"), std::string::npos) << bytes;
  EXPECT_NE(bytes.find("\"numTstates\":9223372036854775807,"), std::string::npos);
  expect_bytes_match_tree(e);
}

TEST(ReportBytes, NonFiniteDoublesAreWrittenAsNull) {
  ResourceEstimate e = sample_estimate();
  e.rqops = std::numeric_limits<double>::infinity();
  e.runtime_ns = std::numeric_limits<double>::quiet_NaN();
  e.budget.rotations = -std::numeric_limits<double>::infinity();
  const std::string bytes = report_bytes(e);
  EXPECT_NE(bytes.find("\"runtime\":null,\"rqops\":null"), std::string::npos) << bytes;
  expect_bytes_match_tree(e);
}

TEST(ReportBytes, MatchesTheTreeOnRandomEstimates) {
  std::mt19937_64 rng(20240617);
  auto count = [&rng] { return rng() >> (rng() % 64); };  // every magnitude
  int estimated = 0;
  for (int trial = 0; trial < 300; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    // A real estimate of random counts on a random profile and budget...
    LogicalCounts counts;
    counts.num_qubits = 1 + rng() % 5000;
    counts.t_count = rng() % 3 == 0 ? 0 : rng() % 100'000'000;
    counts.rotation_count = rng() % 2 == 0 ? 0 : 1 + rng() % 100'000;
    counts.rotation_depth = counts.rotation_count == 0 ? 0 : 1 + rng() % counts.rotation_count;
    counts.ccz_count = rng() % 1'000'000;
    counts.ccix_count = rng() % 1'000;
    counts.measurement_count = rng() % 10'000'000;
    counts.clifford_count = rng() % 100'000'000;
    const auto& profiles = QubitParams::preset_names();
    const std::string& profile = profiles[rng() % profiles.size()];
    const double budget = std::pow(10.0, -1.0 - static_cast<double>(rng() % 900) / 100.0);
    ResourceEstimate e;
    try {
      e = estimate(EstimationInput::for_profile(counts, profile, budget));
      ++estimated;
    } catch (const Error&) {
      e = sample_estimate();
    }
    expect_bytes_match_tree(e);

    // ...then every number replaced by arbitrary bits: any double (NaN,
    // infinities, subnormals, -0) and any count.
    auto number = [&rng] {
      const std::uint64_t bits = rng();
      double d = 0.0;
      std::memcpy(&d, &bits, sizeof d);
      return d;
    };
    for (double* d : {&e.runtime_ns, &e.rqops, &e.logical_depth_factor,
                      &e.required_logical_qubit_error_rate, &e.required_tstate_error_rate,
                      &e.clock_frequency_hz, &e.logical_operations,
                      &e.logical_qubit.cycle_time_ns, &e.logical_qubit.logical_error_rate,
                      &e.budget.logical, &e.budget.tstates, &e.budget.rotations,
                      &e.achieved_logical_error, &e.achieved_tstate_error,
                      &e.qubit.t_gate_time_ns, &e.qubit.idle_error_rate}) {
      *d = number();
    }
    for (std::uint64_t* c :
         {&e.total_physical_qubits, &e.algorithmic_logical_qubits, &e.logical_depth,
          &e.num_tstates, &e.num_t_factories, &e.num_ts_per_rotation,
          &e.logical_qubit.code_distance, &e.pre_layout.clifford_count}) {
      *c = count();
    }
    if (e.tfactory != nullptr) {
      auto f = std::make_shared<TFactory>(*e.tfactory);
      for (DistillationRound& r : f->rounds) {
        r.duration_ns = number();
        r.failure_probability = number();
        r.num_units = count();
        r.physical = rng() % 2 == 0;
      }
      f->tstates_per_invocation = number();
      e.tfactory = f;
    }
    expect_bytes_match_tree(e);
  }
  EXPECT_GE(estimated, 100);
}

// --------------------------------------------- memoized invariant groups --
//
// report_bytes splices the echo tail (physical qubit parameters, QEC scheme,
// assumptions) from a per-thread memo and the "tfactory" group from the
// shared design. Every case still compares against the tree.

/// Counts the fields of an aggregate without naming them: the most
/// AnyField values it can be brace-initialized from.
struct AnyField {
  template <typename T>
  operator T() const;
};
template <typename T, typename... Fields>
constexpr std::size_t field_count() {
  if constexpr (requires { T{Fields{}..., AnyField{}}; }) {
    return field_count<T, Fields..., AnyField>();
  } else {
    return sizeof...(Fields);
  }
}
// The echo memo key (report.cpp) compares all 13 fields of QubitParams and
// the printed fields of QecScheme. A new field must join that key: update
// it and these guards together.
static_assert(field_count<QubitParams>() == 13, "QubitParams changed: update the echo memo key");
struct QecSchemeLayout {
  std::string name;
  double threshold;
  double crossing_prefactor;
  Formula logical_cycle_time;
  Formula physical_qubits_per_logical_qubit;
  std::uint64_t max_code_distance;
  std::shared_ptr<void> eval_cache;
};
static_assert(sizeof(QecScheme) == sizeof(QecSchemeLayout),
              "QecScheme changed: update the echo memo key");

/// Renders `e`, then `e` after `change`: both match the tree and differ,
/// and `e` renders as before once more.
void expect_change_shows(const ResourceEstimate& e,
                         const std::function<void(ResourceEstimate&)>& change) {
  const std::string before = report_bytes(e);
  EXPECT_EQ(before, report_to_json(e).dump());
  ResourceEstimate changed = e;
  change(changed);
  const std::string after = report_bytes(changed);
  EXPECT_EQ(after, report_to_json(changed).dump());
  EXPECT_NE(after, before);
  EXPECT_EQ(report_bytes(e), before);
}

TEST(ReportBytes, EveryPrintedQubitFieldChangesTheBytes) {
  const ResourceEstimate gate = sample_estimate();
  ResourceEstimate majorana = gate;
  majorana.qubit = QubitParams::maj_ns_e4();
  const auto one_ulp = [](double QubitParams::*field) {
    return [field](ResourceEstimate& r) { r.qubit.*field = std::nextafter(r.qubit.*field, 1.0); };
  };
  for (double QubitParams::*field :
       {&QubitParams::one_qubit_measurement_time_ns, &QubitParams::one_qubit_gate_time_ns,
        &QubitParams::two_qubit_gate_time_ns, &QubitParams::t_gate_time_ns,
        &QubitParams::one_qubit_measurement_error_rate, &QubitParams::one_qubit_gate_error_rate,
        &QubitParams::two_qubit_gate_error_rate, &QubitParams::t_gate_error_rate,
        &QubitParams::idle_error_rate}) {
    expect_change_shows(gate, one_ulp(field));
  }
  for (double QubitParams::*field :
       {&QubitParams::one_qubit_measurement_time_ns,
        &QubitParams::two_qubit_joint_measurement_time_ns, &QubitParams::t_gate_time_ns,
        &QubitParams::one_qubit_measurement_error_rate,
        &QubitParams::two_qubit_joint_measurement_error_rate, &QubitParams::t_gate_error_rate,
        &QubitParams::idle_error_rate}) {
    expect_change_shows(majorana, one_ulp(field));
  }
  expect_change_shows(gate, [](ResourceEstimate& r) { r.qubit.name += "x"; });
  expect_change_shows(gate, [](ResourceEstimate& r) {
    r.qubit.instruction_set = InstructionSet::kMajorana;
  });
  // Zero and negative zero print differently.
  ResourceEstimate zero = gate;
  zero.qubit.idle_error_rate = 0.0;
  expect_change_shows(zero, [](ResourceEstimate& r) { r.qubit.idle_error_rate = -0.0; });
}

TEST(ReportBytes, EveryPrintedQecFieldChangesTheBytes) {
  const ResourceEstimate e = sample_estimate();
  const auto customized = [](const char* override_json) {
    return [override_json](ResourceEstimate& r) {
      r.qec = QecScheme::customize(r.qec, json::parse(override_json));
    };
  };
  expect_change_shows(e, [](ResourceEstimate& r) { r.qec = r.qec.with_name("renamed"); });
  expect_change_shows(e, customized(R"({"errorCorrectionThreshold": 0.010000000000000002})"));
  expect_change_shows(e, customized(R"({"crossingPrefactor": 0.030000000000000002})"));
  expect_change_shows(e, customized(R"({"logicalCycleTime":
      "(4 * twoQubitGateTime + 2 * oneQubitMeasurementTime) * codeDistance + 1"})"));
  expect_change_shows(e, customized(R"({"physicalQubitsPerLogicalQubit":
      "2 * codeDistance * codeDistance + 1"})"));
  expect_change_shows(e, customized(R"({"maxCodeDistance": 49})"));
}

TEST(ReportBytes, ThreadsRenderInterleavedProfilesAndDesigns) {
  // 6 profiles x 2 scheme names outnumber a thread's memo, and the budgets
  // give each profile several factory designs.
  std::vector<ResourceEstimate> estimates;
  for (const std::string& profile : QubitParams::preset_names()) {
    for (double budget : {1e-2, 1e-4, 1e-6}) {
      ResourceEstimate e = estimate(EstimationInput::for_profile(mixed_counts(), profile, budget));
      estimates.push_back(e);
      e.qec = e.qec.with_name("renamed_" + e.qec.name());
      estimates.push_back(std::move(e));
    }
  }
  std::vector<std::string> expected;
  for (const ResourceEstimate& e : estimates) expected.push_back(report_to_json(e).dump());

  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        for (std::size_t i = 0; i < estimates.size(); ++i) {
          const std::size_t k = (i * (2 * t + 1) + round) % estimates.size();
          if (report_bytes(estimates[k]) != expected[k]) ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << "thread " << t;
}

TEST(ReportBytes, FrontierEstimateTypeJoinsTheReports) {
  const json::Value doc = json::parse(R"({
    "logicalCounts": {"numQubits": 40, "tCount": 200000, "measurementCount": 1000},
    "estimateType": "frontier"
  })");
  const json::Value result = api::run(api::EstimateRequest::parse(doc)).result;
  ASSERT_TRUE(result.is_raw());
  json::Array points;
  for (const ResourceEstimate& e :
       estimate_frontier(api::input_from_document(doc, api::Registry::global()))) {
    points.push_back(report_to_json(e));
  }
  ASSERT_GE(points.size(), 2u);
  json::Object tree;
  tree.emplace_back("frontier", json::Value(std::move(points)));
  EXPECT_EQ(result.dump(), json::Value(std::move(tree)).dump());
}

}  // namespace
}  // namespace qre
