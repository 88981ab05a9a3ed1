#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "qec/qec_scheme.hpp"

namespace qre {
namespace {

TEST(Qec, SurfaceCodeGateBasedDefaults) {
  QecScheme s = QecScheme::surface_code_gate_based();
  EXPECT_EQ(s.name(), "surface_code");
  EXPECT_DOUBLE_EQ(s.threshold(), 0.01);
  EXPECT_DOUBLE_EQ(s.crossing_prefactor(), 0.03);
  QubitParams q = QubitParams::gate_ns_e3();
  // (4 * 50 + 2 * 100) * d = 400 d ns.
  EXPECT_DOUBLE_EQ(s.logical_cycle_time_ns(q, 9), 3600.0);
  EXPECT_EQ(s.physical_qubits_per_logical_qubit(9), 162u);
}

TEST(Qec, FloquetCodeDefaults) {
  QecScheme s = QecScheme::floquet_code();
  EXPECT_DOUBLE_EQ(s.threshold(), 0.01);
  EXPECT_DOUBLE_EQ(s.crossing_prefactor(), 0.07);
  QubitParams q = QubitParams::maj_ns_e4();
  EXPECT_DOUBLE_EQ(s.logical_cycle_time_ns(q, 13), 3.0 * 100.0 * 13.0);
  EXPECT_EQ(s.physical_qubits_per_logical_qubit(13), 4 * 13 * 13 + 8 * 12);
}

TEST(Qec, MajoranaSurfaceCode) {
  QecScheme s = QecScheme::surface_code_majorana();
  EXPECT_DOUBLE_EQ(s.threshold(), 0.0015);
  EXPECT_DOUBLE_EQ(s.crossing_prefactor(), 0.08);
  QubitParams q = QubitParams::maj_ns_e4();
  EXPECT_DOUBLE_EQ(s.logical_cycle_time_ns(q, 7), 20.0 * 100.0 * 7.0);
}

TEST(Qec, DefaultsPerInstructionSet) {
  EXPECT_EQ(QecScheme::default_for(InstructionSet::kGateBased).name(), "surface_code");
  EXPECT_EQ(QecScheme::default_for(InstructionSet::kMajorana).name(), "floquet_code");
}

TEST(Qec, FromNameValidation) {
  EXPECT_NO_THROW(QecScheme::from_name("surface_code", InstructionSet::kMajorana));
  EXPECT_THROW(QecScheme::from_name("floquet_code", InstructionSet::kGateBased), Error);
  EXPECT_THROW(QecScheme::from_name("color_code", InstructionSet::kGateBased), Error);
}

TEST(Qec, LogicalErrorRateModel) {
  QecScheme s = QecScheme::surface_code_gate_based();
  // P(d) = 0.03 * (p / 0.01)^((d+1)/2).
  EXPECT_NEAR(s.logical_error_rate(1e-3, 3), 0.03 * std::pow(0.1, 2.0), 1e-15);
  EXPECT_NEAR(s.logical_error_rate(1e-3, 9), 0.03 * std::pow(0.1, 5.0), 1e-15);
  // Halving the error rate helps more at larger distance.
  double gain_small = s.logical_error_rate(1e-3, 3) / s.logical_error_rate(5e-4, 3);
  double gain_large = s.logical_error_rate(1e-3, 11) / s.logical_error_rate(5e-4, 11);
  EXPECT_GT(gain_large, gain_small);
}

TEST(Qec, CodeDistanceHandComputed) {
  QecScheme s = QecScheme::surface_code_gate_based();
  // p = 1e-3, target 1e-10: 0.03 * 0.1^((d+1)/2) <= 1e-10 first holds at d=17.
  EXPECT_EQ(s.code_distance_for(1e-3, 1e-10), 17u);
  EXPECT_GT(s.logical_error_rate(1e-3, 15), 1e-10);
  EXPECT_LE(s.logical_error_rate(1e-3, 17), 1e-10);
}

TEST(Qec, CodeDistanceIsMinimalAndOdd) {
  QecScheme s = QecScheme::floquet_code();
  for (double target : {1e-6, 1e-9, 1e-12, 1e-15}) {
    std::uint64_t d = s.code_distance_for(1e-4, target);
    EXPECT_EQ(d % 2, 1u);
    EXPECT_LE(s.logical_error_rate(1e-4, d), target);
    if (d > 1) {
      EXPECT_GT(s.logical_error_rate(1e-4, d - 2), target);
    }
  }
}

TEST(Qec, CodeDistanceMonotoneInTarget) {
  QecScheme s = QecScheme::surface_code_gate_based();
  std::uint64_t previous = 1;
  for (double target = 1e-4; target > 1e-16; target /= 10.0) {
    std::uint64_t d = s.code_distance_for(1e-4, target);
    EXPECT_GE(d, previous);
    previous = d;
  }
}

TEST(Qec, AtThresholdThrows) {
  QecScheme s = QecScheme::surface_code_gate_based();
  EXPECT_THROW(s.code_distance_for(0.01, 1e-10), Error);
  EXPECT_THROW(s.code_distance_for(0.5, 1e-10), Error);
}

TEST(Qec, MaxDistanceExceededThrows) {
  json::Value v = json::parse(R"({"maxCodeDistance": 5})");
  QecScheme s = QecScheme::from_json(v, InstructionSet::kGateBased);
  EXPECT_THROW(s.code_distance_for(5e-3, 1e-12), Error);
}

TEST(Qec, JsonCustomization) {
  json::Value v = json::parse(R"({
    "crossingPrefactor": 0.05,
    "errorCorrectionThreshold": 0.02,
    "logicalCycleTime": "10 * oneQubitGateTime * codeDistance",
    "physicalQubitsPerLogicalQubit": "codeDistance ^ 2"
  })");
  QecScheme s = QecScheme::from_json(v, InstructionSet::kGateBased);
  EXPECT_DOUBLE_EQ(s.crossing_prefactor(), 0.05);
  EXPECT_DOUBLE_EQ(s.threshold(), 0.02);
  QubitParams q = QubitParams::gate_ns_e3();
  EXPECT_DOUBLE_EQ(s.logical_cycle_time_ns(q, 5), 2500.0);
  EXPECT_EQ(s.physical_qubits_per_logical_qubit(5), 25u);
}

TEST(Qec, JsonRoundTrip) {
  QecScheme s = QecScheme::floquet_code();
  QecScheme back = QecScheme::from_json(s.to_json(), InstructionSet::kMajorana);
  EXPECT_EQ(back.name(), s.name());
  EXPECT_DOUBLE_EQ(back.threshold(), s.threshold());
  EXPECT_DOUBLE_EQ(back.crossing_prefactor(), s.crossing_prefactor());
  QubitParams q = QubitParams::maj_ns_e6();
  EXPECT_DOUBLE_EQ(back.logical_cycle_time_ns(q, 9), s.logical_cycle_time_ns(q, 9));
}

TEST(Qec, LogicalQubitBundle) {
  QubitParams q = QubitParams::maj_ns_e4();
  QecScheme s = QecScheme::floquet_code();
  LogicalQubit lq = LogicalQubit::create(q, s, 9);
  EXPECT_EQ(lq.code_distance, 9u);
  EXPECT_EQ(lq.physical_qubits, s.physical_qubits_per_logical_qubit(9));
  EXPECT_DOUBLE_EQ(lq.cycle_time_ns, 2700.0);
  EXPECT_NEAR(lq.clock_frequency_hz(), 1e9 / 2700.0, 1e-6);
  EXPECT_NEAR(lq.logical_error_rate, s.logical_error_rate(1e-4, 9), 1e-18);
  json::Value j = lq.to_json();
  EXPECT_EQ(j.at("codeDistance").as_uint(), 9u);
}

TEST(Qec, FormulaEnvironmentBindsInstructionSet) {
  Environment gate = qec_formula_environment(QubitParams::gate_ns_e3(), 7);
  EXPECT_TRUE(gate.has("twoQubitGateTime"));
  EXPECT_FALSE(gate.has("twoQubitJointMeasurementTime"));
  Environment maj = qec_formula_environment(QubitParams::maj_ns_e4(), 7);
  EXPECT_TRUE(maj.has("twoQubitJointMeasurementTime"));
  EXPECT_FALSE(maj.has("twoQubitGateTime"));
  EXPECT_DOUBLE_EQ(maj.get("codeDistance"), 7.0);
}

class QecDistanceSweep : public ::testing::TestWithParam<double> {};

TEST_P(QecDistanceSweep, ErrorRateDecadeStepsDistance) {
  // Each 100x tightening of the target adds a bounded number of distance
  // steps (the model is exponential in d).
  QecScheme s = QecScheme::surface_code_gate_based();
  double p = GetParam();
  std::uint64_t d1 = s.code_distance_for(p, 1e-8);
  std::uint64_t d2 = s.code_distance_for(p, 1e-10);
  EXPECT_GE(d2, d1);
  EXPECT_LE(d2 - d1, 6u);
}

INSTANTIATE_TEST_SUITE_P(PhysicalRates, QecDistanceSweep,
                         ::testing::Values(1e-3, 5e-4, 1e-4, 1e-5));

TEST(Qec, JsonRejectsOrWarnsOnUnknownKeys) {
  // "crossingPrefator" is a typo for "crossingPrefactor".
  json::Value v = json::parse(R"({"name": "surface_code", "crossingPrefator": 0.05})");
  EXPECT_THROW(QecScheme::from_json(v, InstructionSet::kGateBased), Error);

  Diagnostics diags;
  QecScheme s = QecScheme::from_json(v, InstructionSet::kGateBased, &diags);
  EXPECT_DOUBLE_EQ(s.crossing_prefactor(), 0.03);  // typo did not override
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags.entries()[0].code, "unknown-key");
  EXPECT_EQ(diags.entries()[0].path, "/qecScheme/crossingPrefator");
}

TEST(Qec, CustomizedCopyOfTheSharedDefaultKeepsItsOwnMemo) {
  // The built-in schemes are built once per process and copies share their
  // eval memo. A customized copy must not read the default's memoized
  // entries for the same (qubit, distance) key.
  const QubitParams q = QubitParams::gate_ns_e3();
  const QecScheme shared = QecScheme::surface_code_gate_based();
  EXPECT_DOUBLE_EQ(shared.logical_cycle_time_ns(q, 9), 3600.0);  // memoized now
  EXPECT_EQ(shared.physical_qubits_per_logical_qubit(9), 162u);

  const QecScheme custom = QecScheme::customize(
      QecScheme::surface_code_gate_based(),
      json::parse(R"({"logicalCycleTime": "7 * twoQubitGateTime * codeDistance",
                      "physicalQubitsPerLogicalQubit": "3 * codeDistance"})"));
  EXPECT_DOUBLE_EQ(custom.logical_cycle_time_ns(q, 9), 7.0 * 50.0 * 9.0);
  EXPECT_EQ(custom.physical_qubits_per_logical_qubit(9), 27u);

  // ...and the customized values never leak back into the shared default.
  const QecScheme again = QecScheme::surface_code_gate_based();
  EXPECT_DOUBLE_EQ(again.logical_cycle_time_ns(q, 9), 3600.0);
  EXPECT_EQ(again.physical_qubits_per_logical_qubit(9), 162u);
}

TEST(Qec, SharedDefaultsMatchTheirPresetDocuments) {
  EXPECT_EQ(QecScheme::surface_code_gate_based().to_json().dump(),
            R"({"name":"surface_code","errorCorrectionThreshold":0.01,"crossingPrefactor":0.03,)"
            R"("logicalCycleTime":"(4 * twoQubitGateTime + 2 * oneQubitMeasurementTime) * )"
            R"(codeDistance","physicalQubitsPerLogicalQubit":"2 * codeDistance * codeDistance",)"
            R"("maxCodeDistance":51})");
  EXPECT_EQ(QecScheme::surface_code_majorana().to_json().dump(),
            R"({"name":"surface_code","errorCorrectionThreshold":0.0015,"crossingPrefactor":0.08,)"
            R"("logicalCycleTime":"20 * oneQubitMeasurementTime * codeDistance",)"
            R"("physicalQubitsPerLogicalQubit":"2 * codeDistance * codeDistance",)"
            R"("maxCodeDistance":51})");
  EXPECT_EQ(QecScheme::floquet_code().to_json().dump(),
            R"({"name":"floquet_code","errorCorrectionThreshold":0.01,"crossingPrefactor":0.07,)"
            R"("logicalCycleTime":"3 * oneQubitMeasurementTime * codeDistance",)"
            R"("physicalQubitsPerLogicalQubit":"4 * codeDistance * codeDistance + 8 * )"
            R"x((codeDistance - 1)","maxCodeDistance":51})x");
}

}  // namespace
}  // namespace qre
