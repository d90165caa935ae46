#include "sim/statevector.hpp"

#include <gtest/gtest.h>

#include <numbers>

namespace qucp {
namespace {

TEST(Statevector, StartsInGroundState) {
  const Statevector sv(3);
  EXPECT_DOUBLE_EQ(sv.probabilities()[0], 1.0);
  EXPECT_DOUBLE_EQ(sv.norm(), 1.0);
}

TEST(Statevector, BellState) {
  Statevector sv(2);
  Circuit c(2);
  c.h(0);
  c.cx(0, 1);
  sv.apply_circuit(c);
  const auto probs = sv.probabilities();
  EXPECT_NEAR(probs[0], 0.5, 1e-12);
  EXPECT_NEAR(probs[3], 0.5, 1e-12);
  EXPECT_NEAR(probs[1], 0.0, 1e-12);
  EXPECT_NEAR(probs[2], 0.0, 1e-12);
}

TEST(Statevector, GhzOnFiveQubits) {
  Circuit c(5);
  c.h(0);
  for (int q = 0; q < 4; ++q) c.cx(q, q + 1);
  Statevector sv(5);
  sv.apply_circuit(c);
  const auto probs = sv.probabilities();
  EXPECT_NEAR(probs[0], 0.5, 1e-12);
  EXPECT_NEAR(probs[31], 0.5, 1e-12);
}

TEST(Statevector, XFlipsTargetBitOnly) {
  Statevector sv(3);
  const Matrix x = gate_matrix(GateKind::X);
  const int q = 1;
  sv.apply_compiled(kern::compile_unitary(x.data()),
                    std::span<const int>(&q, 1));
  EXPECT_DOUBLE_EQ(sv.probabilities()[2], 1.0);
}

TEST(Statevector, CxControlIsFirstOperand) {
  Statevector sv(2);
  // Prepare |q0=1>; CX(0->1) should set q1.
  Circuit c(2);
  c.x(0);
  c.cx(0, 1);
  sv.apply_circuit(c);
  EXPECT_DOUBLE_EQ(sv.probabilities()[3], 1.0);

  // Control on q1 (still |0>) must not fire.
  Statevector sv2(2);
  Circuit c2(2);
  c2.x(0);
  c2.cx(1, 0);
  sv2.apply_circuit(c2);
  EXPECT_DOUBLE_EQ(sv2.probabilities()[1], 1.0);
}

TEST(Statevector, NormPreservedUnderLongCircuit) {
  Circuit c(4);
  for (int i = 0; i < 30; ++i) {
    c.ry(0.1 * i, i % 4);
    c.cx(i % 4, (i + 1) % 4);
    c.rz(0.2 * i, (i + 2) % 4);
  }
  Statevector sv(4);
  sv.apply_circuit(c);
  EXPECT_NEAR(sv.norm(), 1.0, 1e-10);
}

TEST(Statevector, ExpectationOfPauliZ) {
  Statevector sv(1);
  const Matrix z = gate_matrix(GateKind::Z);
  EXPECT_NEAR(sv.expectation(z), 1.0, 1e-12);
  Circuit c(1);
  c.x(0);
  sv.apply_circuit(c);
  EXPECT_NEAR(sv.expectation(z), -1.0, 1e-12);
  Circuit h(1);
  h.h(0);
  Statevector sh(1);
  sh.apply_circuit(h);
  EXPECT_NEAR(sh.expectation(z), 0.0, 1e-12);
}

TEST(Statevector, RejectsMeasurement) {
  Circuit c(1);
  c.measure(0, 0);
  Statevector sv(1);
  EXPECT_THROW(sv.apply_circuit(c), std::logic_error);
}

TEST(Statevector, RejectsMismatchedWidth) {
  const Circuit c(3);
  Statevector sv(2);
  EXPECT_THROW(sv.apply_circuit(c), std::invalid_argument);
}

TEST(IdealDistribution, BellCounts) {
  Circuit c(2);
  c.h(0);
  c.cx(0, 1);
  c.measure_all();
  const Distribution d = ideal_distribution(c);
  EXPECT_NEAR(d.prob(0b00), 0.5, 1e-12);
  EXPECT_NEAR(d.prob(0b11), 0.5, 1e-12);
}

TEST(IdealDistribution, MeasurementRemapsClbits) {
  Circuit c(2, 2);
  c.x(0);
  c.measure(0, 1);  // q0 -> clbit 1
  const Distribution d = ideal_distribution(c);
  EXPECT_NEAR(d.prob(0b10), 1.0, 1e-12);
}

TEST(IdealDistribution, PartialMeasurementMarginalizes) {
  Circuit c(2, 1);
  c.h(0);
  c.cx(0, 1);
  c.measure(0, 0);
  const Distribution d = ideal_distribution(c);
  EXPECT_NEAR(d.prob(0), 0.5, 1e-12);
  EXPECT_NEAR(d.prob(1), 0.5, 1e-12);
}

TEST(IdealDistribution, RequiresMeasurement) {
  Circuit c(1);
  c.h(0);
  EXPECT_THROW((void)ideal_distribution(c), std::logic_error);
}

TEST(Statevector, MatchesToUnitaryColumn) {
  Circuit c(3);
  c.h(0);
  c.t(1);
  c.cx(0, 2);
  c.ry(0.7, 1);
  c.cz(1, 2);
  Statevector sv(3);
  sv.apply_circuit(c);
  const Matrix u = c.to_unitary();
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(std::abs(sv.amplitudes()[i] - u(i, 0)), 0.0, 1e-10);
  }
}

}  // namespace
}  // namespace qucp
