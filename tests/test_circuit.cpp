#include "circuit/circuit.hpp"

#include <gtest/gtest.h>

#include <numbers>

namespace qucp {
namespace {

TEST(Circuit, ConstructionDefaults) {
  const Circuit c(3);
  EXPECT_EQ(c.num_qubits(), 3);
  EXPECT_EQ(c.num_clbits(), 3);
  EXPECT_TRUE(c.empty());
  const Circuit d(2, 5, "named");
  EXPECT_EQ(d.num_clbits(), 5);
  EXPECT_EQ(d.name(), "named");
  EXPECT_THROW(Circuit(-1), std::invalid_argument);
}

TEST(Circuit, AppendValidation) {
  Circuit c(2);
  EXPECT_THROW(c.h(2), std::out_of_range);
  EXPECT_THROW(c.cx(0, 0), std::invalid_argument);
  EXPECT_THROW(c.cx(0, 5), std::out_of_range);
  EXPECT_THROW(c.append({GateKind::RZ, {0}, {}}), std::invalid_argument);
  EXPECT_THROW(c.append({GateKind::H, {0}, {1.0}}), std::invalid_argument);
  EXPECT_THROW(c.measure(0, 9), std::out_of_range);
  c.h(0);
  c.cx(0, 1);
  c.measure(1, 0);
  EXPECT_EQ(c.size(), 3u);
}

TEST(Circuit, GateCountsExcludeMeasureAndBarrier) {
  Circuit c(2);
  c.h(0);
  c.barrier();
  c.cx(0, 1);
  c.measure_all();
  EXPECT_EQ(c.gate_count(), 2);
  EXPECT_EQ(c.two_qubit_count(), 1);
  const auto counts = c.count_ops();
  EXPECT_EQ(counts.at("h"), 1);
  EXPECT_EQ(counts.at("cx"), 1);
  EXPECT_EQ(counts.at("measure"), 2);
  EXPECT_EQ(counts.at("barrier"), 1);
}

TEST(Circuit, CcxExpansionCounts) {
  Circuit c(3);
  c.ccx(0, 1, 2);
  EXPECT_EQ(c.gate_count(), 15);
  EXPECT_EQ(c.two_qubit_count(), 6);
}

TEST(Circuit, CcxActsAsToffoli) {
  // Unitary of the decomposition must be the permutation matrix of CCX.
  Circuit c(3);
  c.ccx(0, 1, 2);
  const Matrix u = c.to_unitary();
  // |110> (q0=0? no: bits q0=0,q1=1,q2=1 -> index 6) maps controls q0,q1.
  // Controls are q0 and q1: |q2 q1 q0> = |011> = index 3 -> |111> = 7.
  EXPECT_NEAR(std::abs(u(7, 3)), 1.0, 1e-10);
  EXPECT_NEAR(std::abs(u(3, 7)), 1.0, 1e-10);
  EXPECT_NEAR(std::abs(u(0, 0)), 1.0, 1e-10);
  EXPECT_NEAR(std::abs(u(5, 5)), 1.0, 1e-10);
}

TEST(Circuit, ActiveQubits) {
  Circuit c(5);
  c.h(1);
  c.cx(1, 3);
  const auto active = c.active_qubits();
  EXPECT_EQ(active, (std::vector<int>{1, 3}));
}

TEST(Circuit, HasMeasurements) {
  Circuit c(1);
  EXPECT_FALSE(c.has_measurements());
  c.measure(0, 0);
  EXPECT_TRUE(c.has_measurements());
}

TEST(Circuit, MeasureAllRequiresClbits) {
  Circuit c(3, 1);
  EXPECT_THROW(c.measure_all(), std::logic_error);
}

TEST(Circuit, InverseReversesAndInverts) {
  Circuit c(2);
  c.h(0);
  c.s(1);
  c.cx(0, 1);
  const Circuit inv = c.inverse();
  ASSERT_EQ(inv.size(), 3u);
  EXPECT_EQ(inv.ops()[0].kind, GateKind::CX);
  EXPECT_EQ(inv.ops()[1].kind, GateKind::Sdg);
  EXPECT_EQ(inv.ops()[2].kind, GateKind::H);

  Circuit full = c;
  full.compose(inv);
  const Matrix u = full.to_unitary();
  EXPECT_TRUE(u.approx_equal(Matrix::identity(4), 1e-10));
}

TEST(Circuit, InverseRejectsMeasured) {
  Circuit c(1);
  c.measure(0, 0);
  EXPECT_THROW((void)c.inverse(), std::logic_error);
}

TEST(Circuit, ComposeWithMapAndClbitOffset) {
  Circuit big(4, 4);
  Circuit small(2, 2);
  small.h(0);
  small.measure(0, 0);
  small.measure(1, 1);
  const std::vector<int> map{2, 3};
  big.compose(small, map, 2);
  EXPECT_EQ(big.ops()[0].qubits[0], 2);
  EXPECT_EQ(big.ops()[1].clbit, 2);
  EXPECT_EQ(big.ops()[2].clbit, 3);
}

TEST(Circuit, ComposeRejectsWide) {
  Circuit narrow(1);
  const Circuit wide(2);
  EXPECT_THROW(narrow.compose(wide), std::invalid_argument);
}

TEST(Circuit, ToUnitaryBellState) {
  Circuit c(2);
  c.h(0);
  c.cx(0, 1);
  const Matrix u = c.to_unitary();
  // Column 0 is the Bell state (|00> + |11>)/sqrt(2).
  EXPECT_NEAR(u(0, 0).real(), std::numbers::sqrt2 / 2.0, 1e-12);
  EXPECT_NEAR(u(3, 0).real(), std::numbers::sqrt2 / 2.0, 1e-12);
  EXPECT_NEAR(std::abs(u(1, 0)), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(u(2, 0)), 0.0, 1e-12);
}

TEST(Circuit, BarrierDefaultsToAllQubits) {
  Circuit c(3);
  c.barrier();
  EXPECT_EQ(c.ops()[0].qubits.size(), 3u);
  c.barrier({1});
  EXPECT_EQ(c.ops()[1].qubits, (std::vector<int>{1}));
}

}  // namespace
}  // namespace qucp
