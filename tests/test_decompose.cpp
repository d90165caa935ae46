#include "circuit/decompose.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace qucp {
namespace {

TEST(Decompose, SwapBecomesThreeCx) {
  Circuit c(2);
  c.swap(0, 1);
  const Circuit out = lower_to_cx_basis(c);
  EXPECT_EQ(out.size(), 3u);
  for (const Gate& g : out.ops()) EXPECT_EQ(g.kind, GateKind::CX);
  EXPECT_TRUE(out.to_unitary().approx_equal(c.to_unitary(), 1e-12));
}

TEST(Decompose, SwapOrientationAlternates) {
  Circuit c(2);
  c.swap(0, 1);
  const Circuit out = lower_to_cx_basis(c);
  EXPECT_EQ(out.ops()[0].qubits, (std::vector<int>{0, 1}));
  EXPECT_EQ(out.ops()[1].qubits, (std::vector<int>{1, 0}));
  EXPECT_EQ(out.ops()[2].qubits, (std::vector<int>{0, 1}));
}

TEST(Decompose, CzBecomesHCxH) {
  Circuit c(2);
  c.cz(0, 1);
  const Circuit out = lower_to_cx_basis(c);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out.ops()[0], (Gate{GateKind::H, {1}, {}}));
  EXPECT_EQ(out.ops()[1], (Gate{GateKind::CX, {0, 1}, {}}));
  EXPECT_EQ(out.ops()[2], (Gate{GateKind::H, {1}, {}}));
  EXPECT_TRUE(out.to_unitary().approx_equal(c.to_unitary(), 1e-12));
}

TEST(Decompose, LowerToCxBasisHandlesBoth) {
  Circuit c(3);
  c.h(0);
  c.swap(0, 1);
  c.cz(1, 2);
  c.measure_all();
  const Circuit out = lower_to_cx_basis(c);
  for (const Gate& g : out.ops()) {
    EXPECT_NE(g.kind, GateKind::SWAP);
    EXPECT_NE(g.kind, GateKind::CZ);
  }
  EXPECT_EQ(out.two_qubit_count(), 4);  // 3 from swap + 1 from cz
  EXPECT_EQ(out.count_ops().at("measure"), 3);
}

TEST(Decompose, ExpandsInPlaceAndKeepsEveryOtherOp) {
  // One walk: each SWAP/CZ expands where it stands, in either operand
  // order, and every other op (parameters, clbits, barriers) is copied
  // unchanged; the output is exactly as long as the expansion needs.
  Circuit c(3, 3, "mixed");
  c.rz(0.3, 2);
  c.cz(2, 0);
  c.barrier();
  c.swap(1, 0);
  c.u3(0.1, 0.2, 0.3, 1);
  c.cz(0, 1);
  c.measure(2, 1);
  const Circuit out = lower_to_cx_basis(c);
  const std::vector<Gate> want = {
      {GateKind::RZ, {2}, {0.3}},   {GateKind::H, {0}, {}},
      {GateKind::CX, {2, 0}, {}},   {GateKind::H, {0}, {}},
      c.ops()[2],                   {GateKind::CX, {1, 0}, {}},
      {GateKind::CX, {0, 1}, {}},   {GateKind::CX, {1, 0}, {}},
      c.ops()[4],                   {GateKind::H, {1}, {}},
      {GateKind::CX, {0, 1}, {}},   {GateKind::H, {1}, {}},
      c.ops()[6]};
  EXPECT_EQ(out.ops(), want);
  EXPECT_EQ(out.ops().capacity(), want.size());
  EXPECT_EQ(out.name(), "mixed");
  EXPECT_EQ(out.num_clbits(), 3);
}

TEST(Decompose, PreservesSemanticsOnMixedCircuit) {
  Circuit c(3);
  c.h(0);
  c.t(1);
  c.swap(1, 2);
  c.cz(0, 2);
  c.rz(0.3, 1);
  const Matrix before = c.to_unitary();
  EXPECT_TRUE(lower_to_cx_basis(c).to_unitary().approx_equal(before, 1e-10));
}

TEST(Decompose, NoOpOnPlainCircuit) {
  Circuit c(2);
  c.h(0);
  c.cx(0, 1);
  const Circuit out = lower_to_cx_basis(c);
  EXPECT_EQ(out.ops(), c.ops());
}

}  // namespace
}  // namespace qucp
