#include "sim/density.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "reference_density.hpp"
#include "sim/fusion.hpp"
#include "sim/statevector.hpp"

namespace qucp {
namespace {

using reference::apply_gate;

double trace(const DensityMatrix& dm) {
  return reference::trace(dm.data(), dm.dim());
}

double purity(const DensityMatrix& dm) {
  return reference::purity(dm.data());
}

TEST(DensityMatrix, PureEvolutionMatchesStatevector) {
  Circuit c(3);
  c.h(0);
  c.cx(0, 1);
  c.t(2);
  c.cx(1, 2);
  c.ry(0.3, 0);

  DensityMatrix dm(3);
  Statevector sv(3);
  reference::apply_ops(dm, reference::compile_ops(c));
  sv.apply_circuit(c);

  const auto dp = dm.probabilities();
  const auto sp = sv.probabilities();
  for (std::size_t i = 0; i < dp.size(); ++i) {
    EXPECT_NEAR(dp[i], sp[i], 1e-12) << i;
  }
  EXPECT_NEAR(purity(dm), 1.0, 1e-12);
  EXPECT_NEAR(trace(dm), 1.0, 1e-12);
}

TEST(DensityMatrix, FullDepolarizingGivesUniform) {
  DensityMatrix dm(1);
  apply_gate(dm, {GateKind::I, {0}, {}}, 0.75);
  // p = 0.75 with the uniform-Pauli convention is the fully depolarizing
  // channel on one qubit: rho -> I/2.
  const auto probs = dm.probabilities();
  EXPECT_NEAR(probs[0], 0.5, 1e-12);
  EXPECT_NEAR(probs[1], 0.5, 1e-12);
  EXPECT_NEAR(purity(dm), 0.5, 1e-12);
}

TEST(DensityMatrix, DepolarizingPreservesTrace) {
  DensityMatrix dm(2);
  apply_gate(dm, {GateKind::H, {0}, {}});
  apply_gate(dm, {GateKind::CX, {0, 1}, {}}, 0.1);
  EXPECT_NEAR(trace(dm), 1.0, 1e-12);
  EXPECT_LT(purity(dm), 1.0);
}

TEST(DensityMatrix, DepolarizingZeroIsNoOp) {
  DensityMatrix dm(2);
  apply_gate(dm, {GateKind::H, {0}, {}});
  apply_gate(dm, {GateKind::CX, {0, 1}, {}}, 0.0);
  EXPECT_NEAR(purity(dm), 1.0, 1e-12);
}

TEST(DensityMatrix, DepolarizingValidatesP) {
  DensityMatrix dm(1);
  EXPECT_THROW(apply_gate(dm, {GateKind::I, {0}, {}}, -0.1),
               std::invalid_argument);
  EXPECT_THROW(apply_gate(dm, {GateKind::I, {0}, {}}, 1.1),
               std::invalid_argument);
}

TEST(DensityMatrix, DepolarizingOnSubsetOnly) {
  // Depolarize qubit 0 of |+>|1>: qubit 1 stays deterministic.
  DensityMatrix dm(2);
  apply_gate(dm, {GateKind::H, {0}, {}});
  apply_gate(dm, {GateKind::X, {1}, {}});
  apply_gate(dm, {GateKind::I, {0}, {}}, 0.75);
  const auto probs = dm.probabilities();
  // q1 = 1 always: outcomes 2 (10) and 3 (11) each 0.5.
  EXPECT_NEAR(probs[0] + probs[1], 0.0, 1e-12);
  EXPECT_NEAR(probs[2], 0.5, 1e-12);
  EXPECT_NEAR(probs[3], 0.5, 1e-12);
}

TEST(DensityMatrix, KrausAmplitudeDampingFixesGround) {
  DensityMatrix dm(1);
  dm.apply_relaxation(0, 1e6, 50.0, 40.0);  // long idle on |0>
  EXPECT_NEAR(dm.probabilities()[0], 1.0, 1e-9);
}

TEST(DensityMatrix, RelaxationDecaysExcitedState) {
  DensityMatrix dm(1);
  apply_gate(dm, {GateKind::X, {0}, {}});
  // t = T1: survival should be exp(-1).
  dm.apply_relaxation(0, 50.0 * 1000.0, 50.0, 40.0);
  EXPECT_NEAR(dm.probabilities()[1], std::exp(-1.0), 1e-9);
  EXPECT_NEAR(trace(dm), 1.0, 1e-12);
}

TEST(DensityMatrix, DephasingKillsCoherence) {
  DensityMatrix dm(1);
  apply_gate(dm, {GateKind::H, {0}, {}});
  const double purity_before = purity(dm);
  dm.apply_relaxation(0, 1e6, 1e9, 10.0);  // pure dephasing regime
  EXPECT_LT(purity(dm), purity_before);
  // Populations (almost) unchanged: amplitude damping at T1 = 1e9 us
  // contributes only ~1e-6 over this idle window.
  EXPECT_NEAR(dm.probabilities()[0], 0.5, 1e-5);
  EXPECT_NEAR(dm.probabilities()[1], 0.5, 1e-5);
}

TEST(DensityMatrix, RelaxationValidatesT1T2) {
  DensityMatrix dm(1);
  EXPECT_THROW(dm.apply_relaxation(0, 100.0, 0.0, 40.0),
               std::invalid_argument);
  EXPECT_THROW(dm.apply_relaxation(0, 100.0, 50.0, -1.0),
               std::invalid_argument);
  // A non-positive window is no relaxation, whatever T1/T2 say.
  EXPECT_NO_THROW(dm.apply_relaxation(0, 0.0, 0.0, 0.0));
}

TEST(DensityMatrix, InfiniteT1T2IsIdentityRelaxation) {
  // A calibration with infinite T1/T2 switches idle noise off: every idle
  // window gets the exact identity coefficients.
  const double forever = std::numeric_limits<double>::infinity();
  for (const double gap_ns : {1e-6, 35.0, 1e9}) {
    const kern::RelaxCoeffs c = relaxation_coeffs({gap_ns, forever, forever});
    EXPECT_EQ(c.gamma, 0.0) << gap_ns;
    EXPECT_EQ(c.decay, 1.0) << gap_ns;
    EXPECT_EQ(c.keep, 1.0) << gap_ns;
  }
}

TEST(DensityMatrix, ExpectationOfZ) {
  // <Z> = p(0) - p(1), read off the diagonal.
  const auto z = [](const DensityMatrix& dm) {
    const auto probs = dm.probabilities();
    return probs[0] - probs[1];
  };
  DensityMatrix dm(1);
  EXPECT_NEAR(z(dm), 1.0, 1e-12);
  apply_gate(dm, {GateKind::X, {0}, {}});
  EXPECT_NEAR(z(dm), -1.0, 1e-12);
  apply_gate(dm, {GateKind::I, {0}, {}}, 0.75);
  EXPECT_NEAR(z(dm), 0.0, 1e-12);
}

TEST(DensityMatrix, QubitRangeChecked) {
  DensityMatrix dm(2);
  const int out_of_range = 5;
  EXPECT_THROW(dm.apply_noisy_gate(fixed_kernel(GateKind::X),
                                   std::span<const int>(&out_of_range, 1), {},
                                   0.0),
               std::out_of_range);
  EXPECT_THROW(dm.apply_relaxation(2, 10.0, 50.0, 40.0), std::out_of_range);
  EXPECT_THROW(DensityMatrix(-1), std::invalid_argument);
  EXPECT_THROW(DensityMatrix(20), std::invalid_argument);
}

TEST(DensityMatrix, TwoQubitGateConvention) {
  // CX with control = first operand, matching the statevector simulator.
  DensityMatrix dm(2);
  apply_gate(dm, {GateKind::X, {0}, {}});
  apply_gate(dm, {GateKind::CX, {0, 1}, {}});
  EXPECT_NEAR(dm.probabilities()[3], 1.0, 1e-12);
}

}  // namespace
}  // namespace qucp
