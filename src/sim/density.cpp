#include "sim/density.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "sim/fusion.hpp"
#include "sim/kernels.hpp"

namespace qucp {

/// Uniform-Pauli channel via the twirl identity:
///   sum_{all P} P rho P = 4^m * ptrace(rho) (x) I/2^m
/// so rho' = c1 * rho + c2 * [ptrace(rho) (x) I/2^m].
kern::DepolCoeffs depolarizing_coeffs(double p, int k) {
  if (p < 0.0 || p > 1.0) {
    throw std::invalid_argument("DensityMatrix: depolarizing p outside [0,1]");
  }
  const double pauli_dim = std::pow(4.0, k);
  const double c2 = p * pauli_dim / (pauli_dim - 1.0);
  return {1.0 - c2, c2, std::ldexp(1.0, -k)};
}

/// Fused amplitude-damping (gamma) + pure-dephasing (lambda) channel in
/// closed form. With m the qubit mask, each 2x2 sub-block
/// [[p00, p01], [p10, p11]] over (row bit, col bit) maps to
///   [[p00 + gamma p11,     sqrt(1-gamma)sqrt(1-lambda) p01],
///    [sqrt(..)sqrt(..) p10,               (1-gamma) p11]]
/// — the composition of the AD Kraus pair {diag(1, sqrt(1-gamma)),
/// sqrt(gamma)|0><1|} and the PD pair {diag(1, sqrt(1-lambda)),
/// sqrt(lambda)|1><1|}. Both pairs are complete by construction, so the
/// full trace-preservation check reduces to a parameter-range guard (also
/// rejects NaN from a NaN duration). Requires duration_ns > 0.
kern::RelaxCoeffs relaxation_coeffs(const Relaxation& r) {
  if (r.t1_us <= 0.0 || r.t2_us <= 0.0) {
    throw std::invalid_argument("DensityMatrix: non-positive T1/T2");
  }
  const double t_us = r.duration_ns * 1e-3;
  const double gamma = 1.0 - std::exp(-t_us / r.t1_us);
  // Pure dephasing rate: 1/Tphi = 1/T2 - 1/(2 T1); clamp at 0 when T2 is
  // reported above the 2*T1 physical limit.
  const double inv_tphi = std::max(0.0, 1.0 / r.t2_us - 0.5 / r.t1_us);
  const double lambda = 1.0 - std::exp(-t_us * inv_tphi);
  if (!(gamma >= 0.0 && gamma <= 1.0) || !(lambda >= 0.0 && lambda <= 1.0)) {
    throw std::invalid_argument(
        "DensityMatrix: relaxation channel parameters outside [0,1]");
  }
  return {gamma,
          std::sqrt(std::max(0.0, 1.0 - gamma)) *
              std::sqrt(std::max(0.0, 1.0 - lambda)),
          1.0 - gamma};
}

namespace {

/// Validated before dim_ shifts by it.
int checked_qubit_count(int num_qubits) {
  if (num_qubits < 0 || num_qubits > 12) {
    throw std::invalid_argument("DensityMatrix: unsupported qubit count");
  }
  return num_qubits;
}

}  // namespace

DensityMatrix::DensityMatrix(int num_qubits)
    : num_qubits_(checked_qubit_count(num_qubits)),
      dim_(std::size_t{1} << num_qubits_) {
  rho_.assign(dim_ * dim_, cx{0.0, 0.0});
  rho_[0] = 1.0;
}

void DensityMatrix::check_qubits(std::span<const int> qubits) const {
  for (int q : qubits) {
    if (q < 0 || q >= num_qubits_) {
      throw std::out_of_range("DensityMatrix: qubit out of range");
    }
  }
}

void DensityMatrix::apply_noisy_gate(const FusedOp& op,
                                     std::span<const int> qubits,
                                     std::span<const Relaxation> idle,
                                     double depol_p) {
  check_qubits(qubits);
  const int k = static_cast<int>(qubits.size());
  if (k != op.k() || (!idle.empty() && idle.size() != qubits.size())) {
    throw std::invalid_argument("DensityMatrix: matrix/operand mismatch");
  }
  if (k == 2 && op.sv.tag != op.dm.tag) {
    throw std::invalid_argument("DensityMatrix: row/column pass tags differ");
  }
  std::size_t operands = 0;
  for (int q : qubits) operands |= std::size_t{1} << q;
  if ((operands & settled_) != 0) {
    throw std::invalid_argument("DensityMatrix: gate on a settled qubit");
  }
  kern::NoisyGate g;
  g.qubits = qubits;
  g.col = &op.dm;
  g.row = k == 2 ? &op.sv : nullptr;
  kern::RelaxCoeffs relax[2];
  for (std::size_t i = 0; i < idle.size(); ++i) {
    if (idle[i].duration_ns <= 0.0) continue;
    relax[i] = relaxation_coeffs(idle[i]);
    g.relax[i] = &relax[i];
  }
  kern::DepolCoeffs depol;
  if (depol_p != 0.0) {
    depol = depolarizing_coeffs(depol_p, k);
    g.depol = &depol;
  }
  walk(g, operands);
}

void DensityMatrix::apply_relaxation(int qubit, double duration_ns,
                                     double t1_us, double t2_us) {
  check_qubits(std::span<const int>(&qubit, 1));
  if (duration_ns <= 0.0) return;
  const kern::RelaxCoeffs relax =
      relaxation_coeffs({duration_ns, t1_us, t2_us});
  kern::NoisyGate g;
  g.qubits = std::span<const int>(&qubit, 1);
  g.relax[0] = &relax;
  walk(g, std::size_t{1} << qubit);
}

void DensityMatrix::walk(kern::NoisyGate g, std::size_t operands) {
  touched_ |= operands;
  const std::size_t fresh = (dim_ - 1) & ~touched_;
  g.zero = fresh | (fresh << num_qubits_);
  g.tied = settled_ & ~operands;
  kern::apply_noisy_gate(rho_, num_qubits_, g);
}

void DensityMatrix::settle(int qubit) {
  check_qubits(std::span<const int>(&qubit, 1));
  settled_ |= std::size_t{1} << qubit;
}

std::vector<double> DensityMatrix::probabilities() const {
  std::vector<double> probs(dim_);
  for (std::size_t i = 0; i < dim_; ++i) {
    probs[i] = std::max(0.0, rho_[i * dim_ + i].real());
  }
  return probs;
}

}  // namespace qucp
