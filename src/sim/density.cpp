#include "sim/density.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "sim/fusion.hpp"
#include "sim/kernels.hpp"

namespace qucp {

namespace {

/// Uniform-Pauli channel via the twirl identity:
///   sum_{all P} P rho P = 4^m * ptrace(rho) (x) I/2^m
/// so rho' = c1 * rho + c2 * [ptrace(rho) (x) I/2^m].
kern::DepolCoeffs depol_coeffs(double p, int k) {
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
kern::RelaxCoeffs relax_coeffs(const Relaxation& r) {
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

void DensityMatrix::transform_two_sided(const Matrix& u,
                                        std::span<const int> qubits) {
  const int k = static_cast<int>(qubits.size());
  const int n2 = 2 * num_qubits_;
  const std::span<cx> amps(rho_);
  if (k == 1) {
    // Single fused pass: U (x) conj(U) is a 4x4 superket gate on bits
    // (q + n, q) — one sweep over rho instead of a row and a column pass.
    const std::span<const cx> d = u.data();
    cx ku[16];
    for (int r = 0; r < 2; ++r) {
      for (int c = 0; c < 2; ++c) {
        const cx scale = d[static_cast<std::size_t>(2 * r + c)];
        for (int rr = 0; rr < 2; ++rr) {
          for (int cc = 0; cc < 2; ++cc) {
            ku[(2 * r + rr) * 4 + (2 * c + cc)] =
                scale * std::conj(d[static_cast<std::size_t>(2 * rr + cc)]);
          }
        }
      }
    }
    kern::apply2(amps, n2, qubits[0] + num_qubits_, qubits[0], ku);
    return;
  }
  // Row pass: U on the row bits (superket positions q + n).
  int row_targets[16];
  for (int j = 0; j < k; ++j) row_targets[j] = qubits[j] + num_qubits_;
  kern::apply_unitary(amps, n2, std::span<const int>(row_targets, qubits.size()),
                      u.data(), /*conjugate=*/false, kernel_scratch_);
  // Column pass: conj(U) on the column bits (superket positions q).
  kern::apply_unitary(amps, n2, qubits, u.data(), /*conjugate=*/true,
                      kernel_scratch_);
}

void DensityMatrix::apply_unitary(const Matrix& u,
                                  std::span<const int> qubits) {
  check_qubits(qubits);
  const std::size_t ldim = std::size_t{1} << qubits.size();
  if (u.rows() != ldim || u.cols() != ldim) {
    throw std::invalid_argument("DensityMatrix: matrix/operand mismatch");
  }
  if (qubits.empty()) {
    // 1x1 "unitary": a global scalar u rho conj(u).
    const cx s = u(0, 0) * std::conj(u(0, 0));
    for (cx& v : rho_) v *= s;
    return;
  }
  transform_two_sided(u, qubits);
}

void DensityMatrix::apply_compiled(const FusedOp& op,
                                   std::span<const int> qubits) {
  apply_noisy_gate(op, qubits, {}, 0.0);
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
  kern::NoisyGate g;
  g.qubits = qubits;
  g.col = &op.dm;
  g.row = k == 2 ? &op.sv : nullptr;
  kern::RelaxCoeffs relax[2];
  for (std::size_t i = 0; i < idle.size(); ++i) {
    if (idle[i].duration_ns <= 0.0) continue;
    relax[i] = relax_coeffs(idle[i]);
    g.relax[i] = &relax[i];
  }
  kern::DepolCoeffs depol;
  if (depol_p != 0.0) {
    depol = depol_coeffs(depol_p, k);
    g.depol = &depol;
  }
  kern::apply_noisy_gate(rho_, num_qubits_, g);
}

void DensityMatrix::run(const CompiledProgram& program) {
  if (program.num_qubits() != num_qubits_) {
    throw std::invalid_argument("DensityMatrix: qubit count mismatch");
  }
  for (const FusedOp& op : program.ops()) {
    apply_compiled(op, std::span<const int>(op.q, op.k()));
  }
}

void DensityMatrix::apply_depolarizing(double p, std::span<const int> qubits) {
  const int k = static_cast<int>(qubits.size());
  const kern::DepolCoeffs coeffs = depol_coeffs(p, k);
  if (p == 0.0) return;
  check_qubits(qubits);
  // One fused pass per local block for the only sizes the executor emits:
  // each 2^k x 2^k block needs only its own elements (trace of the local
  // diagonal, uniform contraction, refill), so no scratch or extra sweeps.
  if (k == 1 || k == 2) {
    kern::depolarize(rho_, num_qubits_, qubits, coeffs);
    return;
  }
  const std::size_t ldim = std::size_t{1} << k;
  const double c1 = coeffs.c1;
  const double c2 = coeffs.c2;
  const double inv_ldim = coeffs.inv_ldim;

  // Superket positions of the 2k target bits, ascending, for base
  // enumeration; per-local-value offsets onto the local diagonal (s, s).
  int positions[32];
  for (int j = 0; j < k; ++j) positions[j] = qubits[j];
  std::sort(positions, positions + k);
  for (int j = 0; j < k; ++j) positions[k + j] = positions[j] + num_qubits_;

  offset_scratch_.assign(ldim, 0);
  for (std::size_t s = 0; s < ldim; ++s) {
    std::size_t off = 0;
    for (int j = 0; j < k; ++j) {
      if ((s >> (k - 1 - j)) & 1U) {
        off |= (std::size_t{1} << qubits[j]) |
               (std::size_t{1} << (qubits[j] + num_qubits_));
      }
    }
    offset_scratch_[s] = off;
  }

  const std::size_t bases = (dim_ * dim_) >> (2 * k);
  auto expand = [&](std::size_t t) {
    for (int j = 0; j < 2 * k; ++j) t = kern::insert_bit(t, positions[j]);
    return t;
  };

  // Pass 1: partial trace of every (row-base, col-base) block, taken from
  // the pre-scaled state.
  trace_scratch_.assign(bases, cx{0.0, 0.0});
  cx* rho = rho_.data();
  cx* traces = trace_scratch_.data();
  const std::size_t* offs = offset_scratch_.data();
  kern::parallel_for(bases, [&](std::size_t begin, std::size_t end) {
    for (std::size_t t = begin; t < end; ++t) {
      const std::size_t base = expand(t);
      cx acc{0.0, 0.0};
      for (std::size_t s = 0; s < ldim; ++s) acc += rho[base + offs[s]];
      traces[t] = acc;
    }
  });
  // Pass 2: uniform contraction toward zero.
  kern::parallel_for(rho_.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) rho[i] *= c1;
  });
  // Pass 3: refill the local diagonal with the traced mass.
  kern::parallel_for(bases, [&](std::size_t begin, std::size_t end) {
    for (std::size_t t = begin; t < end; ++t) {
      const std::size_t base = expand(t);
      const cx fill = c2 * traces[t] * inv_ldim;
      for (std::size_t s = 0; s < ldim; ++s) rho[base + offs[s]] += fill;
    }
  });
}

void DensityMatrix::apply_kraus(std::span<const Matrix> kraus,
                                std::span<const int> qubits, bool validate) {
  check_qubits(qubits);
  if (kraus.empty()) {
    throw std::invalid_argument("DensityMatrix: empty Kraus set");
  }
  const std::size_t ldim = std::size_t{1} << qubits.size();
  for (const Matrix& k : kraus) {
    if (k.rows() != ldim || k.cols() != ldim) {
      throw std::invalid_argument("DensityMatrix: matrix/operand mismatch");
    }
  }
  if (validate) {
    Matrix completeness(ldim, ldim);
    for (const Matrix& k : kraus) completeness += k.dagger() * k;
    if (!completeness.approx_equal(Matrix::identity(ldim), 1e-8)) {
      throw std::invalid_argument(
          "DensityMatrix: Kraus set not trace-preserving");
    }
  }

  // K rho K^dagger runs through the same superket transform as a unitary —
  // the transform itself never requires unitarity.
  if (kraus.size() == 1) {
    transform_two_sided(kraus[0], qubits);
    return;
  }
  kraus_orig_.assign(rho_.begin(), rho_.end());
  kraus_acc_.assign(rho_.size(), cx{0.0, 0.0});
  for (std::size_t i = 0; i < kraus.size(); ++i) {
    if (i != 0) std::copy(kraus_orig_.begin(), kraus_orig_.end(), rho_.begin());
    transform_two_sided(kraus[i], qubits);
    for (std::size_t j = 0; j < rho_.size(); ++j) kraus_acc_[j] += rho_[j];
  }
  rho_.swap(kraus_acc_);
}

void DensityMatrix::apply_relaxation(int qubit, double duration_ns,
                                     double t1_us, double t2_us) {
  check_qubits(std::span<const int>(&qubit, 1));
  if (duration_ns <= 0.0) return;
  kern::relax1(rho_, num_qubits_, qubit,
               relax_coeffs({duration_ns, t1_us, t2_us}));
}

std::vector<double> DensityMatrix::probabilities() const {
  std::vector<double> probs(dim_);
  for (std::size_t i = 0; i < dim_; ++i) {
    probs[i] = std::max(0.0, rho_[i * dim_ + i].real());
  }
  return probs;
}

double DensityMatrix::expectation(const Matrix& observable) const {
  if (observable.rows() != dim_ || observable.cols() != dim_) {
    throw std::invalid_argument("DensityMatrix: observable shape mismatch");
  }
  cx acc{0.0, 0.0};
  for (std::size_t r = 0; r < dim_; ++r) {
    for (std::size_t c = 0; c < dim_; ++c) {
      acc += rho_[r * dim_ + c] * observable(c, r);
    }
  }
  return acc.real();
}

double DensityMatrix::trace_real() const {
  double t = 0.0;
  for (std::size_t i = 0; i < dim_; ++i) t += rho_[i * dim_ + i].real();
  return t;
}

double DensityMatrix::purity() const {
  double t = 0.0;
  for (std::size_t r = 0; r < dim_; ++r) {
    for (std::size_t c = 0; c < dim_; ++c) {
      t += std::norm(rho_[r * dim_ + c]);
    }
  }
  return t;
}

}  // namespace qucp
