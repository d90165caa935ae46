#pragma once
// Test-only density-matrix oracles. DensityMatrix takes every gate as a
// compiled FusedOp (apply_noisy_gate); kept here are the Matrix -> superket
// transform the compiled forms are pinned against bit for bit, per-op
// compilation of a circuit, gate-only replay of a FusedOp stream, and
// invariants read off the elements.

#include <cmath>
#include <complex>
#include <span>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/matrix.hpp"
#include "sim/density.hpp"
#include "sim/fusion.hpp"
#include "sim/kernels.hpp"

namespace qucp::reference {

/// The 4x4 U (x) conj(U) of a 1q unitary `d` — the superket form of
/// rho -> U rho U^dagger on bits (q + n, q).
inline void superket1(const cx* d, cx ku[16]) {
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      for (int rr = 0; rr < 2; ++rr) {
        for (int cc = 0; cc < 2; ++cc) {
          ku[(2 * r + rr) * 4 + (2 * c + cc)] =
              d[2 * r + c] * std::conj(d[2 * rr + cc]);
        }
      }
    }
  }
}

/// The elementwise conjugate of a 4x4, for a 2q gate's column pass.
inline void conj4(const cx* d, cx uc[16]) {
  for (int i = 0; i < 16; ++i) uc[i] = std::conj(d[i]);
}

/// rho -> U rho U^dagger for a 1q or 2q Matrix (qubits[0] = high local bit)
/// on an n-qubit superket: a 1q gate is one pass of the 4x4 U (x) conj(U) on
/// bits (q + n, q), a 2q gate a pass of U on the row bits, then of conj(U)
/// on the column bits, each compiled on the spot.
inline void apply_matrix(std::vector<cx>& rho, int n, const Matrix& u,
                         std::span<const int> qubits) {
  const std::span<const cx> d = u.data();
  if (qubits.size() == 1) {
    cx ku[16];
    superket1(d.data(), ku);
    const int bits[2] = {qubits[0] + n, qubits[0]};
    kern::apply_compiled(rho, 2 * n, bits, kern::compile_unitary(ku));
    return;
  }
  const int rows[2] = {qubits[0] + n, qubits[1] + n};
  kern::apply_compiled(rho, 2 * n, rows, kern::compile_unitary(d));
  cx uc[16];
  conj4(d.data(), uc);
  kern::apply_compiled(rho, 2 * n, qubits, kern::compile_unitary(uc));
}

/// Per-op (unfused) kernel compilation of an arbitrary circuit, each gate
/// compiled on its own from its Matrix: entry i corresponds to
/// circuit.ops()[i]; barrier/measure positions are placeholders with
/// is_unitary() == false.
inline std::vector<FusedOp> compile_ops(const Circuit& circuit) {
  std::vector<FusedOp> out(circuit.size());
  for (std::size_t i = 0; i < circuit.size(); ++i) {
    const Gate& g = circuit.ops()[i];
    if (!is_unitary_gate(g.kind)) continue;
    const Matrix u = gate_matrix(g);
    FusedOp& op = out[i];
    op.q[0] = g.qubits[0];
    op.sv = kern::compile_unitary(u.data());
    cx dm[16];
    if (g.qubits.size() == 1) {
      superket1(u.data().data(), dm);
    } else {
      op.q[1] = g.qubits[1];
      conj4(u.data().data(), dm);
    }
    op.dm = kern::compile_unitary(std::span<const cx>(dm, 16));
  }
  return out;
}

/// Gate-only replay (no idle windows, no depolarizing) of a FusedOp stream
/// — CompiledProgram::ops() or compile_ops() — skipping the placeholders
/// at barrier/measure positions.
inline void apply_ops(DensityMatrix& dm, std::span<const FusedOp> ops) {
  for (const FusedOp& op : ops) {
    if (!op.is_unitary()) continue;
    dm.apply_noisy_gate(op, std::span<const int>(op.q, op.sv.k), {}, 0.0);
  }
}

/// One gate, compiled on its own, then depolarizing p on its operands.
inline void apply_gate(DensityMatrix& dm, const Gate& g, double p = 0.0) {
  Circuit c(dm.num_qubits());
  c.append(g);
  dm.apply_noisy_gate(compile_ops(c).front(), g.qubits, {}, p);
}

/// Re tr(rho) and tr(rho^2) = sum |rho_rc|^2 of a Hermitian row-major rho.
inline double trace(std::span<const cx> rho, std::size_t dim) {
  double t = 0.0;
  for (std::size_t i = 0; i < dim; ++i) t += rho[i * dim + i].real();
  return t;
}
inline double purity(std::span<const cx> rho) {
  double t = 0.0;
  for (const cx& v : rho) t += std::norm(v);
  return t;
}

}  // namespace qucp::reference
