#pragma once
// Test-only scalar oracles for kern::apply_noisy_gate: the noise channels
// as one full sweep each over an n-qubit superket (column bit q, row bit
// q + n), with the per-quad / per-block formulas of the scalar sweep in
// src/sim/kernels.cpp, and the multi-pass channel sequence that sweep
// fuses. With native kernels off (kern::set_native_kernels(false)) the
// sequence reproduces the sweep bit for bit on every entry; units that
// include this header are built with -ffp-contract=off, as kernels.cpp
// is, so the formulas round alike.

#include <cstddef>
#include <span>
#include <vector>

#include "common/matrix.hpp"
#include "sim/kernels.hpp"

namespace qucp::reference {

/// Relaxation on qubit q: every quad over its (row, column) bits.
inline void relax1(std::vector<cx>& rho, int n, int q,
                   const kern::RelaxCoeffs& c) {
  const std::size_t mc = std::size_t{1} << q;
  const std::size_t mr = mc << n;
  for (std::size_t base = 0; base < rho.size(); ++base) {
    if ((base & (mr | mc)) != 0) continue;
    const cx p11 = rho[base | mr | mc];
    rho[base] += c.gamma * p11;
    rho[base | mc] *= c.decay;
    rho[base | mr] *= c.decay;
    rho[base | mr | mc] = c.keep * p11;
  }
}

/// Depolarizing on one or two qubits (qubits[0] = high local bit): every
/// 2^k x 2^k local block over their row and column bits.
inline void depolarize(std::vector<cx>& rho, int n,
                       std::span<const int> qubits,
                       const kern::DepolCoeffs& c) {
  const std::size_t k = qubits.size();
  const std::size_t ldim = std::size_t{1} << k;
  std::size_t col_off[4] = {};
  std::size_t row_off[4] = {};
  for (std::size_t s = 0; s < ldim; ++s) {
    for (std::size_t j = 0; j < k; ++j) {
      if ((s >> (k - 1 - j)) & 1U) col_off[s] |= std::size_t{1} << qubits[j];
    }
    row_off[s] = col_off[s] << n;
  }
  const std::size_t block = row_off[ldim - 1] | col_off[ldim - 1];
  for (std::size_t base = 0; base < rho.size(); ++base) {
    if ((base & block) != 0) continue;
    if (k == 1) {
      const cx p00 = rho[base];
      const cx p11 = rho[base | block];
      const cx fill = c.c2 * (p00 + p11) * c.inv_ldim;
      rho[base] = c.c1 * p00 + fill;
      rho[base | col_off[1]] *= c.c1;
      rho[base | row_off[1]] *= c.c1;
      rho[base | block] = c.c1 * p11 + fill;
      continue;
    }
    cx traced{0.0, 0.0};
    for (std::size_t s = 0; s < ldim; ++s) {
      traced += rho[base | row_off[s] | col_off[s]];
    }
    const cx fill = c.c2 * traced * c.inv_ldim;
    for (std::size_t sr = 0; sr < ldim; ++sr) {
      for (std::size_t sc = 0; sc < ldim; ++sc) {
        cx& v = rho[base | row_off[sr] | col_off[sc]];
        v *= c.c1;
        if (sr == sc) v += fill;
      }
    }
  }
}

/// The sequence kern::apply_noisy_gate fuses, one full sweep per step:
/// relaxation per operand, the gate (row pass, then column pass, through
/// kern::apply_compiled), depolarizing. g's masks are ignored.
inline void channel_sequence(std::vector<cx>& rho, int n,
                             const kern::NoisyGate& g) {
  const std::span<const int> q = g.qubits;
  for (std::size_t j = 0; j < q.size(); ++j) {
    if (g.relax[j] != nullptr) relax1(rho, n, q[j], *g.relax[j]);
  }
  if (q.size() == 1) {
    const int bits[2] = {q[0] + n, q[0]};
    if (g.col != nullptr) kern::apply_compiled(rho, 2 * n, bits, *g.col);
  } else {
    const int rows[2] = {q[0] + n, q[1] + n};
    kern::apply_compiled(rho, 2 * n, rows, *g.row);
    kern::apply_compiled(rho, 2 * n, q, *g.col);
  }
  if (g.depol != nullptr) depolarize(rho, n, q, *g.depol);
}

}  // namespace qucp::reference
