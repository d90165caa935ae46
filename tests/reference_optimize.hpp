#pragma once
// The quadratic peephole fixpoint: the oracle optimize() and
// optimize_traced() are pinned against.
//
// The library's optimizer (circuit/optimize.cpp) keeps per-wire links over
// the alive ops so finding an op's successor on a wire is O(1). This is the
// fixpoint as it was written before those links: each successor query scans
// forward over the whole op list. Both must take every decision in the same
// order, so their outputs, OptimizeStats and traces (nodes, checks,
// out_exprs) are equal.

#include <cassert>
#include <cstdint>
#include <vector>

#include "circuit/optimize.hpp"

namespace qucp::reference {

namespace detail {

inline bool is_rotation(GateKind k) {
  return k == GateKind::RX || k == GateKind::RY || k == GateKind::RZ ||
         k == GateKind::U1;
}

/// Operand-sensitive inverse-pair test for gates of equal qubit sets.
inline bool is_inverse_pair(const Gate& a, const Gate& b) {
  auto same_ordered = [&] { return a.qubits == b.qubits; };
  auto same_unordered = [&] {
    return same_ordered() ||
           (a.qubits.size() == 2 && a.qubits[0] == b.qubits[1] &&
            a.qubits[1] == b.qubits[0]);
  };
  switch (a.kind) {
    case GateKind::X:
    case GateKind::Y:
    case GateKind::Z:
    case GateKind::H:
      return b.kind == a.kind && same_ordered();
    case GateKind::CX:
      return b.kind == GateKind::CX && same_ordered();
    case GateKind::CZ:
      return b.kind == GateKind::CZ && same_unordered();
    case GateKind::SWAP:
      return b.kind == GateKind::SWAP && same_unordered();
    case GateKind::S:
      return b.kind == GateKind::Sdg && same_ordered();
    case GateKind::Sdg:
      return b.kind == GateKind::S && same_ordered();
    case GateKind::T:
      return b.kind == GateKind::Tdg && same_ordered();
    case GateKind::Tdg:
      return b.kind == GateKind::T && same_ordered();
    default:
      return false;
  }
}

}  // namespace detail

/// optimize() when `trace` is null, optimize_traced() otherwise (then
/// `in_exprs` must be sized like the circuit's ops).
inline Circuit optimize(
    const Circuit& circuit, OptimizeStats* stats = nullptr,
    const std::vector<ParamExprIds>* in_exprs = nullptr,
    OptimizeTrace* trace = nullptr) {
  using detail::is_inverse_pair;
  using detail::is_rotation;
  std::vector<Gate> ops = circuit.ops();
  std::vector<bool> alive(ops.size(), true);
  OptimizeStats local;
  const bool tracing = trace != nullptr;
  std::vector<ParamExprIds> exprs;
  if (tracing) {
    assert(in_exprs != nullptr && in_exprs->size() == ops.size());
    exprs = *in_exprs;
  }

  // Returns the first alive op index after `i` acting on qubit `q`, or -1.
  auto next_on_qubit = [&](std::size_t i, int q) -> long {
    for (std::size_t j = i + 1; j < ops.size(); ++j) {
      if (!alive[j]) continue;
      for (int oq : ops[j].qubits) {
        if (oq == q) return static_cast<long>(j);
      }
    }
    return -1;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (!alive[i]) continue;
      const Gate& g = ops[i];
      if (!is_unitary_gate(g.kind)) continue;

      // Identity removal — the fixpoint's only value-dependent branch, so
      // it is the only decision the trace needs to log.
      bool remove = g.kind == GateKind::I;
      if (!remove && is_rotation(g.kind)) {
        const bool ident = angle_is_identity(g.params[0]);
        if (tracing) trace->checks.push_back({exprs[i][0], ident});
        remove = ident;
      }
      if (remove) {
        alive[i] = false;
        ++local.removed_identities;
        changed = true;
        continue;
      }

      // The candidate partner must be the next op on *every* wire of g.
      long j = next_on_qubit(i, g.qubits[0]);
      if (j < 0) continue;
      bool adjacent = true;
      for (std::size_t k = 1; k < g.qubits.size(); ++k) {
        if (next_on_qubit(i, g.qubits[k]) != j) {
          adjacent = false;
          break;
        }
      }
      if (!adjacent) continue;
      Gate& h = ops[static_cast<std::size_t>(j)];
      if (!is_unitary_gate(h.kind)) continue;
      if (h.qubits.size() != g.qubits.size()) continue;
      // h must not touch qubits outside g (guaranteed for 1q; check 2q).
      if (g.qubits.size() == 2) {
        const bool subset =
            (h.qubits[0] == g.qubits[0] || h.qubits[0] == g.qubits[1]) &&
            (h.qubits[1] == g.qubits[0] || h.qubits[1] == g.qubits[1]);
        if (!subset) continue;
      }

      if (is_inverse_pair(g, h)) {
        alive[i] = false;
        alive[static_cast<std::size_t>(j)] = false;
        ++local.cancelled_pairs;
        changed = true;
        continue;
      }
      if (is_rotation(g.kind) && h.kind == g.kind &&
          h.qubits == g.qubits) {
        if (tracing) {
          exprs[static_cast<std::size_t>(j)][0] =
              trace->add(exprs[static_cast<std::size_t>(j)][0], exprs[i][0]);
        }
        h.params[0] += g.params[0];
        alive[i] = false;
        ++local.merged_rotations;
        changed = true;
        continue;
      }
    }
  }

  Circuit out(circuit.num_qubits(), circuit.num_clbits(), circuit.name());
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (alive[i]) {
      out.append(ops[i]);
      if (tracing) trace->out_exprs.push_back(exprs[i]);
    }
  }
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace qucp::reference
