#pragma once
// Gate set and per-gate metadata.
//
// The gate set covers what the paper's benchmarks (QASMBench / RevLib) and
// the VQE / ZNE pipelines need: Pauli + Clifford 1q gates, T/Tdg, rotations,
// the IBM u1/u2/u3 family, CX/CZ/SWAP entanglers, plus measurement and
// barrier pseudo-ops.

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/matrix.hpp"
#include "common/small_vector.hpp"

namespace qucp {

enum class GateKind : std::uint8_t {
  I,
  X,
  Y,
  Z,
  H,
  S,
  Sdg,
  T,
  Tdg,
  SX,
  RX,
  RY,
  RZ,
  U1,
  U2,
  U3,
  CX,
  CZ,
  SWAP,
  Barrier,
  Measure,
};

/// One operation in a circuit.
///
/// `qubits` holds 1 entry for single-qubit gates and measure, 2 for
/// two-qubit gates, and any number (>=1) for barriers. `params` holds the
/// rotation angles in radians (RX/RY/RZ/U1: 1, U2: 2, U3: 3, others: 0).
/// For Measure, `clbit` is the destination classical bit.
///
/// Operand and angle lists live inline (no heap allocation) up to the gate
/// set's natural widths — 2 qubits, 3 angles — so copying a Gate is a
/// memcpy. Only device-wide barriers on >2 qubits spill to the heap.
struct Gate {
  GateKind kind = GateKind::I;
  SmallVector<int, 2> qubits;
  SmallVector<double, 3> params;
  int clbit = -1;

  [[nodiscard]] bool operator==(const Gate& other) const = default;
};

// The four kind predicates below are inline: every pass, the router and the
// executor ask them per op.

/// Number of qubit operands the kind requires (barrier is variadic: 0 here).
[[nodiscard]] constexpr int gate_arity(GateKind kind) noexcept {
  switch (kind) {
    case GateKind::CX:
    case GateKind::CZ:
    case GateKind::SWAP:
      return 2;
    case GateKind::Barrier:
      return 0;  // variadic
    default:
      return 1;
  }
}

/// Number of angle parameters the kind requires.
[[nodiscard]] constexpr int gate_param_count(GateKind kind) noexcept {
  switch (kind) {
    case GateKind::RX:
    case GateKind::RY:
    case GateKind::RZ:
    case GateKind::U1:
      return 1;
    case GateKind::U2:
      return 2;
    case GateKind::U3:
      return 3;
    default:
      return 0;
  }
}

/// Lower-case OpenQASM mnemonic ("cx", "rz", ...).
[[nodiscard]] std::string_view gate_name(GateKind kind) noexcept;

/// Inverse mnemonic lookup; empty when unknown.
[[nodiscard]] std::optional<GateKind> gate_from_name(std::string_view name);

/// True for unitary gates (everything except Barrier and Measure).
[[nodiscard]] constexpr bool is_unitary_gate(GateKind kind) noexcept {
  return kind != GateKind::Barrier && kind != GateKind::Measure;
}

/// True for CX/CZ/SWAP.
[[nodiscard]] constexpr bool is_two_qubit_gate(GateKind kind) noexcept {
  return kind == GateKind::CX || kind == GateKind::CZ ||
         kind == GateKind::SWAP;
}

/// True when the gate is its own inverse (X,Y,Z,H,CX,CZ,SWAP,I,...).
[[nodiscard]] bool is_self_inverse(GateKind kind) noexcept;

/// The inverse gate of (kind, params). Self-inverse kinds return themselves;
/// S<->Sdg, T<->Tdg; rotations negate angles; U2/U3 invert analytically.
[[nodiscard]] Gate inverse_gate(const Gate& g);

/// Unitary matrix of a gate kind with the given params (2x2 or 4x4 for
/// two-qubit kinds, little-endian convention: qubit operand order
/// {control, target} for CX). Throws for Barrier/Measure.
[[nodiscard]] Matrix gate_matrix(GateKind kind,
                                 std::span<const double> params = {});

/// Allocation-free core of gate_matrix: writes the row-major unitary into
/// `out` (capacity >= 16 entries) and returns the dimension (2 or 4). The
/// entries are computed by exactly the arithmetic gate_matrix uses, so the
/// two are bit-identical; hot compile paths (CompiledProgram::materialize)
/// call this to skip the per-gate Matrix heap allocation.
int gate_matrix_into(GateKind kind, std::span<const double> params, cx* out);

/// Convenience: unitary of a concrete gate.
[[nodiscard]] Matrix gate_matrix(const Gate& g);

/// Lock-free lookup of the unitary of a parameterless gate kind (X, H, T,
/// CX, ...): a pointer into an immutable table built on first use, or null
/// for parameterized / non-unitary kinds. The hot path under every
/// simulator — no allocation, no mutex.
[[nodiscard]] const Matrix* fixed_gate_matrix(GateKind kind);

}  // namespace qucp
