#pragma once
// Pauli-string algebra.
//
// A PauliString is a tensor product of I/X/Y/Z over n qubits, written with
// qubit (n-1) leftmost ("ZX" on 2 qubits = Z on qubit 1, X on qubit 0 —
// the Qiskit label convention the paper's Hamiltonian uses).

#include <complex>
#include <string>
#include <string_view>
#include <vector>

#include "common/matrix.hpp"

namespace qucp {

enum class PauliOp : std::uint8_t { I, X, Y, Z };

class PauliString {
 public:
  PauliString() = default;
  /// Identity on n qubits.
  explicit PauliString(int num_qubits);
  /// Parse a label such as "IZ" or "XX" (leftmost char = highest qubit).
  explicit PauliString(std::string_view label);

  [[nodiscard]] int num_qubits() const noexcept {
    return static_cast<int>(ops_.size());
  }
  [[nodiscard]] PauliOp op(int qubit) const;
  void set_op(int qubit, PauliOp op);

  /// Label with qubit (n-1) first.
  [[nodiscard]] std::string label() const;

  /// Full 2^n x 2^n matrix (little-endian basis).
  [[nodiscard]] Matrix matrix() const;

  /// True when the string is all-identity.
  [[nodiscard]] bool is_identity() const;

  /// Qubit-wise commutation: per qubit, ops are equal or one is I. This is
  /// the grouping criterion for simultaneous measurement (Gokhale et al.).
  [[nodiscard]] bool qubit_wise_commutes_with(const PauliString& other) const;

  /// Qubits where the op is not I.
  [[nodiscard]] std::vector<int> support() const;

  [[nodiscard]] bool operator==(const PauliString& other) const = default;

 private:
  std::vector<PauliOp> ops_;  // ops_[k] acts on qubit k
};

/// Single-qubit matrix of a PauliOp.
[[nodiscard]] Matrix pauli_matrix(PauliOp op);

}  // namespace qucp
