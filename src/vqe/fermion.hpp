#pragma once
// Fermionic operators and fermion-to-qubit mappings.
//
// The paper derives its 2-qubit H2 Hamiltonian by parity-mapping the
// fermionic Hamiltonian and applying two-qubit reduction [1]. This module
// reproduces that pipeline: second-quantized operators built from the
// molecular integrals, Jordan-Wigner and parity transforms into Pauli
// sums, and symmetry-sector tapering. Tests verify the tapered 2-qubit
// operator reproduces the canonical h2_hamiltonian() spectrum.

#include <complex>
#include <map>
#include <string>
#include <vector>

#include "vqe/hamiltonian.hpp"
#include "vqe/pauli.hpp"

namespace qucp {

/// Weighted sum of Pauli strings with complex coefficients (intermediate
/// representation during mapping; Hermitian results convert to
/// Hamiltonian).
class QubitOperator {
 public:
  QubitOperator() = default;
  explicit QubitOperator(int num_qubits) : num_qubits_(num_qubits) {}

  [[nodiscard]] int num_qubits() const noexcept { return num_qubits_; }
  [[nodiscard]] const std::map<std::string, cx>& terms() const noexcept {
    return terms_;
  }

  void add_term(const PauliString& pauli, cx coefficient);
  QubitOperator& operator+=(const QubitOperator& other);
  [[nodiscard]] QubitOperator operator*(const QubitOperator& other) const;

  /// Drop terms with |coeff| <= tol.
  void prune(double tol = 1e-12);

  /// Convert to a real Hamiltonian; throws if any coefficient has an
  /// imaginary part above tol.
  [[nodiscard]] Hamiltonian to_hamiltonian(double tol = 1e-9) const;

 private:
  int num_qubits_ = 0;
  std::map<std::string, cx> terms_;  // label -> coefficient
};

/// Single-qubit Pauli product: returns (result op, phase) with
/// a * b == phase * result.
[[nodiscard]] std::pair<PauliOp, cx> pauli_product(PauliOp a, PauliOp b);

/// One normal-ordered product of ladder operators with a coefficient.
struct FermionTerm {
  /// (mode, is_creation) applied right-to-left in operator order; the
  /// vector lists operators left-to-right as written.
  std::vector<std::pair<int, bool>> ladder;
  double coefficient = 0.0;
};

class FermionicOp {
 public:
  explicit FermionicOp(int num_modes) : num_modes_(num_modes) {}

  [[nodiscard]] int num_modes() const noexcept { return num_modes_; }
  [[nodiscard]] const std::vector<FermionTerm>& terms() const noexcept {
    return terms_;
  }
  void add_term(FermionTerm term);

 private:
  int num_modes_ = 0;
  std::vector<FermionTerm> terms_;
};

enum class FermionMapping { JordanWigner, Parity, BravyiKitaev };

/// Map a fermionic operator to qubits (one qubit per mode).
[[nodiscard]] QubitOperator map_to_qubits(const FermionicOp& op,
                                          FermionMapping mapping);

/// Remove a qubit on which every term acts with I or Z, substituting the
/// sector eigenvalue (+1/-1) for Z. Throws if some term has X/Y there.
[[nodiscard]] QubitOperator taper_qubit(const QubitOperator& op, int qubit,
                                        int sector);

/// Second-quantized H2 Hamiltonian in the STO-3G basis near equilibrium
/// bond length, spin-orbital order [0-up, 1-up, 0-down, 1-down] (4 modes).
/// Electronic part only.
[[nodiscard]] FermionicOp h2_fermionic_hamiltonian();

/// The paper's full derivation: parity-map h2_fermionic_hamiltonian() and
/// taper the two parity-symmetry qubits (modes 1 and 3), selecting the
/// sector that minimizes the ground energy.
[[nodiscard]] Hamiltonian h2_via_parity_mapping();

}  // namespace qucp
