#pragma once
// Ideal (noiseless) statevector simulator.
//
// Little-endian convention: qubit k is bit k of the basis index. Used for
// reference distributions (JSD baselines, PST targets), exact expectation
// values, and RB recovery-unitary construction. Practical up to ~20 qubits;
// all the paper's programs are <= 5.
//
// Every gate enters as a compiled kernel (kern::CompiledUnitary): a
// CompiledProgram's fused stream via run(), or one gate at a time via
// apply_compiled(). Tests that hold a bare Matrix compile it with
// kern::compile_unitary first, as tests/reference_density.hpp does for the
// density-matrix oracle.

#include <span>
#include <utility>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/matrix.hpp"
#include "sim/counts.hpp"
#include "sim/kernels.hpp"

namespace qucp {

class CompiledProgram;  // sim/fusion.hpp

class Statevector {
 public:
  /// |0...0> on n qubits.
  explicit Statevector(int num_qubits);

  [[nodiscard]] int num_qubits() const noexcept { return num_qubits_; }
  [[nodiscard]] std::span<const cx> amplitudes() const noexcept {
    return amps_;
  }

  /// Apply a compiled 1q/2q kernel (kern::compile_unitary; first operand
  /// = high local bit, matching gate_matrix's convention). Every gate
  /// enters here: replayed programs pay structure detection and
  /// coefficient unpacking once at compile time.
  void apply_compiled(const kern::CompiledUnitary& cu,
                      std::span<const int> qubits);

  /// Apply all unitary ops of a circuit, each compiled from its gate
  /// matrix (barriers skipped; measurements rejected — use
  /// ideal_distribution for measured circuits).
  void apply_circuit(const Circuit& circuit);

  /// Replay a fused, precompiled program (sim/fusion.hpp): the cached hot
  /// path of the ideal pipeline. Measurements in the program are ignored
  /// here — callers read the final amplitudes.
  void run(const CompiledProgram& program);

  /// Probability of each basis state.
  [[nodiscard]] std::vector<double> probabilities() const;

  /// <psi| P |psi> for an observable given as a full matrix.
  [[nodiscard]] double expectation(const Matrix& observable) const;

  [[nodiscard]] double norm() const;

 private:
  int num_qubits_;
  std::vector<cx> amps_;
};

/// Exact outcome distribution of a measured circuit under ideal execution.
/// Only measured clbits contribute; unmeasured clbits read 0. Compiles each
/// gate afresh; repeated programs take the fused, cached
/// ideal_distribution(const CompiledProgram&) (sim/fusion.hpp).
[[nodiscard]] Distribution ideal_distribution(const Circuit& circuit);

namespace detail {

/// Shared result-assembly tail of the ideal pipelines: fold |amp|^2 over
/// the (qubit, clbit) measurement map into a Distribution. Both the
/// gate-by-gate and the fused (sim/fusion.hpp) path end here, so their
/// packing and zero-drop behavior cannot drift apart.
[[nodiscard]] Distribution distribution_from_amplitudes(
    std::span<const cx> amps, int num_clbits,
    std::span<const std::pair<int, int>> measurements);

}  // namespace detail

}  // namespace qucp
