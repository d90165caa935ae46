#pragma once
// Exact noisy simulation via density matrices.
//
// Programs in this library are small (<= ~10 qubits per partition), so we
// can afford the exact mixed-state evolution: no trajectory sampling noise,
// which keeps JSD/PST comparisons between methods deterministic up to the
// final (optional) shot sampling.
//
// Hot-path design: rho is stored row-major and treated as a superket of
// length dim^2, so every channel update runs as statevector-style kernels
// over 2n bits (see sim/kernels.hpp) — row bit q of rho lives at superket
// bit q + n, column bit q at superket bit q. All scratch buffers are owned
// by the instance and reused, so no channel update allocates after the
// first call at a given size. A noisy gate — idle relaxation on its
// operands, the gate, depolarizing — touches only the 2^k x 2^k local
// blocks over its operands' row and column bits, so apply_noisy_gate runs
// the whole sequence block by block in one sweep.

#include <span>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/matrix.hpp"
#include "sim/counts.hpp"

namespace qucp {

class CompiledProgram;  // sim/fusion.hpp
struct FusedOp;         // sim/fusion.hpp

/// Thermal relaxation of one qubit over an idle window: duration_ns under
/// T1/T2 given in us. A duration <= 0 is no relaxation.
struct Relaxation {
  double duration_ns = 0.0;
  double t1_us = 0.0;
  double t2_us = 0.0;
};

class DensityMatrix {
 public:
  /// |0..0><0..0| on n qubits. Practical up to ~10 qubits.
  explicit DensityMatrix(int num_qubits);

  [[nodiscard]] int num_qubits() const noexcept { return num_qubits_; }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }

  /// Row-major dim x dim matrix elements: data()[r * dim() + c] = <r|rho|c>.
  [[nodiscard]] std::span<const cx> data() const noexcept { return rho_; }

  /// rho -> U rho U^dagger with U acting on `qubits` (first operand = high
  /// local bit).
  void apply_unitary(const Matrix& u, std::span<const int> qubits);

  /// rho -> U rho U^dagger from a precompiled kernel set (sim/fusion.hpp).
  /// Arithmetic is identical to apply_unitary on the same matrix — the
  /// superket compilation was merely hoisted to program-compile time — but
  /// a 2q gate's row and column passes share one sweep over rho.
  void apply_compiled(const FusedOp& op, std::span<const int> qubits);

  /// One gate of the noisy executor in a single sweep over rho: relaxation
  /// for idle[i] on qubits[i] (in operand order; `idle` is empty or one
  /// entry per operand), the compiled gate, then depolarizing with
  /// parameter depol_p (0 = none). Bit-identical to apply_relaxation per
  /// operand, apply_compiled and apply_depolarizing called in that order,
  /// which cost up to five sweeps.
  void apply_noisy_gate(const FusedOp& op, std::span<const int> qubits,
                        std::span<const Relaxation> idle, double depol_p);

  /// Replay a fused program's unitary stream (noiselessly) on this state.
  /// Measurements in the program are ignored.
  void run(const CompiledProgram& program);

  /// Uniform-Pauli depolarizing channel with parameter p on the given
  /// qubits: rho -> (1-p) rho + p/(4^m - 1) * sum_{P != I} P rho P.
  /// Applied in place via the twirl identity (partial trace + uniform
  /// refill on the local diagonal).
  void apply_depolarizing(double p, std::span<const int> qubits);

  /// General Kraus channel: rho -> sum_k K rho K^dagger. With `validate`
  /// (the default) the Kraus set is checked for trace preservation
  /// (sum K^dagger K == I to tolerance) before anything is applied;
  /// internal hot-path callers that construct provably complete sets pass
  /// false to skip the Matrix multiplies.
  void apply_kraus(std::span<const Matrix> kraus, std::span<const int> qubits,
                   bool validate = true);

  /// Thermal relaxation on one qubit for duration_ns given T1/T2 in us.
  /// Amplitude damping followed by pure dephasing, fused into one
  /// closed-form per-element pass (no Kraus matrices are built). The
  /// executor calls this only for idle windows before measurements; idle
  /// windows before gates ride in apply_noisy_gate's sweep.
  void apply_relaxation(int qubit, double duration_ns, double t1_us,
                        double t2_us);

  /// Diagonal of rho (populations), clamped at 0.
  [[nodiscard]] std::vector<double> probabilities() const;

  /// tr(rho * observable).
  [[nodiscard]] double expectation(const Matrix& observable) const;

  [[nodiscard]] double trace_real() const;

  /// Purity tr(rho^2).
  [[nodiscard]] double purity() const;

 private:
  int num_qubits_;
  std::size_t dim_;
  std::vector<cx> rho_;  // row-major dim x dim, read as a superket

  // Reused scratch (grown on first use, never shrunk): generic-kernel
  // gather buffer, per-base partial traces for the depolarizing refill,
  // and the original/accumulator copies a multi-operator Kraus sum needs.
  std::vector<cx> kernel_scratch_;
  std::vector<cx> trace_scratch_;
  std::vector<cx> kraus_orig_;
  std::vector<cx> kraus_acc_;
  std::vector<std::size_t> offset_scratch_;

  void check_qubits(std::span<const int> qubits) const;
  /// Superket application of (u (x) conj(u)) — the shared core of
  /// apply_unitary and apply_kraus; no unitarity is assumed.
  void transform_two_sided(const Matrix& u, std::span<const int> qubits);
};

}  // namespace qucp
