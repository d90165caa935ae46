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
// bit q + n, column bit q at superket bit q. No update allocates. A noisy
// gate — idle relaxation on its operands, the gate, depolarizing — updates
// rho in 2^k x 2^k local blocks over its operands' row and column bits,
// so apply_noisy_gate runs the whole sequence block by block in one sweep.
//
// That sweep covers only the live subspace of rho. A qubit no op has
// touched is still in |0>, so every entry with its row or column bit set
// is an exact zero and is skipped; the matrix tracks those qubits itself.
// After settle(q) — the executor calls it after q's last gate — only the
// entries whose row and column agree on q are updated, because the
// result is read off the diagonal and no later gate mixes q's bits. The
// column bit of local qubit 0 is never skipped (sim/kernels.hpp), so
// every kept entry gets the arithmetic a full sweep gives it.
//
// The surface is what the executor runs: every gate enters as a compiled
// FusedOp (sim/fusion.hpp), idle windows before measurements go through
// apply_relaxation (the same sweep with relaxation only), and the result
// is read off the diagonal. Matrix-taking
// forms and invariants (trace, purity) that tests compare against live in
// tests/reference_density.hpp.

#include <span>
#include <vector>

#include "common/matrix.hpp"
#include "sim/kernels.hpp"

namespace qucp {

struct FusedOp;  // sim/fusion.hpp

/// Thermal relaxation of one qubit over an idle window: duration_ns under
/// T1/T2 given in us. A duration <= 0 is no relaxation.
struct Relaxation {
  double duration_ns = 0.0;
  double t1_us = 0.0;
  double t2_us = 0.0;
};

/// The kernel coefficients of one idle window (duration_ns > 0) and of
/// uniform depolarizing with parameter p on k qubits, as apply_noisy_gate
/// and apply_relaxation derive them; tests feed them to
/// kern::apply_noisy_gate. Throw std::invalid_argument for non-positive
/// T1/T2, p outside [0, 1], or channel parameters that leave [0, 1].
[[nodiscard]] kern::RelaxCoeffs relaxation_coeffs(const Relaxation& r);
[[nodiscard]] kern::DepolCoeffs depolarizing_coeffs(double p, int k);

class DensityMatrix {
 public:
  /// |0..0><0..0| on n qubits. Practical up to ~10 qubits.
  explicit DensityMatrix(int num_qubits);

  [[nodiscard]] int num_qubits() const noexcept { return num_qubits_; }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }

  /// Row-major dim x dim matrix elements: data()[r * dim() + c] = <r|rho|c>.
  /// The zeros of untouched qubits may carry either sign, and the entries
  /// whose row and column differ on a settled qubit are stale.
  [[nodiscard]] std::span<const cx> data() const noexcept { return rho_; }

  /// One gate of the noisy executor in a single sweep over rho: relaxation
  /// for idle[i] on qubits[i] (in operand order; `idle` is empty or one
  /// entry per operand), the compiled gate, then depolarizing with
  /// parameter depol_p (0 = none): rho -> (1-p) rho + p/(4^k - 1) *
  /// sum_{P != I} P rho P over the k operands. With no idle windows and
  /// depol_p = 0 this is the plain unitary rho -> U rho U^dagger.
  /// Throws std::invalid_argument for an operand that is settled.
  void apply_noisy_gate(const FusedOp& op, std::span<const int> qubits,
                        std::span<const Relaxation> idle, double depol_p);

  /// Thermal relaxation on one qubit for duration_ns given T1/T2 in us.
  /// Amplitude damping followed by pure dephasing, fused into one
  /// closed-form per-element update (no Kraus matrices are built), run as
  /// apply_noisy_gate's sweep without a gate over the same live subspace.
  /// On a settled qubit only the entries whose row and column agree on
  /// every other settled qubit are updated. The executor calls this only
  /// for idle windows before measurements; idle windows before gates ride
  /// in apply_noisy_gate's sweep.
  void apply_relaxation(int qubit, double duration_ns, double t1_us,
                        double t2_us);

  /// No further gate acts on `qubit`: later sweeps skip the entries whose
  /// row and column differ on it. apply_relaxation may still act on it.
  void settle(int qubit);

  /// Diagonal of rho (populations), clamped at 0.
  [[nodiscard]] std::vector<double> probabilities() const;

 private:
  int num_qubits_;
  std::size_t dim_;
  std::vector<cx> rho_;  // row-major dim x dim, read as a superket
  std::size_t touched_ = 0;  // local qubits some op has acted on
  std::size_t settled_ = 0;  // local qubits past their last gate

  void check_qubits(std::span<const int> qubits) const;
  /// Run g on rho's live subspace; `operands` are g's qubits as a mask.
  void walk(kern::NoisyGate g, std::size_t operands);
};

}  // namespace qucp
