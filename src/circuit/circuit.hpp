#pragma once
// Quantum circuit intermediate representation.
//
// A Circuit is an ordered list of Gate ops over `num_qubits` qubits and
// `num_clbits` classical bits. It is a plain value type: cheap to copy for
// the small NISQ benchmarks this library targets, and every transformation
// (mapping, folding, optimization) returns a new Circuit.

#include <atomic>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "circuit/gate.hpp"

namespace qucp {

/// Both fingerprints of one circuit, computed in a single walk.
struct CircuitFingerprints {
  std::uint64_t exact = 0;       ///< == circuit_fingerprint(circuit)
  std::uint64_t structural = 0;  ///< == structural_fingerprint(circuit)
};

namespace detail {

/// Lazily filled fingerprint cache attached to a Circuit. Concurrent const
/// readers may race to fill it; both compute identical values from the same
/// gate list, and every access is an atomic, so the race is benign and
/// TSan-clean (values publish via release/acquire on state_). Mutation of
/// the owning circuit invalidates; non-const access requires external
/// synchronization, exactly like the circuit's own op list.
class FingerprintMemo {
 public:
  FingerprintMemo() = default;
  FingerprintMemo(const FingerprintMemo& other) noexcept { *this = other; }
  FingerprintMemo& operator=(const FingerprintMemo& other) noexcept {
    CircuitFingerprints fp;
    if (other.load(fp)) {
      store(fp);
    } else {
      invalidate();
    }
    return *this;
  }
  FingerprintMemo(FingerprintMemo&& other) noexcept { *this = other; }
  FingerprintMemo& operator=(FingerprintMemo&& other) noexcept {
    return *this = static_cast<const FingerprintMemo&>(other);
  }

  bool load(CircuitFingerprints& out) const noexcept {
    if (state_.load(std::memory_order_acquire) != 1) return false;
    out.exact = exact_.load(std::memory_order_relaxed);
    out.structural = structural_.load(std::memory_order_relaxed);
    return true;
  }
  void store(const CircuitFingerprints& fp) const noexcept {
    exact_.store(fp.exact, std::memory_order_relaxed);
    structural_.store(fp.structural, std::memory_order_relaxed);
    state_.store(1, std::memory_order_release);
  }
  void invalidate() noexcept {
    if (state_.load(std::memory_order_relaxed) != 0) {
      state_.store(0, std::memory_order_relaxed);
    }
  }

 private:
  mutable std::atomic<std::uint64_t> exact_{0};
  mutable std::atomic<std::uint64_t> structural_{0};
  mutable std::atomic<int> state_{0};  ///< 0 = invalid, 1 = valid
};

}  // namespace detail

class Circuit {
 public:
  Circuit() = default;

  /// Construct an empty circuit. num_clbits defaults to num_qubits.
  explicit Circuit(int num_qubits, std::optional<int> num_clbits = {},
                   std::string name = "");

  [[nodiscard]] int num_qubits() const noexcept { return num_qubits_; }
  [[nodiscard]] int num_clbits() const noexcept { return num_clbits_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  [[nodiscard]] const std::vector<Gate>& ops() const noexcept { return ops_; }
  [[nodiscard]] std::size_t size() const noexcept { return ops_.size(); }
  /// Heap footprint estimate: the op buffer and the name (operand and
  /// parameter lists live inline in each Gate up to their small sizes).
  [[nodiscard]] std::size_t bytes() const noexcept {
    return sizeof(Circuit) + ops_.capacity() * sizeof(Gate) +
           name_.capacity();
  }
  [[nodiscard]] bool empty() const noexcept { return ops_.empty(); }
  /// Reserve room for `n` ops, so a pass that knows its output size
  /// appends without regrowing the op buffer.
  void reserve(std::size_t n) { ops_.reserve(n); }

  /// Append an op after validating operand counts and index ranges.
  void append(Gate g);

  /// Overwrite parameter `index` of op `op` (range-checked, no other
  /// revalidation — the gate kind fixes the parameter count). Used by the
  /// parametric compilation paths to bind fresh angles into a structural
  /// template without rebuilding the op list.
  void set_param(std::size_t op, std::size_t index, double value) {
    ops_.at(op).params.at(index) = value;
    fp_memo_.invalidate();
  }

  /// Unchecked set_param for the template-binding hot loop, which patches
  /// hundreds of pre-validated (op, index) pairs back to back: no bounds
  /// checks, and the fingerprint memo is left alone so one
  /// invalidate_fingerprints() call can close the whole patch sequence.
  void patch_param(std::size_t op, std::size_t index, double value) noexcept {
    ops_[op].params[index] = value;
  }
  /// Drop memoized fingerprints after a patch_param sequence. Equivalent
  /// to what every set_param call does implicitly.
  void invalidate_fingerprints() noexcept { fp_memo_.invalidate(); }

  // -- gate helpers -------------------------------------------------------
  void i(int q) { append({GateKind::I, {q}, {}}); }
  void x(int q) { append({GateKind::X, {q}, {}}); }
  void y(int q) { append({GateKind::Y, {q}, {}}); }
  void z(int q) { append({GateKind::Z, {q}, {}}); }
  void h(int q) { append({GateKind::H, {q}, {}}); }
  void s(int q) { append({GateKind::S, {q}, {}}); }
  void sdg(int q) { append({GateKind::Sdg, {q}, {}}); }
  void t(int q) { append({GateKind::T, {q}, {}}); }
  void tdg(int q) { append({GateKind::Tdg, {q}, {}}); }
  void sx(int q) { append({GateKind::SX, {q}, {}}); }
  void rx(double theta, int q) { append({GateKind::RX, {q}, {theta}}); }
  void ry(double theta, int q) { append({GateKind::RY, {q}, {theta}}); }
  void rz(double theta, int q) { append({GateKind::RZ, {q}, {theta}}); }
  void u1(double lam, int q) { append({GateKind::U1, {q}, {lam}}); }
  void u2(double phi, double lam, int q) {
    append({GateKind::U2, {q}, {phi, lam}});
  }
  void u3(double theta, double phi, double lam, int q) {
    append({GateKind::U3, {q}, {theta, phi, lam}});
  }
  void cx(int control, int target) {
    append({GateKind::CX, {control, target}, {}});
  }
  void cz(int a, int b) { append({GateKind::CZ, {a, b}, {}}); }
  void swap(int a, int b) { append({GateKind::SWAP, {a, b}, {}}); }
  void barrier();                       ///< barrier over all qubits
  void barrier(std::vector<int> qubits);
  void measure(int qubit, int clbit);
  void measure_all();                   ///< measure qubit i into clbit i

  /// Standard 15-op Toffoli decomposition (6 CX, 7 T/Tdg, 2 H).
  void ccx(int c0, int c1, int target);

  // -- queries ------------------------------------------------------------
  /// Count of ops excluding barriers (the paper's "Gates" column counts
  /// unitary gates; measurements excluded).
  [[nodiscard]] int gate_count() const;
  /// Count of two-qubit gates (CX/CZ/SWAP).
  [[nodiscard]] int two_qubit_count() const;
  /// Count per mnemonic.
  [[nodiscard]] std::map<std::string, int> count_ops() const;
  /// True when any op is a measurement.
  [[nodiscard]] bool has_measurements() const;
  /// Qubits that appear in at least one op.
  [[nodiscard]] std::vector<int> active_qubits() const;

  // -- transformations (return new circuits) ------------------------------
  /// Compact onto the active qubits only (relative order preserved, clbits
  /// unchanged). Useful for simulating device-wide circuits whose ops all
  /// sit inside one small partition.
  [[nodiscard]] Circuit compacted() const;
  /// Reverse op order with each unitary inverted. Requires no measurements.
  [[nodiscard]] Circuit inverse() const;
  /// Append `other`'s ops onto `*this` (operand counts must fit). The
  /// optional qubit_map relabels other's qubits into this circuit; clbits
  /// are mapped through clbit_offset.
  void compose(const Circuit& other, std::span<const int> qubit_map = {},
               int clbit_offset = 0);
  /// Total unitary of the circuit (no measurements allowed); little-endian:
  /// qubit 0 is the least significant index bit. Exponential in qubits —
  /// intended for <= ~12 qubits.
  [[nodiscard]] Matrix to_unitary() const;

  /// Exact + structural fingerprints of this circuit, memoized until the
  /// next mutation. Backing store for the circuit_fingerprint family of
  /// free functions — a job that is hashed by the transpile cache and then
  /// again by the compiled-program cache walks its gate list once.
  [[nodiscard]] CircuitFingerprints fingerprints() const;

 private:
  void check_qubit(int q) const;

  int num_qubits_ = 0;
  int num_clbits_ = 0;
  std::string name_;
  std::vector<Gate> ops_;
  mutable detail::FingerprintMemo fp_memo_;
};

/// Stable 64-bit content hash of a circuit: qubit/clbit counts plus every
/// op's kind, operands, clbit and exact parameter bit patterns. The name is
/// deliberately excluded — two same-named circuits with different gates
/// must not collide, and renaming must not invalidate transpilation
/// caches. Used as the cache and canonical-ordering key by the
/// ExecutionService.
[[nodiscard]] std::uint64_t circuit_fingerprint(const Circuit& circuit);

/// Structural sibling of circuit_fingerprint: hashes gate kinds, operands,
/// clbits and parameter *counts* in order, but treats every parameter value
/// as an anonymous slot. Two circuits differing only in rotation angles
/// (an ansatz across optimizer iterations, ZNE folded variants, ...) share
/// a structural fingerprint, which keys the parametric transpile-template
/// and fused-program caches. A circuit with no parameters hashes identically
/// to its own structure, so the key degenerates gracefully for
/// non-parameterized traffic.
[[nodiscard]] std::uint64_t structural_fingerprint(const Circuit& circuit);

/// Computes circuit_fingerprint and structural_fingerprint together in one
/// pass over the ops (memoized on the circuit until its next mutation).
/// Hot caches (CompiledProgramCache::fused, the parametric TranspileCache)
/// need both keys per lookup; walking the gate list once halves the
/// hashing cost on a cache miss.
[[nodiscard]] CircuitFingerprints circuit_fingerprints(const Circuit& circuit);

/// Slot -> value view of a circuit's parameters: slot s is the s-th gate
/// parameter encountered scanning ops front to back (U2/U3 contribute one
/// slot per angle). Circuits with equal structural_fingerprint have the
/// same slot layout, so a binding extracted from one can be bound into a
/// template built from another.
struct ParamBinding {
  std::vector<double> values;  ///< values[slot], circuit order

  ParamBinding() = default;
  explicit ParamBinding(const Circuit& circuit);

  [[nodiscard]] std::size_t size() const noexcept { return values.size(); }
  [[nodiscard]] bool operator==(const ParamBinding&) const = default;
};

}  // namespace qucp
