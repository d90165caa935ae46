#include "sim/statevector.hpp"

#include <cmath>
#include <stdexcept>

#include "sim/fusion.hpp"

namespace qucp {

Statevector::Statevector(int num_qubits) : num_qubits_(num_qubits) {
  if (num_qubits < 0 || num_qubits > 24) {
    throw std::invalid_argument("Statevector: unsupported qubit count");
  }
  amps_.assign(std::size_t{1} << num_qubits, cx{0.0, 0.0});
  amps_[0] = 1.0;
}

void Statevector::apply_compiled(const kern::CompiledUnitary& cu,
                                 std::span<const int> qubits) {
  for (int q : qubits) {
    if (q < 0 || q >= num_qubits_) {
      throw std::out_of_range("Statevector: qubit out of range");
    }
  }
  if (static_cast<int>(qubits.size()) != cu.k) {
    throw std::invalid_argument("Statevector: matrix/operand mismatch");
  }
  kern::apply_compiled(amps_, num_qubits_, qubits, cu);
}

void Statevector::apply_circuit(const Circuit& circuit) {
  if (circuit.num_qubits() != num_qubits_) {
    throw std::invalid_argument("Statevector: qubit count mismatch");
  }
  for (const Gate& g : circuit.ops()) {
    if (g.kind == GateKind::Barrier) continue;
    if (g.kind == GateKind::Measure) {
      throw std::logic_error("Statevector: measurement not supported");
    }
    apply_compiled(kern::compile_unitary(gate_matrix(g).data()), g.qubits);
  }
}

void Statevector::run(const CompiledProgram& program) {
  if (program.num_qubits() != num_qubits_) {
    throw std::invalid_argument("Statevector: qubit count mismatch");
  }
  for (const FusedOp& op : program.ops()) {
    apply_compiled(op.sv, std::span<const int>(op.q, op.k()));
  }
}

std::vector<double> Statevector::probabilities() const {
  std::vector<double> probs(amps_.size());
  for (std::size_t i = 0; i < amps_.size(); ++i) probs[i] = std::norm(amps_[i]);
  return probs;
}

double Statevector::expectation(const Matrix& observable) const {
  if (observable.rows() != amps_.size() || observable.cols() != amps_.size()) {
    throw std::invalid_argument("Statevector: observable shape mismatch");
  }
  cx acc{0.0, 0.0};
  for (std::size_t r = 0; r < amps_.size(); ++r) {
    cx row{0.0, 0.0};
    for (std::size_t c = 0; c < amps_.size(); ++c) {
      row += observable(r, c) * amps_[c];
    }
    acc += std::conj(amps_[r]) * row;
  }
  return acc.real();
}

double Statevector::norm() const {
  double s = 0.0;
  for (const cx& a : amps_) s += std::norm(a);
  return std::sqrt(s);
}

Distribution ideal_distribution(const Circuit& circuit) {
  Statevector sv(circuit.num_qubits());
  std::vector<std::pair<int, int>> measurements;  // (qubit, clbit)
  for (const Gate& g : circuit.ops()) {
    if (g.kind == GateKind::Barrier) continue;
    if (g.kind == GateKind::Measure) {
      measurements.emplace_back(g.qubits[0], g.clbit);
      continue;
    }
    sv.apply_compiled(kern::compile_unitary(gate_matrix(g).data()),
                      g.qubits);
  }
  if (measurements.empty()) {
    throw std::logic_error("ideal_distribution: circuit has no measurements");
  }
  return detail::distribution_from_amplitudes(sv.amplitudes(),
                                              circuit.num_clbits(),
                                              measurements);
}

namespace detail {

Distribution distribution_from_amplitudes(
    std::span<const cx> amps, int num_clbits,
    std::span<const std::pair<int, int>> measurements) {
  // Read |amp|^2 straight off the state; a probabilities() vector here
  // would be pure allocation overhead.
  std::vector<Distribution::Entry> out;
  if (num_clbits <= 10) {
    // Flat accumulation: no per-outcome node allocation, single pass to
    // collect the support in sorted order.
    thread_local std::vector<double> acc;
    acc.assign(std::size_t{1} << num_clbits, 0.0);
    for (std::size_t basis = 0; basis < amps.size(); ++basis) {
      const double p = std::norm(amps[basis]);
      if (p < 1e-15) continue;
      std::uint64_t outcome = 0;
      for (const auto& [q, c] : measurements) {
        if ((basis >> q) & 1U) outcome |= std::uint64_t{1} << c;
      }
      acc[outcome] += p;
    }
    for (std::size_t o = 0; o < acc.size(); ++o) {
      if (acc[o] != 0.0) out.emplace_back(o, acc[o]);
    }
  } else {
    for (std::size_t basis = 0; basis < amps.size(); ++basis) {
      const double p = std::norm(amps[basis]);
      if (p < 1e-15) continue;
      std::uint64_t outcome = 0;
      for (const auto& [q, c] : measurements) {
        if ((basis >> q) & 1U) outcome |= std::uint64_t{1} << c;
      }
      out.emplace_back(outcome, p);  // ctor merges duplicates
    }
  }
  return Distribution(num_clbits, std::move(out));
}

}  // namespace detail

}  // namespace qucp
