#include "vqe/pauli.hpp"

#include <stdexcept>

namespace qucp {

PauliString::PauliString(int num_qubits) {
  if (num_qubits <= 0) {
    throw std::invalid_argument("PauliString: non-positive qubit count");
  }
  ops_.assign(static_cast<std::size_t>(num_qubits), PauliOp::I);
}

PauliString::PauliString(std::string_view label) {
  if (label.empty()) throw std::invalid_argument("PauliString: empty label");
  ops_.resize(label.size());
  for (std::size_t i = 0; i < label.size(); ++i) {
    // Leftmost char is the highest qubit.
    const std::size_t qubit = label.size() - 1 - i;
    switch (label[i]) {
      case 'I': ops_[qubit] = PauliOp::I; break;
      case 'X': ops_[qubit] = PauliOp::X; break;
      case 'Y': ops_[qubit] = PauliOp::Y; break;
      case 'Z': ops_[qubit] = PauliOp::Z; break;
      default:
        throw std::invalid_argument("PauliString: bad label char");
    }
  }
}

PauliOp PauliString::op(int qubit) const {
  if (qubit < 0 || qubit >= num_qubits()) {
    throw std::out_of_range("PauliString::op");
  }
  return ops_[static_cast<std::size_t>(qubit)];
}

void PauliString::set_op(int qubit, PauliOp op) {
  if (qubit < 0 || qubit >= num_qubits()) {
    throw std::out_of_range("PauliString::set_op");
  }
  ops_[static_cast<std::size_t>(qubit)] = op;
}

std::string PauliString::label() const {
  std::string s;
  s.reserve(ops_.size());
  for (auto it = ops_.rbegin(); it != ops_.rend(); ++it) {
    switch (*it) {
      case PauliOp::I: s += 'I'; break;
      case PauliOp::X: s += 'X'; break;
      case PauliOp::Y: s += 'Y'; break;
      case PauliOp::Z: s += 'Z'; break;
    }
  }
  return s;
}

Matrix pauli_matrix(PauliOp op) {
  switch (op) {
    case PauliOp::I:
      return Matrix::identity(2);
    case PauliOp::X:
      return Matrix(2, 2, {0, 1, 1, 0});
    case PauliOp::Y:
      return Matrix(2, 2, {0, cx{0, -1}, cx{0, 1}, 0});
    case PauliOp::Z:
      return Matrix(2, 2, {1, 0, 0, -1});
  }
  throw std::logic_error("pauli_matrix: unhandled op");
}

Matrix PauliString::matrix() const {
  // kron_all expects the highest qubit leftmost.
  std::vector<Matrix> factors;
  factors.reserve(ops_.size());
  for (auto it = ops_.rbegin(); it != ops_.rend(); ++it) {
    factors.push_back(pauli_matrix(*it));
  }
  return kron_all(factors);
}

bool PauliString::is_identity() const {
  for (PauliOp op : ops_) {
    if (op != PauliOp::I) return false;
  }
  return true;
}

bool PauliString::qubit_wise_commutes_with(const PauliString& other) const {
  if (num_qubits() != other.num_qubits()) {
    throw std::invalid_argument("PauliString: qubit count mismatch");
  }
  for (int q = 0; q < num_qubits(); ++q) {
    const PauliOp a = ops_[static_cast<std::size_t>(q)];
    const PauliOp b = other.ops_[static_cast<std::size_t>(q)];
    if (a != PauliOp::I && b != PauliOp::I && a != b) return false;
  }
  return true;
}

std::vector<int> PauliString::support() const {
  std::vector<int> out;
  for (int q = 0; q < num_qubits(); ++q) {
    if (ops_[static_cast<std::size_t>(q)] != PauliOp::I) out.push_back(q);
  }
  return out;
}

}  // namespace qucp
