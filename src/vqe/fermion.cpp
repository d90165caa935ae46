#include "vqe/fermion.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <stdexcept>

namespace qucp {

std::pair<PauliOp, cx> pauli_product(PauliOp a, PauliOp b) {
  if (a == PauliOp::I) return {b, 1.0};
  if (b == PauliOp::I) return {a, 1.0};
  if (a == b) return {PauliOp::I, 1.0};
  const cx i{0.0, 1.0};
  // Cyclic: XY=iZ, YZ=iX, ZX=iY; anticyclic conjugates.
  auto cyc = [&](PauliOp x, PauliOp y, PauliOp z) {
    if (a == x && b == y) return std::make_pair(z, i);
    return std::make_pair(z, -i);
  };
  if ((a == PauliOp::X && b == PauliOp::Y) ||
      (a == PauliOp::Y && b == PauliOp::X)) {
    return cyc(PauliOp::X, PauliOp::Y, PauliOp::Z);
  }
  if ((a == PauliOp::Y && b == PauliOp::Z) ||
      (a == PauliOp::Z && b == PauliOp::Y)) {
    return cyc(PauliOp::Y, PauliOp::Z, PauliOp::X);
  }
  return cyc(PauliOp::Z, PauliOp::X, PauliOp::Y);
}

void QubitOperator::add_term(const PauliString& pauli, cx coefficient) {
  if (pauli.num_qubits() != num_qubits_) {
    throw std::invalid_argument("QubitOperator: term width mismatch");
  }
  terms_[pauli.label()] += coefficient;
}

QubitOperator& QubitOperator::operator+=(const QubitOperator& other) {
  if (other.num_qubits_ != num_qubits_) {
    throw std::invalid_argument("QubitOperator: width mismatch");
  }
  for (const auto& [label, coeff] : other.terms_) terms_[label] += coeff;
  return *this;
}

QubitOperator QubitOperator::operator*(const QubitOperator& other) const {
  if (other.num_qubits_ != num_qubits_) {
    throw std::invalid_argument("QubitOperator: width mismatch");
  }
  QubitOperator out(num_qubits_);
  for (const auto& [la, ca] : terms_) {
    const PauliString pa(la);
    for (const auto& [lb, cb] : other.terms_) {
      const PauliString pb(lb);
      PauliString prod(num_qubits_);
      cx phase{1.0, 0.0};
      for (int q = 0; q < num_qubits_; ++q) {
        const auto [op, ph] = pauli_product(pa.op(q), pb.op(q));
        prod.set_op(q, op);
        phase *= ph;
      }
      out.terms_[prod.label()] += ca * cb * phase;
    }
  }
  return out;
}

void QubitOperator::prune(double tol) {
  for (auto it = terms_.begin(); it != terms_.end();) {
    if (std::abs(it->second) <= tol) {
      it = terms_.erase(it);
    } else {
      ++it;
    }
  }
}

Hamiltonian QubitOperator::to_hamiltonian(double tol) const {
  std::vector<PauliTerm> out;
  for (const auto& [label, coeff] : terms_) {
    if (std::abs(coeff.imag()) > tol) {
      throw std::logic_error("QubitOperator: non-Hermitian coefficient");
    }
    if (std::abs(coeff.real()) <= tol) continue;
    out.push_back({PauliString(label), coeff.real()});
  }
  return Hamiltonian(num_qubits_, std::move(out));
}

void FermionicOp::add_term(FermionTerm term) {
  for (const auto& [mode, creation] : term.ladder) {
    if (mode < 0 || mode >= num_modes_) {
      throw std::out_of_range("FermionicOp: mode out of range");
    }
  }
  terms_.push_back(std::move(term));
}

namespace {

/// Fenwick-tree index sets for the Bravyi-Kitaev encoding (Seeley,
/// Richard, Love). BIT indices are 1-based; qubit q stores the occupation
/// sum of modes (q - lowbit(q), q].
struct BkSets {
  std::vector<int> update;  ///< U(j): qubits whose sums include mode j
  std::vector<int> parity;  ///< P(j): qubits encoding parity of modes < j
  std::vector<int> rho;     ///< P(j) \ F(j): parity minus j's children
};

BkSets bk_sets(int mode, int n) {
  auto lowbit = [](int x) { return x & (-x); };
  const int j = mode + 1;  // 1-based BIT index
  BkSets sets;
  // Update path: ancestors of j in the BIT.
  for (int u = j + lowbit(j); u <= n; u += lowbit(u)) {
    sets.update.push_back(u - 1);
  }
  // Parity path: prefix sum of modes [1, j-1].
  std::vector<int> parity_bit;
  for (int p = j - 1; p > 0; p -= lowbit(p)) parity_bit.push_back(p);
  // Children of j: nodes whose sums j aggregates (all lie on the parity
  // path of j - 1).
  std::vector<int> children;
  for (int c = j - 1; c > j - lowbit(j); c -= lowbit(c)) {
    children.push_back(c);
  }
  for (int p : parity_bit) {
    sets.parity.push_back(p - 1);
    if (std::find(children.begin(), children.end(), p) == children.end()) {
      sets.rho.push_back(p - 1);
    }
  }
  return sets;
}

/// Annihilation operator a_p as a qubit operator under a mapping.
QubitOperator annihilation(int p, int n, FermionMapping mapping) {
  QubitOperator out(n);
  if (mapping == FermionMapping::BravyiKitaev) {
    // a_p = 1/2 X_{U(p)} (X_p Z_{P(p)} + i Y_p Z_{rho(p)}); derived the
    // same way as the parity form: flip o phase o occupation projector,
    // with the Fenwick tree supplying the index sets.
    const BkSets sets = bk_sets(p, n);
    PauliString x_term(n);
    PauliString y_term(n);
    for (int u : sets.update) {
      x_term.set_op(u, PauliOp::X);
      y_term.set_op(u, PauliOp::X);
    }
    x_term.set_op(p, PauliOp::X);
    y_term.set_op(p, PauliOp::Y);
    for (int q : sets.parity) x_term.set_op(q, PauliOp::Z);
    for (int q : sets.rho) y_term.set_op(q, PauliOp::Z);
    out.add_term(x_term, 0.5);
    out.add_term(y_term, cx{0.0, 0.5});
    return out;
  }
  if (mapping == FermionMapping::JordanWigner) {
    // a_p = 1/2 (X_p + i Y_p) (x) Z_{p-1..0}
    PauliString x_term(n);
    PauliString y_term(n);
    for (int j = 0; j < p; ++j) {
      x_term.set_op(j, PauliOp::Z);
      y_term.set_op(j, PauliOp::Z);
    }
    x_term.set_op(p, PauliOp::X);
    y_term.set_op(p, PauliOp::Y);
    out.add_term(x_term, 0.5);
    out.add_term(y_term, cx{0.0, 0.5});
    return out;
  }
  // Parity: a_p = 1/2 X_{n-1..p+1} (x) (X_p Z_{p-1} + i Y_p)
  PauliString x_term(n);
  PauliString y_term(n);
  for (int j = p + 1; j < n; ++j) {
    x_term.set_op(j, PauliOp::X);
    y_term.set_op(j, PauliOp::X);
  }
  x_term.set_op(p, PauliOp::X);
  if (p > 0) x_term.set_op(p - 1, PauliOp::Z);
  y_term.set_op(p, PauliOp::Y);
  out.add_term(x_term, 0.5);
  out.add_term(y_term, cx{0.0, 0.5});
  return out;
}

QubitOperator creation(int p, int n, FermionMapping mapping) {
  // a_p^dagger: conjugate the coefficients (Pauli strings are Hermitian).
  QubitOperator a = annihilation(p, n, mapping);
  QubitOperator out(n);
  for (const auto& [label, coeff] : a.terms()) {
    out.add_term(PauliString(label), std::conj(coeff));
  }
  return out;
}

}  // namespace

QubitOperator map_to_qubits(const FermionicOp& op, FermionMapping mapping) {
  const int n = op.num_modes();
  QubitOperator total(n);
  for (const FermionTerm& term : op.terms()) {
    QubitOperator product(n);
    product.add_term(PauliString(n), term.coefficient);  // identity * coeff
    for (const auto& [mode, is_creation] : term.ladder) {
      product = product * (is_creation ? creation(mode, n, mapping)
                                       : annihilation(mode, n, mapping));
    }
    total += product;
  }
  total.prune();
  return total;
}

QubitOperator taper_qubit(const QubitOperator& op, int qubit, int sector) {
  if (sector != 1 && sector != -1) {
    throw std::invalid_argument("taper_qubit: sector must be +/-1");
  }
  const int n = op.num_qubits();
  if (qubit < 0 || qubit >= n) {
    throw std::out_of_range("taper_qubit: qubit out of range");
  }
  QubitOperator out(n - 1);
  for (const auto& [label, coeff] : op.terms()) {
    const PauliString p(label);
    cx c = coeff;
    switch (p.op(qubit)) {
      case PauliOp::I:
        break;
      case PauliOp::Z:
        c *= static_cast<double>(sector);
        break;
      default:
        throw std::logic_error(
            "taper_qubit: operator acts with X/Y on symmetry qubit");
    }
    PauliString reduced(n - 1);
    for (int q = 0; q < n - 1; ++q) {
      reduced.set_op(q, p.op(q < qubit ? q : q + 1));
    }
    out.add_term(reduced, c);
  }
  out.prune();
  return out;
}

FermionicOp h2_fermionic_hamiltonian() {
  // STO-3G H2 near equilibrium: MO one-electron energies and two-electron
  // integrals in chemist notation (pq|rs). Spin-orbital order:
  // [0-up, 1-up, 0-down, 1-down].
  const double h[2] = {-1.252477495, -0.475934275};
  auto g = [](int p, int q, int r, int s) -> double {
    auto key = [](int a, int b, int c, int d) {
      return a * 1000 + b * 100 + c * 10 + d;
    };
    // Unique nonzero integrals; all index permutational symmetries hold.
    const double g0000 = 0.674493166;
    const double g1111 = 0.697397504;
    const double g0011 = 0.663472101;
    const double g0101 = 0.181287518;
    switch (key(p, q, r, s)) {
      case 0: return g0000;
      case 1111: return g1111;
      case 11: return g0011;      // (00|11)
      case 1100: return g0011;    // (11|00)
      case 101: return g0101;     // (01|01)
      case 110: return g0101;     // (01|10)
      case 1001: return g0101;    // (10|01)
      case 1010: return g0101;    // (10|10)
      default: return 0.0;        // odd-parity integrals vanish for H2
    }
  };
  auto mode = [](int spatial, int spin) { return spatial + 2 * spin; };

  FermionicOp op(4);
  // One-body: sum_p,sigma h[p] a+_{p,sigma} a_{p,sigma} (h is diagonal in
  // the MO basis).
  for (int p = 0; p < 2; ++p) {
    for (int spin = 0; spin < 2; ++spin) {
      op.add_term({{{mode(p, spin), true}, {mode(p, spin), false}}, h[p]});
    }
  }
  // Two-body: 1/2 sum (pq|rs) a+_{p,s1} a+_{r,s2} a_{s,s2} a_{q,s1}.
  for (int p = 0; p < 2; ++p) {
    for (int q = 0; q < 2; ++q) {
      for (int r = 0; r < 2; ++r) {
        for (int s = 0; s < 2; ++s) {
          const double integral = g(p, q, r, s);
          if (integral == 0.0) continue;
          for (int s1 = 0; s1 < 2; ++s1) {
            for (int s2 = 0; s2 < 2; ++s2) {
              op.add_term({{{mode(p, s1), true},
                            {mode(r, s2), true},
                            {mode(s, s2), false},
                            {mode(q, s1), false}},
                           0.5 * integral});
            }
          }
        }
      }
    }
  }
  return op;
}

Hamiltonian h2_via_parity_mapping() {
  const QubitOperator mapped =
      map_to_qubits(h2_fermionic_hamiltonian(), FermionMapping::Parity);
  // Qubits 1 (spin-up parity) and 3 (total parity) carry conserved
  // symmetries under the block-spin ordering; taper them, scanning sectors
  // for the ground state.
  double best_energy = std::numeric_limits<double>::infinity();
  Hamiltonian best;
  for (int s3 : {1, -1}) {
    for (int s1 : {1, -1}) {
      const QubitOperator reduced =
          taper_qubit(taper_qubit(mapped, 3, s3), 1, s1);
      const Hamiltonian h = reduced.to_hamiltonian();
      const double e = h.ground_energy();
      if (e < best_energy) {
        best_energy = e;
        best = h;
      }
    }
  }
  return best;
}

}  // namespace qucp
