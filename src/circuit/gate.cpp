#include "circuit/gate.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <unordered_map>

namespace qucp {

namespace {
constexpr double kPi = std::numbers::pi;
const cx kI{0.0, 1.0};
}  // namespace

std::string_view gate_name(GateKind kind) noexcept {
  switch (kind) {
    case GateKind::I: return "id";
    case GateKind::X: return "x";
    case GateKind::Y: return "y";
    case GateKind::Z: return "z";
    case GateKind::H: return "h";
    case GateKind::S: return "s";
    case GateKind::Sdg: return "sdg";
    case GateKind::T: return "t";
    case GateKind::Tdg: return "tdg";
    case GateKind::SX: return "sx";
    case GateKind::RX: return "rx";
    case GateKind::RY: return "ry";
    case GateKind::RZ: return "rz";
    case GateKind::U1: return "u1";
    case GateKind::U2: return "u2";
    case GateKind::U3: return "u3";
    case GateKind::CX: return "cx";
    case GateKind::CZ: return "cz";
    case GateKind::SWAP: return "swap";
    case GateKind::Barrier: return "barrier";
    case GateKind::Measure: return "measure";
  }
  return "?";
}

std::optional<GateKind> gate_from_name(std::string_view name) {
  static const std::unordered_map<std::string_view, GateKind> kMap = {
      {"id", GateKind::I},      {"i", GateKind::I},
      {"x", GateKind::X},       {"y", GateKind::Y},
      {"z", GateKind::Z},       {"h", GateKind::H},
      {"s", GateKind::S},       {"sdg", GateKind::Sdg},
      {"t", GateKind::T},       {"tdg", GateKind::Tdg},
      {"sx", GateKind::SX},     {"rx", GateKind::RX},
      {"ry", GateKind::RY},     {"rz", GateKind::RZ},
      {"u1", GateKind::U1},     {"p", GateKind::U1},
      {"u2", GateKind::U2},     {"u3", GateKind::U3},
      {"u", GateKind::U3},      {"cx", GateKind::CX},
      {"cnot", GateKind::CX},   {"cz", GateKind::CZ},
      {"swap", GateKind::SWAP}, {"barrier", GateKind::Barrier},
      {"measure", GateKind::Measure},
  };
  auto it = kMap.find(name);
  if (it == kMap.end()) return std::nullopt;
  return it->second;
}

bool is_self_inverse(GateKind kind) noexcept {
  switch (kind) {
    case GateKind::I:
    case GateKind::X:
    case GateKind::Y:
    case GateKind::Z:
    case GateKind::H:
    case GateKind::CX:
    case GateKind::CZ:
    case GateKind::SWAP:
      return true;
    default:
      return false;
  }
}

Gate inverse_gate(const Gate& g) {
  if (!is_unitary_gate(g.kind)) {
    throw std::invalid_argument("inverse_gate: non-unitary op");
  }
  Gate inv = g;
  if (is_self_inverse(g.kind)) return inv;
  switch (g.kind) {
    case GateKind::S:
      inv.kind = GateKind::Sdg;
      return inv;
    case GateKind::Sdg:
      inv.kind = GateKind::S;
      return inv;
    case GateKind::T:
      inv.kind = GateKind::Tdg;
      return inv;
    case GateKind::Tdg:
      inv.kind = GateKind::T;
      return inv;
    case GateKind::SX:
      // SX^dagger == RX(-pi/2) up to a global phase, which is unobservable
      // in every use of circuit inversion in this library.
      inv.kind = GateKind::RX;
      inv.params = {-kPi / 2.0};
      return inv;
    case GateKind::RX:
    case GateKind::RY:
    case GateKind::RZ:
    case GateKind::U1:
      inv.params = {-g.params.at(0)};
      return inv;
    case GateKind::U2:
      // U2(phi, lambda) == U3(pi/2, phi, lambda); inverse is
      // U3(-pi/2, -lambda, -phi).
      inv.kind = GateKind::U3;
      inv.params = {-kPi / 2.0, -g.params.at(1), -g.params.at(0)};
      return inv;
    case GateKind::U3:
      inv.params = {-g.params.at(0), -g.params.at(2), -g.params.at(1)};
      return inv;
    default:
      throw std::logic_error("inverse_gate: unhandled kind");
  }
}

int gate_matrix_into(GateKind kind, std::span<const double> params, cx* out) {
  const int want = gate_param_count(kind);
  if (static_cast<int>(params.size()) < want) {
    throw std::invalid_argument("gate_matrix: missing parameters");
  }
  const double s2 = 1.0 / std::sqrt(2.0);
  const auto m2 = [out](cx a, cx b, cx c, cx d) {
    out[0] = a;
    out[1] = b;
    out[2] = c;
    out[3] = d;
    return 2;
  };
  const auto m4 = [out](std::initializer_list<cx> vals) {
    int i = 0;
    for (cx v : vals) out[i++] = v;
    return 4;
  };
  switch (kind) {
    case GateKind::I:
      return m2(1, 0, 0, 1);
    case GateKind::X:
      return m2(0, 1, 1, 0);
    case GateKind::Y:
      return m2(0, -kI, kI, 0);
    case GateKind::Z:
      return m2(1, 0, 0, -1);
    case GateKind::H:
      return m2(s2, s2, s2, -s2);
    case GateKind::S:
      return m2(1, 0, 0, kI);
    case GateKind::Sdg:
      return m2(1, 0, 0, -kI);
    case GateKind::T:
      return m2(1, 0, 0, std::exp(kI * (kPi / 4.0)));
    case GateKind::Tdg:
      return m2(1, 0, 0, std::exp(-kI * (kPi / 4.0)));
    case GateKind::SX:
      return m2(cx{0.5, 0.5}, cx{0.5, -0.5}, cx{0.5, -0.5}, cx{0.5, 0.5});
    case GateKind::RX: {
      const double t = params[0] / 2.0;
      return m2(std::cos(t), -kI * std::sin(t), -kI * std::sin(t),
                std::cos(t));
    }
    case GateKind::RY: {
      const double t = params[0] / 2.0;
      return m2(std::cos(t), -std::sin(t), std::sin(t), std::cos(t));
    }
    case GateKind::RZ: {
      // exp(±i t) spelled as {cos t, ±sin t}: identical values (cexp of a
      // purely imaginary argument scales sincos by exp(0) == 1), one
      // sin/cos pair instead of two full complex exponentials — this is
      // the hottest parameterized kind in materialize's replay loop.
      const double t = params[0] / 2.0;
      const double c = std::cos(t);
      const double s = std::sin(t);
      return m2(cx{c, -s}, 0, 0, cx{c, s});
    }
    case GateKind::U1:
      return m2(1, 0, 0, std::exp(kI * params[0]));
    case GateKind::U2: {
      const double phi = params[0];
      const double lam = params[1];
      return m2(s2, -s2 * std::exp(kI * lam), s2 * std::exp(kI * phi),
                s2 * std::exp(kI * (phi + lam)));
    }
    case GateKind::U3: {
      const double t = params[0] / 2.0;
      const double phi = params[1];
      const double lam = params[2];
      return m2(std::cos(t), -std::exp(kI * lam) * std::sin(t),
                std::exp(kI * phi) * std::sin(t),
                std::exp(kI * (phi + lam)) * std::cos(t));
    }
    // Two-qubit matrices use basis index (first_operand << 1) | second,
    // i.e. the first operand (control for CX) is the high bit.
    case GateKind::CX:
      return m4({1, 0, 0, 0,  //
                 0, 1, 0, 0,  //
                 0, 0, 0, 1,  //
                 0, 0, 1, 0});
    case GateKind::CZ:
      return m4({1, 0, 0, 0,  //
                 0, 1, 0, 0,  //
                 0, 0, 1, 0,  //
                 0, 0, 0, -1});
    case GateKind::SWAP:
      return m4({1, 0, 0, 0,  //
                 0, 0, 1, 0,  //
                 0, 1, 0, 0,  //
                 0, 0, 0, 1});
    case GateKind::Barrier:
    case GateKind::Measure:
      throw std::invalid_argument("gate_matrix: non-unitary op");
  }
  throw std::logic_error("gate_matrix: unhandled kind");
}

Matrix gate_matrix(GateKind kind, std::span<const double> params) {
  cx buf[16];
  const int dim = gate_matrix_into(kind, params, buf);
  Matrix m(static_cast<std::size_t>(dim), static_cast<std::size_t>(dim));
  std::copy_n(buf, static_cast<std::size_t>(dim) * dim, m.data().begin());
  return m;
}

Matrix gate_matrix(const Gate& g) { return gate_matrix(g.kind, g.params); }

const Matrix* fixed_gate_matrix(GateKind kind) {
  // The tables below are indexed by enum value; fail the build if the
  // enum ordering this depends on ever changes.
  static_assert(static_cast<int>(GateKind::I) == 0 &&
                    static_cast<int>(GateKind::SX) == 9 &&
                    static_cast<int>(GateKind::SWAP) -
                            static_cast<int>(GateKind::CX) ==
                        2,
                "fixed_gate_matrix tables assume the GateKind ordering");
  // Immutable after the (thread-safe) first-use initialization, so reads
  // need no synchronization.
  static const std::array<Matrix, 10> table = {
      gate_matrix(GateKind::I),   gate_matrix(GateKind::X),
      gate_matrix(GateKind::Y),   gate_matrix(GateKind::Z),
      gate_matrix(GateKind::H),   gate_matrix(GateKind::S),
      gate_matrix(GateKind::Sdg), gate_matrix(GateKind::T),
      gate_matrix(GateKind::Tdg), gate_matrix(GateKind::SX)};
  static const std::array<Matrix, 3> table2 = {gate_matrix(GateKind::CX),
                                               gate_matrix(GateKind::CZ),
                                               gate_matrix(GateKind::SWAP)};
  const auto idx = static_cast<std::size_t>(kind);
  if (idx < table.size()) return &table[idx];
  if (kind >= GateKind::CX && kind <= GateKind::SWAP) {
    return &table2[idx - static_cast<std::size_t>(GateKind::CX)];
  }
  return nullptr;
}

}  // namespace qucp
