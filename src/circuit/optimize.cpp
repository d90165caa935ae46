#include "circuit/optimize.hpp"

#include <cassert>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <stdexcept>

namespace qucp {

namespace {

constexpr double kTau = 2.0 * std::numbers::pi;
constexpr double kEps = 1e-12;

bool is_rotation(GateKind k) {
  return k == GateKind::RX || k == GateKind::RY || k == GateKind::RZ ||
         k == GateKind::U1;
}

/// Operand-sensitive inverse-pair test for gates of equal qubit sets.
bool is_inverse_pair(const Gate& a, const Gate& b) {
  auto same_ordered = [&] { return a.qubits == b.qubits; };
  auto same_unordered = [&] {
    return same_ordered() ||
           (a.qubits.size() == 2 && a.qubits[0] == b.qubits[1] &&
            a.qubits[1] == b.qubits[0]);
  };
  switch (a.kind) {
    case GateKind::X:
    case GateKind::Y:
    case GateKind::Z:
    case GateKind::H:
      return b.kind == a.kind && same_ordered();
    case GateKind::CX:
      return b.kind == GateKind::CX && same_ordered();
    case GateKind::CZ:
      return b.kind == GateKind::CZ && same_unordered();
    case GateKind::SWAP:
      return b.kind == GateKind::SWAP && same_unordered();
    case GateKind::S:
      return b.kind == GateKind::Sdg && same_ordered();
    case GateKind::Sdg:
      return b.kind == GateKind::S && same_ordered();
    case GateKind::T:
      return b.kind == GateKind::Tdg && same_ordered();
    case GateKind::Tdg:
      return b.kind == GateKind::T && same_ordered();
    default:
      return false;
  }
}

/// Per-wire links over the alive ops: for each op, one link per distinct
/// qubit it acts on, chained in op order along that qubit's wire. Killing
/// an op unlinks it, so an alive op's successor on one of its wires is its
/// link's `next` — the first alive later op on that wire, found in O(1)
/// instead of by a scan over the op list.
class WireLinks {
 public:
  WireLinks(const std::vector<Gate>& ops, int num_qubits) : base_(ops.size()) {
    std::size_t total = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      base_[i] = static_cast<std::uint32_t>(total);
      total += ops[i].qubits.size();
    }
    links_.resize(total);
    std::vector<std::int32_t> last(static_cast<std::size_t>(num_qubits),
                                   kNone);
    // A barrier may name a qubit twice; only its first position links.
    std::vector<std::uint32_t> seen(static_cast<std::size_t>(num_qubits), 0);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const auto& qs = ops[i].qubits;
      for (std::size_t k = 0; k < qs.size(); ++k) {
        const auto q = static_cast<std::size_t>(qs[k]);
        Link& link = links_[base_[i] + k];
        link.op = static_cast<std::uint32_t>(i);
        if (seen[q] == i + 1) continue;
        seen[q] = static_cast<std::uint32_t>(i + 1);
        const auto id = static_cast<std::int32_t>(base_[i] + k);
        link.linked = true;
        link.prev = last[q];
        if (last[q] != kNone) {
          links_[static_cast<std::size_t>(last[q])].next = id;
        }
        last[q] = id;
      }
    }
  }

  /// First alive op after alive op `i` on the wire of its operand `k`,
  /// or -1.
  [[nodiscard]] long next(std::size_t i, std::size_t k) const {
    const std::int32_t n = links_[base_[i] + k].next;
    if (n == kNone) return -1;
    return static_cast<long>(links_[static_cast<std::size_t>(n)].op);
  }

  /// Unlink op `i` (with `arity` operands) from every wire it sits on.
  void kill(std::size_t i, std::size_t arity) {
    for (std::size_t k = 0; k < arity; ++k) {
      const Link& link = links_[base_[i] + k];
      if (!link.linked) continue;
      if (link.prev != kNone) {
        links_[static_cast<std::size_t>(link.prev)].next = link.next;
      }
      if (link.next != kNone) {
        links_[static_cast<std::size_t>(link.next)].prev = link.prev;
      }
    }
  }

 private:
  static constexpr std::int32_t kNone = -1;
  struct Link {
    std::int32_t next = kNone;  ///< next link on the wire
    std::int32_t prev = kNone;
    std::uint32_t op = 0;       ///< owning op
    bool linked = false;        ///< false for a barrier's repeated qubit
  };
  std::vector<std::uint32_t> base_;  ///< first link of each op
  std::vector<Link> links_;
};

/// Shared fixpoint body. When `trace` is non-null, `exprs` carries the
/// expression id of every live op's params; merges append Add nodes and
/// every identity decision is logged so a template bind can validate a new
/// binding against the recorded control flow.
Circuit optimize_impl(const Circuit& circuit, OptimizeStats* stats,
                      const std::vector<ParamExprIds>* in_exprs,
                      OptimizeTrace* trace) {
  std::vector<Gate> ops = circuit.ops();
  std::vector<char> alive(ops.size(), 1);
  std::size_t num_alive = ops.size();
  // angle_is_identity of each rotation's angle, memoized until a merge
  // changes the angle (-1 = not evaluated). Every evaluation is still
  // logged, so the trace is the same.
  std::vector<signed char> identity(ops.size(), -1);
  WireLinks wires(ops, circuit.num_qubits());
  OptimizeStats local;
  const bool tracing = trace != nullptr;
  std::vector<ParamExprIds> exprs;
  if (tracing) {
    assert(in_exprs != nullptr && in_exprs->size() == ops.size());
    exprs = *in_exprs;
  }
  const auto kill = [&](std::size_t i) {
    alive[i] = 0;
    --num_alive;
    wires.kill(i, ops[i].qubits.size());
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (!alive[i]) continue;
      const Gate& g = ops[i];
      if (!is_unitary_gate(g.kind)) continue;

      // Identity removal — the fixpoint's only value-dependent branch, so
      // it is the only decision the trace needs to log.
      bool remove = g.kind == GateKind::I;
      if (!remove && is_rotation(g.kind)) {
        if (identity[i] < 0) identity[i] = angle_is_identity(g.params[0]);
        const bool ident = identity[i] != 0;
        if (tracing) trace->checks.push_back({exprs[i][0], ident});
        remove = ident;
      }
      if (remove) {
        kill(i);
        ++local.removed_identities;
        changed = true;
        continue;
      }

      // The candidate partner must be the next op on *every* wire of g.
      long j = wires.next(i, 0);
      if (j < 0) continue;
      bool adjacent = true;
      for (std::size_t k = 1; k < g.qubits.size(); ++k) {
        if (wires.next(i, k) != j) {
          adjacent = false;
          break;
        }
      }
      if (!adjacent) continue;
      Gate& h = ops[static_cast<std::size_t>(j)];
      if (!is_unitary_gate(h.kind)) continue;
      if (h.qubits.size() != g.qubits.size()) continue;
      // h must not touch qubits outside g (guaranteed for 1q; check 2q).
      if (g.qubits.size() == 2) {
        const bool subset =
            (h.qubits[0] == g.qubits[0] || h.qubits[0] == g.qubits[1]) &&
            (h.qubits[1] == g.qubits[0] || h.qubits[1] == g.qubits[1]);
        if (!subset) continue;
      }

      if (is_inverse_pair(g, h)) {
        kill(i);
        kill(static_cast<std::size_t>(j));
        ++local.cancelled_pairs;
        changed = true;
        continue;
      }
      if (is_rotation(g.kind) && h.kind == g.kind &&
          h.qubits == g.qubits) {
        if (tracing) {
          exprs[static_cast<std::size_t>(j)][0] =
              trace->add(exprs[static_cast<std::size_t>(j)][0], exprs[i][0]);
        }
        h.params[0] += g.params[0];
        identity[static_cast<std::size_t>(j)] = -1;
        kill(i);
        ++local.merged_rotations;
        changed = true;
        continue;
      }
    }
  }

  Circuit out(circuit.num_qubits(), circuit.num_clbits(), circuit.name());
  out.reserve(num_alive);
  if (tracing) trace->out_exprs.reserve(trace->out_exprs.size() + num_alive);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (alive[i]) {
      out.append(std::move(ops[i]));
      if (tracing) trace->out_exprs.push_back(std::move(exprs[i]));
    }
  }
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace

bool angle_is_identity(double theta) noexcept {
  const double m = std::fmod(std::fmod(theta, kTau) + kTau, kTau);
  return m < kEps || kTau - m < kEps;
}

Circuit optimize(const Circuit& circuit, OptimizeStats* stats) {
  return optimize_impl(circuit, stats, nullptr, nullptr);
}

Circuit optimize_traced(const Circuit& circuit,
                        const std::vector<ParamExprIds>& in_exprs,
                        OptimizeTrace& trace, OptimizeStats* stats) {
  if (in_exprs.size() != circuit.size()) {
    throw std::invalid_argument("optimize_traced: in_exprs/ops size mismatch");
  }
  return optimize_impl(circuit, stats, &in_exprs, &trace);
}

}  // namespace qucp
