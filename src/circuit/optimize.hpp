#pragma once
// Peephole circuit optimizer.
//
// Emulates the cheap, always-profitable subset of what Qiskit's
// optimization_level=3 performs on these benchmark sizes: cancellation of
// adjacent inverse pairs (H-H, X-X, CX-CX, S-Sdg, T-Tdg, ...), merging of
// consecutive same-axis rotations, and removal of identity rotations.
// Passes iterate to a fixpoint.
//
// The traced variant (optimize_traced) additionally records how the output
// parameters derive from the input parameters, as an expression DAG
// (Slot / Add / Const nodes, evaluated in creation order), plus the ordered
// log of every angle_is_identity decision the fixpoint took. The pass's
// control flow depends on parameter *values* only through those decisions
// — adjacency, inverse-pair cancellation and merge opportunities are pure
// structure — so a new parameter binding whose decision log matches can
// reuse the traced output structure verbatim, with parameters re-evaluated
// from the DAG bitwise-identically to a from-scratch run (additions replay
// in the same order). This is the foundation of the parametric transpile
// templates in mapping/parametric.hpp.

#include <cstdint>

#include "circuit/circuit.hpp"
#include "common/small_vector.hpp"

namespace qucp {

struct OptimizeStats {
  int cancelled_pairs = 0;   ///< inverse pairs removed
  int merged_rotations = 0;  ///< rotation gates folded into a predecessor
  int removed_identities = 0;

  [[nodiscard]] int total() const {
    return cancelled_pairs * 2 + merged_rotations + removed_identities;
  }
};

/// One node of a parameter-expression DAG. Slot reads the binding value at
/// `slot`; Add sums two earlier nodes (ids `a`, `b`); Const is a fixed
/// value independent of the binding.
struct ParamExpr {
  enum class Kind : std::uint8_t { Slot, Add, Const };
  Kind kind = Kind::Const;
  std::uint32_t a = 0;    ///< Add: lhs node id
  std::uint32_t b = 0;    ///< Add: rhs node id
  std::int32_t slot = 0;  ///< Slot: binding index
  double value = 0.0;     ///< Const: fixed value
};

/// Expression node ids of one op's params, in param order. Inline up to the
/// gate set's three angles, so expression lists copy without allocating.
using ParamExprIds = SmallVector<std::uint32_t, 3>;

/// One recorded angle_is_identity evaluation: node id and outcome. A
/// binding that flips any recorded outcome would have steered the fixpoint
/// differently, so template binds validate the whole log before reusing
/// the traced structure.
struct ParamCheck {
  std::uint32_t node = 0;
  bool identity = false;
};

struct OptimizeTrace {
  std::vector<ParamExpr> nodes;
  std::vector<ParamCheck> checks;
  /// Node id per (output op, param), parallel to the returned circuit's
  /// ops. Appended by optimize_traced; clear between stages when chaining
  /// several traced passes over one node list.
  std::vector<ParamExprIds> out_exprs;

  std::uint32_t leaf(std::int32_t slot) {
    nodes.push_back({ParamExpr::Kind::Slot, 0, 0, slot, 0.0});
    return static_cast<std::uint32_t>(nodes.size() - 1);
  }
  std::uint32_t constant(double value) {
    nodes.push_back({ParamExpr::Kind::Const, 0, 0, 0, value});
    return static_cast<std::uint32_t>(nodes.size() - 1);
  }
  std::uint32_t add(std::uint32_t a, std::uint32_t b) {
    nodes.push_back({ParamExpr::Kind::Add, a, b, 0, 0.0});
    return static_cast<std::uint32_t>(nodes.size() - 1);
  }
};

/// Angle equivalent to zero mod 2*pi (identity up to an unobservable global
/// phase), the optimizer's only value-dependent decision. Exposed so
/// template binds validate recorded decision logs with the same predicate.
[[nodiscard]] bool angle_is_identity(double theta) noexcept;

/// Run peephole optimization until no pass makes progress.
/// Measurements and barriers act as optimization fences on their wires.
[[nodiscard]] Circuit optimize(const Circuit& circuit,
                               OptimizeStats* stats = nullptr);

/// Traced variant: identical output to optimize() (same arithmetic, same
/// order), recording the parameter provenance into `trace`. `in_exprs`
/// gives the node id of each input op's params (in_exprs[i][j] for
/// ops[i].params[j]; sized exactly like the circuit's param lists) —
/// typically fresh trace.leaf() slots, or composed expressions when a
/// later pipeline stage feeds a routed circuit back through. Appends to
/// trace.nodes/checks and fills trace.out_exprs for the surviving ops.
[[nodiscard]] Circuit optimize_traced(
    const Circuit& circuit,
    const std::vector<ParamExprIds>& in_exprs,
    OptimizeTrace& trace, OptimizeStats* stats = nullptr);

}  // namespace qucp
