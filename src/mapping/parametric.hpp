#pragma once
// Parametric transpilation templates: transpile a circuit *structure* once,
// bind per-job parameter values in one cheap pass.
//
// Everything in the transpile pipeline except the peephole optimizer is
// parameter-blind: initial placement reads interaction weights (2q gate
// counts), SABRE routing copies gates verbatim and inserts parameterless
// SWAPs, and the partition/EFS layers consume gate placement only. The
// optimizer's control flow depends on values solely through its
// angle-is-identity decisions. A template therefore stores:
//
//   - the full TranspiledProgram of one representative binding (binding0);
//   - the parameter-expression DAG tracing every physical-op parameter back
//     to input slots through the optimizer's rotation merges (two traced
//     optimize passes — input-side and post-routing — share one DAG, glued
//     through routing by the router's per-op provenance, which names the
//     prepared op each routed op was copied from), flattened at build time
//     into one (op, param, node) patch list;
//   - every identity decision both passes took, deduplicated to one
//     (node, verdict) entry per checked node.
//
// bind() evaluates the DAG for a new slot binding, validates the verdicts,
// and patches the evaluated parameters into a copy of the stored physical
// circuit. Because the DAG replays the optimizer's additions in the
// original order and the structure is reused verbatim, a successful bind
// is bit-identical to a from-scratch build from the newly-bound circuit,
// and both equal the untraced pipeline (optimize, place, route, optimize)
// that tests/reference_transpile.hpp keeps as the oracle (golden-pinned in
// tests/test_parametric.cpp). build() is the library's one transpile
// pipeline: transpile_to_partition() returns a fresh build's result. A
// binding that flips any recorded decision (an angle landing on an
// identity the representative didn't have) is rejected and the caller
// falls back to a from-scratch build.

#include <cstdint>
#include <optional>
#include <span>

#include "circuit/optimize.hpp"
#include "mapping/transpiler.hpp"

namespace qucp {

struct TranspileTemplate {
  /// One physical-op parameter and the DAG node that computes it.
  struct Patch {
    std::uint32_t op;
    std::uint32_t param;
    std::uint32_t node;
  };
  /// One checked DAG node and the angle_is_identity verdict every
  /// recorded decision on it took.
  struct Verdict {
    std::uint32_t node;
    bool identity;
  };

  TranspiledProgram result;      ///< transpile of the binding0 circuit
  std::vector<double> binding0;  ///< slot values the template was built from
  std::vector<ParamExpr> nodes;  ///< shared expression DAG (both passes)
  std::vector<Patch> patches;    ///< every parameter of result.physical
  std::vector<Verdict> verdicts;  ///< one per checked node, first-seen order

  /// Build a template from a representative logical circuit: one
  /// placement, one routing pass. Throws std::invalid_argument or
  /// std::runtime_error when placement or routing fails.
  [[nodiscard]] static TranspileTemplate build(const Circuit& logical,
                                               const Device& device,
                                               std::span<const int> partition,
                                               const TranspileOptions& options);

  /// Bind a new slot assignment (ParamBinding order of a circuit with the
  /// same structural_fingerprint). Returns nullopt when the binding flips
  /// a recorded optimizer decision or its slot count mismatches.
  [[nodiscard]] std::optional<TranspiledProgram> bind(
      std::span<const double> binding) const;

  /// Heap footprint estimate (cache budget charge).
  [[nodiscard]] std::size_t bytes() const noexcept;
};

}  // namespace qucp
