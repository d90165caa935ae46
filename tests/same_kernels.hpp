#pragma once
// Bit-for-bit comparison of two fused programs, for tests that pin a
// cached or plan-materialized program against CompiledProgram::compile.

#include <cstring>
#include <utility>

#include "sim/fusion.hpp"

namespace qucp::test_programs {

/// True when `a` and `b` have the same measurement map and the same
/// kernels, every coefficient compared with memcmp.
inline bool same_kernels(const CompiledProgram& a, const CompiledProgram& b) {
  if (a.num_qubits() != b.num_qubits() || a.ops().size() != b.ops().size() ||
      a.measurements() != b.measurements()) {
    return false;
  }
  for (std::size_t i = 0; i < a.ops().size(); ++i) {
    const FusedOp& x = a.ops()[i];
    const FusedOp& y = b.ops()[i];
    if (x.q[0] != y.q[0] || x.q[1] != y.q[1]) return false;
    for (const auto& [u, v] :
         {std::pair{&x.sv, &y.sv}, std::pair{&x.dm, &y.dm}}) {
      if (u->tag != v->tag || u->k != v->k ||
          std::memcmp(u->src, v->src, sizeof u->src) != 0 ||
          std::memcmp(u->re, v->re, sizeof u->re) != 0 ||
          std::memcmp(u->im, v->im, sizeof u->im) != 0) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace qucp::test_programs
