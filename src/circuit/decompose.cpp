#include "circuit/decompose.hpp"

namespace qucp {

Circuit lower_to_cx_basis(const Circuit& circuit) {
  std::size_t expanded = 0;
  for (const Gate& g : circuit.ops()) {
    if (g.kind == GateKind::SWAP || g.kind == GateKind::CZ) ++expanded;
  }
  Circuit out(circuit.num_qubits(), circuit.num_clbits(), circuit.name());
  out.reserve(circuit.size() + 2 * expanded);
  for (const Gate& g : circuit.ops()) {
    if (g.kind == GateKind::SWAP) {
      out.cx(g.qubits[0], g.qubits[1]);
      out.cx(g.qubits[1], g.qubits[0]);
      out.cx(g.qubits[0], g.qubits[1]);
    } else if (g.kind == GateKind::CZ) {
      out.h(g.qubits[1]);
      out.cx(g.qubits[0], g.qubits[1]);
      out.h(g.qubits[1]);
    } else {
      out.append(g);
    }
  }
  return out;
}

}  // namespace qucp
