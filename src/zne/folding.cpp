#include "zne/folding.hpp"

#include <cmath>
#include <stdexcept>

namespace qucp {

namespace {

/// Split a measured circuit into its unitary body and terminal
/// measurements; throws on non-terminal measurement.
struct SplitCircuit {
  Circuit body;
  std::vector<std::pair<int, int>> measurements;  // (qubit, clbit)
};

SplitCircuit split_terminal(const Circuit& circuit) {
  SplitCircuit out{Circuit(circuit.num_qubits(), circuit.num_clbits(),
                           circuit.name()),
                   {}};
  std::vector<bool> measured(static_cast<std::size_t>(circuit.num_qubits()),
                             false);
  for (const Gate& g : circuit.ops()) {
    if (g.kind == GateKind::Measure) {
      out.measurements.emplace_back(g.qubits[0], g.clbit);
      measured[static_cast<std::size_t>(g.qubits[0])] = true;
      continue;
    }
    if (g.kind == GateKind::Barrier) continue;
    for (int q : g.qubits) {
      if (measured[static_cast<std::size_t>(q)]) {
        throw std::invalid_argument("folding: non-terminal measurement");
      }
    }
    out.body.append(g);
  }
  return out;
}

void append_measurements(Circuit& c,
                         const std::vector<std::pair<int, int>>& ms) {
  for (const auto& [q, cl] : ms) c.measure(q, cl);
}

}  // namespace

Circuit fold_gates_at_random(const Circuit& circuit, double scale, Rng rng) {
  if (scale < 1.0) {
    throw std::invalid_argument("fold_gates_at_random: scale < 1");
  }
  SplitCircuit split = split_terminal(circuit);
  const std::size_t n = split.body.size();
  if (n == 0) return circuit;

  // Each fold adds 2 extra copies of one gate. Number of single folds to
  // reach the scale: d = round(n * (scale - 1) / 2), spread over the
  // circuit with repetition allowed past scale 3.
  const auto folds =
      static_cast<std::size_t>(std::llround(n * (scale - 1.0) / 2.0));
  std::vector<int> fold_count(n, 0);
  const std::size_t full_rounds = folds / n;
  for (auto& f : fold_count) f += static_cast<int>(full_rounds);
  std::size_t remaining = folds % n;
  // Random subset for the partial round.
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  rng.shuffle(order);
  for (std::size_t i = 0; i < remaining; ++i) ++fold_count[order[i]];

  Circuit out(circuit.num_qubits(), circuit.num_clbits(), circuit.name());
  for (std::size_t i = 0; i < n; ++i) {
    const Gate& g = split.body.ops()[i];
    out.append(g);
    for (int f = 0; f < fold_count[i]; ++f) {
      out.append(inverse_gate(g));
      out.append(g);
    }
  }
  append_measurements(out, split.measurements);
  return out;
}

double achieved_scale(const Circuit& original, const Circuit& folded) {
  const int base = original.gate_count();
  if (base == 0) throw std::invalid_argument("achieved_scale: empty circuit");
  return static_cast<double>(folded.gate_count()) / base;
}

std::vector<double> paper_scale_factors() { return {1.0, 1.5, 2.0, 2.5}; }

}  // namespace qucp
