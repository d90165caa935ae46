#include "circuit/dag.hpp"

#include <algorithm>
#include <utility>

namespace qucp {

DagCircuit::DagCircuit(const Circuit& circuit) : circuit_(&circuit) {
  const auto& ops = circuit.ops();
  in_degree_.assign(ops.size(), 0);

  // last op seen on each qubit / clbit wire
  std::vector<int> last_q(circuit.num_qubits(), -1);
  std::vector<int> last_c(circuit.num_clbits(), -1);

  // Edges (from, to) in creation order, which is ascending `to`. Op i
  // links once to each distinct predecessor among its wires' last ops.
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  std::vector<std::size_t> linked;  // predecessors op i has linked
  auto link = [&](int from, std::size_t to) {
    if (from < 0) return;
    const auto f = static_cast<std::size_t>(from);
    if (std::find(linked.begin(), linked.end(), f) != linked.end()) return;
    linked.push_back(f);
    edges.emplace_back(f, to);
    ++in_degree_[to];
  };

  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Gate& g = ops[i];
    linked.clear();
    for (int q : g.qubits) {
      link(last_q[q], i);
      last_q[q] = static_cast<int>(i);
    }
    if (g.kind == GateKind::Measure) {
      link(last_c[g.clbit], i);
      last_c[g.clbit] = static_cast<int>(i);
    }
  }

  // Bucket the edges by source, keeping creation order within a bucket.
  succ_begin_.assign(ops.size() + 1, 0);
  for (const auto& [from, to] : edges) ++succ_begin_[from + 1];
  for (std::size_t u = 0; u < ops.size(); ++u) {
    succ_begin_[u + 1] += succ_begin_[u];
  }
  succ_.resize(edges.size());
  std::vector<std::size_t> fill(succ_begin_.begin(), succ_begin_.end() - 1);
  for (const auto& [from, to] : edges) succ_[fill[from]++] = to;
}

std::vector<std::size_t> DagCircuit::initial_front() const {
  std::vector<std::size_t> front;
  for (std::size_t i = 0; i < in_degree_.size(); ++i) {
    if (in_degree_[i] == 0) front.push_back(i);
  }
  return front;
}

FrontLayer::FrontLayer(const DagCircuit& dag)
    : dag_(&dag), pending_(dag.num_nodes()) {
  for (std::size_t i = 0; i < dag.num_nodes(); ++i) {
    pending_[i] = dag.in_degree(i);
  }
  front_ = dag.initial_front();
}

void FrontLayer::complete(std::size_t node) {
  auto it = std::find(front_.begin(), front_.end(), node);
  if (it == front_.end()) {
    throw std::invalid_argument("FrontLayer::complete: node not in front");
  }
  front_.erase(it);
  for (std::size_t s : dag_->successors(node)) {
    if (--pending_[s] == 0) front_.push_back(s);
  }
}

}  // namespace qucp
