#pragma once
// Dependency DAG view over a Circuit.
//
// Nodes are op indices into the source circuit; an edge u -> v exists when v
// is the next op touching one of u's wires. The router consumes the DAG
// front-layer style (SABRE): executable ops are popped from the front,
// releasing their successors.

#include <cstddef>
#include <span>
#include <vector>

#include "circuit/circuit.hpp"

namespace qucp {

class DagCircuit {
 public:
  explicit DagCircuit(const Circuit& circuit);

  [[nodiscard]] const Circuit& circuit() const noexcept { return *circuit_; }
  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return in_degree_.size();
  }

  /// Successor node ids of `node`, ascending.
  [[nodiscard]] std::span<const std::size_t> successors(
      std::size_t node) const {
    const std::size_t begin = succ_begin_.at(node);
    return {succ_.data() + begin, succ_begin_[node + 1] - begin};
  }

  /// Number of predecessors of `node`.
  [[nodiscard]] int in_degree(std::size_t node) const {
    return in_degree_.at(node);
  }

  /// Nodes with no predecessors.
  [[nodiscard]] std::vector<std::size_t> initial_front() const;

  /// The gate behind a node.
  [[nodiscard]] const Gate& gate(std::size_t node) const {
    return circuit_->ops().at(node);
  }

 private:
  const Circuit* circuit_;
  /// Successor lists in one buffer: node u's are
  /// succ_[succ_begin_[u] .. succ_begin_[u + 1]).
  std::vector<std::size_t> succ_begin_;
  std::vector<std::size_t> succ_;
  std::vector<int> in_degree_;
};

/// Mutable front-layer traversal state used by routers.
///
/// Tracks remaining in-degrees; `complete(node)` retires a node and returns
/// newly released successors.
class FrontLayer {
 public:
  explicit FrontLayer(const DagCircuit& dag);

  [[nodiscard]] const std::vector<std::size_t>& nodes() const noexcept {
    return front_;
  }
  [[nodiscard]] bool empty() const noexcept { return front_.empty(); }

  /// Retire a node currently in the front; newly-ready successors join the
  /// front. Throws if the node is not in the front.
  void complete(std::size_t node);

 private:
  const DagCircuit* dag_;
  std::vector<int> pending_;
  std::vector<std::size_t> front_;
};

}  // namespace qucp
