#pragma once
// Coupling-graph model of a quantum chip.
//
// Qubits are vertices; an edge means a native CX is available between the
// two qubits (both directions). Distances are hop counts. "One-hop edge
// pairs" — disjoint edges joined by a single coupling link — are the pairs
// on which simultaneous CNOTs can experience crosstalk (Murali et al.,
// ASPLOS'20). Topology decides that relation once, in its constructor, and
// one_hop(e, f) is the only place it is read: EFS scoring and the
// allocator's states (Eq. 1's q_crosstalk edges), the CNA router's
// penalty, the executor's crosstalk serialization, SRB grouping (Table I)
// and the sigma ablation all call it.

#include <optional>
#include <span>
#include <utility>
#include <vector>

namespace qucp {

/// Canonical undirected edge (a < b after normalization).
struct Edge {
  int a = 0;
  int b = 0;

  Edge() = default;
  Edge(int x, int y) : a(x < y ? x : y), b(x < y ? y : x) {}

  [[nodiscard]] bool contains(int q) const noexcept { return q == a || q == b; }
  [[nodiscard]] bool shares_qubit(const Edge& other) const noexcept {
    return contains(other.a) || contains(other.b);
  }
  [[nodiscard]] bool operator==(const Edge& other) const = default;
  [[nodiscard]] auto operator<=>(const Edge& other) const = default;
};

class Topology {
 public:
  /// Build from an edge list; duplicate/self edges rejected.
  Topology(int num_qubits, std::vector<std::pair<int, int>> edge_list);

  [[nodiscard]] int num_qubits() const noexcept { return num_qubits_; }
  [[nodiscard]] const std::vector<Edge>& edges() const noexcept {
    return edges_;
  }
  [[nodiscard]] int num_edges() const noexcept {
    return static_cast<int>(edges_.size());
  }

  [[nodiscard]] bool adjacent(int a, int b) const;
  [[nodiscard]] const std::vector<int>& neighbors(int q) const;

  /// Edge id of (a,b) if coupled.
  [[nodiscard]] std::optional<int> edge_index(int a, int b) const;

  /// Hop distance; -1 when disconnected.
  [[nodiscard]] int distance(int a, int b) const;

  /// True when edges e and f (edge ids) are disjoint and an endpoint of e
  /// is adjacent to an endpoint of f. Symmetric; false for e == f. Throws
  /// std::out_of_range for an edge id outside [0, num_edges()).
  [[nodiscard]] bool one_hop(int e, int f) const;

  /// The pairs (e, f) with e < f and one_hop(e, f), in (e, f) order.
  [[nodiscard]] std::vector<std::pair<int, int>> one_hop_edge_pairs() const;

  /// True when the qubit subset induces a connected subgraph.
  [[nodiscard]] bool is_connected_subset(std::span<const int> qubits) const;

  /// Edges with both endpoints inside the subset (edge ids).
  [[nodiscard]] std::vector<int> induced_edges(
      std::span<const int> qubits) const;

 private:
  void check_qubit(int q) const;

  int num_qubits_ = 0;
  std::vector<Edge> edges_;
  std::vector<std::vector<int>> adj_;       // neighbor lists
  std::vector<int> edge_of_;  ///< dense (a,b) -> edge id, -1 when uncoupled
  std::vector<char> one_hop_;  ///< dense (e,f) -> one_hop(e, f)
  std::vector<std::vector<int>> dist_;      // all-pairs hop distances
};

}  // namespace qucp
