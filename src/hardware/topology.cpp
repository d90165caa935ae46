#include "hardware/topology.hpp"

#include <algorithm>
#include <deque>
#include <set>
#include <stdexcept>

namespace qucp {

Topology::Topology(int num_qubits, std::vector<std::pair<int, int>> edge_list)
    : num_qubits_(num_qubits) {
  if (num_qubits <= 0) {
    throw std::invalid_argument("Topology: non-positive qubit count");
  }
  adj_.resize(num_qubits);
  std::set<Edge> seen;
  for (const auto& [x, y] : edge_list) {
    if (x == y) throw std::invalid_argument("Topology: self edge");
    if (x < 0 || x >= num_qubits || y < 0 || y >= num_qubits) {
      throw std::out_of_range("Topology: edge endpoint out of range");
    }
    const Edge e(x, y);
    if (!seen.insert(e).second) {
      throw std::invalid_argument("Topology: duplicate edge");
    }
    edges_.push_back(e);
    adj_[e.a].push_back(e.b);
    adj_[e.b].push_back(e.a);
  }
  for (auto& nb : adj_) std::sort(nb.begin(), nb.end());

  // Dense (a, b) -> edge id table for O(1) edge_index lookups: the
  // executor and the allocator's scoring loop query it per gate/candidate.
  edge_of_.assign(static_cast<std::size_t>(num_qubits) * num_qubits, -1);
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    const Edge& e = edges_[i];
    edge_of_[static_cast<std::size_t>(e.a) * num_qubits + e.b] =
        static_cast<int>(i);
    edge_of_[static_cast<std::size_t>(e.b) * num_qubits + e.a] =
        static_cast<int>(i);
  }

  // Dense E x E one-hop relation: f is one hop from e when it is disjoint
  // from e and has an endpoint n adjacent to an endpoint of e, so walking
  // the edges at each such n finds every f.
  const std::size_t ne = edges_.size();
  one_hop_.assign(ne * ne, 0);
  for (std::size_t i = 0; i < ne; ++i) {
    for (int q : {edges_[i].a, edges_[i].b}) {
      for (int n : adj_[q]) {
        for (int m : adj_[n]) {
          const auto j = static_cast<std::size_t>(
              edge_of_[static_cast<std::size_t>(n) * num_qubits + m]);
          if (!edges_[j].shares_qubit(edges_[i])) one_hop_[i * ne + j] = 1;
        }
      }
    }
  }

  // All-pairs BFS.
  dist_.assign(num_qubits, std::vector<int>(num_qubits, -1));
  for (int src = 0; src < num_qubits; ++src) {
    std::deque<int> queue{src};
    dist_[src][src] = 0;
    while (!queue.empty()) {
      const int u = queue.front();
      queue.pop_front();
      for (int v : adj_[u]) {
        if (dist_[src][v] < 0) {
          dist_[src][v] = dist_[src][u] + 1;
          queue.push_back(v);
        }
      }
    }
  }
}

void Topology::check_qubit(int q) const {
  if (q < 0 || q >= num_qubits_) {
    throw std::out_of_range("Topology: qubit out of range");
  }
}

bool Topology::adjacent(int a, int b) const {
  check_qubit(a);
  check_qubit(b);
  return std::binary_search(adj_[a].begin(), adj_[a].end(), b);
}

const std::vector<int>& Topology::neighbors(int q) const {
  check_qubit(q);
  return adj_[q];
}

std::optional<int> Topology::edge_index(int a, int b) const {
  check_qubit(a);
  check_qubit(b);
  const int idx = edge_of_[static_cast<std::size_t>(a) * num_qubits_ + b];
  if (idx < 0) return std::nullopt;
  return idx;
}

int Topology::distance(int a, int b) const {
  check_qubit(a);
  check_qubit(b);
  return dist_[a][b];
}

bool Topology::one_hop(int e, int f) const {
  if (e < 0 || e >= num_edges() || f < 0 || f >= num_edges()) {
    throw std::out_of_range("Topology: edge id out of range");
  }
  return one_hop_[static_cast<std::size_t>(e) * edges_.size() + f] != 0;
}

std::vector<std::pair<int, int>> Topology::one_hop_edge_pairs() const {
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < num_edges(); ++i) {
    for (int j = i + 1; j < num_edges(); ++j) {
      if (one_hop(i, j)) pairs.emplace_back(i, j);
    }
  }
  return pairs;
}

bool Topology::is_connected_subset(std::span<const int> qubits) const {
  if (qubits.empty()) return true;
  // Flat membership + an index-walked BFS queue: this runs per candidate
  // partition inside the allocator's scoring loop, so no per-query set
  // lookups or node allocations.
  std::vector<char> subset(static_cast<std::size_t>(num_qubits_), 0);
  std::size_t subset_size = 0;
  int first = num_qubits_;
  for (int q : qubits) {
    check_qubit(q);
    if (!subset[q]) {
      subset[q] = 1;
      ++subset_size;
      first = std::min(first, q);
    }
  }
  std::vector<int> queue{first};
  queue.reserve(subset_size);
  std::vector<char> visited(static_cast<std::size_t>(num_qubits_), 0);
  visited[first] = 1;
  std::size_t visited_size = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const int u = queue[head];
    for (int v : adj_[u]) {
      if (subset[v] && !visited[v]) {
        visited[v] = 1;
        ++visited_size;
        queue.push_back(v);
      }
    }
  }
  return visited_size == subset_size;
}

std::vector<int> Topology::induced_edges(std::span<const int> qubits) const {
  std::vector<char> subset(static_cast<std::size_t>(num_qubits_), 0);
  for (int q : qubits) {
    check_qubit(q);
    subset[q] = 1;
  }
  std::vector<int> out;
  for (int i = 0; i < num_edges(); ++i) {
    if (subset[edges_[i].a] && subset[edges_[i].b]) {
      out.push_back(i);
    }
  }
  return out;
}

}  // namespace qucp
