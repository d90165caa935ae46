#include "mapping/router.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <stdexcept>

#include "circuit/dag.hpp"

namespace qucp {

namespace {

// Swap-score weights (the cost function in router.hpp).
constexpr double kErrorWeight = 10.0;
constexpr double kLookaheadWeight = 0.5;
constexpr int kLookaheadDepth = 20;
constexpr double kDecay = 0.001;
constexpr int kDecayResetInterval = 5;
constexpr double kCrosstalkWeight = 5.0;

/// Hop distances inside the partition-induced subgraph.
class PartitionDistances {
 public:
  PartitionDistances(const Topology& topo, std::span<const int> partition)
      : local_(static_cast<std::size_t>(topo.num_qubits()), -1) {
    int next = 0;
    for (int q : partition) local_[q] = next++;
    const int n = next;
    dist_.assign(n, std::vector<int>(n, -1));
    for (int src : partition) {
      const int ls = local_[src];
      dist_[ls][ls] = 0;
      std::deque<int> queue{src};
      while (!queue.empty()) {
        const int u = queue.front();
        queue.pop_front();
        for (int v : topo.neighbors(u)) {
          const int lv = local_[v];
          if (lv < 0) continue;
          if (dist_[ls][lv] < 0) {
            dist_[ls][lv] = dist_[ls][local_[u]] + 1;
            queue.push_back(v);
          }
        }
      }
    }
  }

  [[nodiscard]] int distance(int phys_a, int phys_b) const {
    return dist_[local_[phys_a]][local_[phys_b]];
  }

 private:
  std::vector<int> local_;  ///< physical qubit -> partition index, or -1
  std::vector<std::vector<int>> dist_;
};

}  // namespace

RoutingResult route_on_partition(const Circuit& circuit, const Device& device,
                                 std::span<const int> partition,
                                 std::span<const int> initial_layout,
                                 const RouterOptions& options) {
  const Topology& topo = device.topology();
  const auto num_phys = static_cast<std::size_t>(topo.num_qubits());
  if (!topo.is_connected_subset(partition)) {
    throw std::invalid_argument("route_on_partition: partition not connected");
  }
  if (static_cast<int>(initial_layout.size()) != circuit.num_qubits()) {
    throw std::invalid_argument("route_on_partition: layout size mismatch");
  }
  {
    // 0 = outside the partition, 1 = free partition qubit, 2 = laid out.
    std::vector<char> slot(num_phys, 0);
    for (int q : partition) slot[q] = 1;
    for (int phys : initial_layout) {
      if (phys < 0 || phys >= topo.num_qubits() || slot[phys] != 1) {
        throw std::invalid_argument(
            "route_on_partition: layout not injective into partition");
      }
      slot[phys] = 2;
    }
  }

  // Validate terminal measurements and separate them from the gate body,
  // remembering which input op each body op and measurement came from.
  struct Measurement {
    int logical;
    int clbit;
    int src;
  };
  std::vector<Measurement> measurements;
  Circuit body(circuit.num_qubits(), circuit.num_clbits());
  std::vector<int> body_src;
  {
    std::vector<char> measured(static_cast<std::size_t>(circuit.num_qubits()),
                               0);
    for (std::size_t i = 0; i < circuit.size(); ++i) {
      const Gate& g = circuit.ops()[i];
      if (g.kind == GateKind::Measure) {
        measurements.push_back({g.qubits[0], g.clbit, static_cast<int>(i)});
        measured[g.qubits[0]] = 1;
        continue;
      }
      if (g.kind == GateKind::Barrier) continue;
      for (int q : g.qubits) {
        if (measured[q]) {
          throw std::invalid_argument(
              "route_on_partition: non-terminal measurement");
        }
      }
      body.append(g);
      body_src.push_back(static_cast<int>(i));
    }
  }

  const PartitionDistances dists(topo, partition);
  const std::vector<int> part_edges = topo.induced_edges(partition);

  std::vector<int> layout(initial_layout.begin(), initial_layout.end());
  std::vector<int> log_of(num_phys, -1);  // physical -> logical
  for (int l = 0; l < circuit.num_qubits(); ++l) log_of[layout[l]] = l;

  const DagCircuit dag(body);
  FrontLayer front(dag);
  Circuit physical(device.num_qubits(), circuit.num_clbits(), circuit.name());
  std::vector<int> source;
  source.reserve(body.size() + measurements.size());
  std::vector<double> decay(num_phys, 0.0);
  std::vector<char> involved(num_phys, 0);
  int swaps_added = 0;
  int since_reset = 0;

  auto phys_gate = [&](const Gate& g) {
    Gate out = g;
    for (int& q : out.qubits) q = layout[q];
    return out;
  };

  // Extended (look-ahead) set: the next few 2q gates past the front.
  // `seen_at[node] == pass` marks a node visited by the current pass.
  std::vector<std::uint32_t> seen_at(dag.num_nodes(), 0);
  std::uint32_t pass = 0;
  auto extended_set = [&](const std::vector<std::size_t>& front_nodes) {
    ++pass;
    std::vector<std::size_t> ext;
    std::deque<std::size_t> queue(front_nodes.begin(), front_nodes.end());
    for (std::size_t n : front_nodes) seen_at[n] = pass;
    while (!queue.empty() &&
           static_cast<int>(ext.size()) < kLookaheadDepth) {
      const std::size_t n = queue.front();
      queue.pop_front();
      for (std::size_t s : dag.successors(n)) {
        if (seen_at[s] == pass) continue;
        seen_at[s] = pass;
        if (is_two_qubit_gate(dag.gate(s).kind)) ext.push_back(s);
        queue.push_back(s);
      }
    }
    return ext;
  };

  int guard = 0;
  const int max_iterations =
      10000 + 200 * static_cast<int>(body.size() + 1);
  while (!front.empty()) {
    if (++guard > max_iterations) {
      throw std::runtime_error("route_on_partition: routing did not converge");
    }
    // Apply every currently-executable front gate.
    bool applied = false;
    for (std::size_t node : std::vector<std::size_t>(front.nodes().begin(),
                                                     front.nodes().end())) {
      const Gate& g = dag.gate(node);
      const bool executable =
          !is_two_qubit_gate(g.kind) ||
          topo.adjacent(layout[g.qubits[0]], layout[g.qubits[1]]);
      if (!executable) continue;
      physical.append(phys_gate(g));
      source.push_back(body_src[node]);
      front.complete(node);
      applied = true;
    }
    if (applied) continue;

    // Blocked: every front gate is a non-adjacent 2q gate. Pick a SWAP.
    const std::vector<std::size_t>& front_nodes = front.nodes();
    const auto ext = extended_set(front_nodes);

    // Candidate swaps: partition edges touching a front gate's qubit.
    std::fill(involved.begin(), involved.end(), 0);
    for (std::size_t node : front_nodes) {
      for (int l : dag.gate(node).qubits) involved[layout[l]] = 1;
    }
    double best_score = std::numeric_limits<double>::infinity();
    int best_edge = -1;
    for (int e : part_edges) {
      const Edge& edge = topo.edges()[e];
      if (!involved[edge.a] && !involved[edge.b]) continue;

      // Tentative layout after the swap.
      auto dist_after = [&](int l0, int l1) {
        int p0 = layout[l0];
        int p1 = layout[l1];
        auto swapped = [&](int p) {
          if (p == edge.a) return edge.b;
          if (p == edge.b) return edge.a;
          return p;
        };
        return dists.distance(swapped(p0), swapped(p1));
      };

      double h_front = 0.0;
      for (std::size_t node : front_nodes) {
        const Gate& g = dag.gate(node);
        if (is_two_qubit_gate(g.kind)) {
          h_front += dist_after(g.qubits[0], g.qubits[1]);
        }
      }
      h_front /= static_cast<double>(front_nodes.size());

      double h_look = 0.0;
      if (!ext.empty()) {
        for (std::size_t node : ext) {
          const Gate& g = dag.gate(node);
          h_look += dist_after(g.qubits[0], g.qubits[1]);
        }
        h_look /= static_cast<double>(ext.size());
      }

      double score = (h_front + kLookaheadWeight * h_look) *
                     (1.0 + std::max(decay[edge.a], decay[edge.b]));
      if (options.noise_aware) {
        score += kErrorWeight * device.calibration().cx_error[e];
      }
      for (int f : options.context_edges) {
        if (topo.one_hop(e, f)) {
          score += kCrosstalkWeight * device.calibration().cx_error[e] *
                   (options.crosstalk.multiplier(e, f) - 1.0);
        }
      }
      if (score < best_score) {
        best_score = score;
        best_edge = e;
      }
    }
    if (best_edge < 0) {
      throw std::runtime_error("route_on_partition: no usable swap");
    }
    const Edge& se = topo.edges()[best_edge];
    physical.swap(se.a, se.b);
    source.push_back(-1);
    ++swaps_added;
    // Update layout maps.
    const int log_a = log_of[se.a];
    const int log_b = log_of[se.b];
    if (log_a >= 0) layout[log_a] = se.b;
    if (log_b >= 0) layout[log_b] = se.a;
    log_of[se.a] = log_b;
    log_of[se.b] = log_a;

    decay[se.a] += kDecay;
    decay[se.b] += kDecay;
    if (++since_reset >= kDecayResetInterval) {
      std::fill(decay.begin(), decay.end(), 0.0);
      since_reset = 0;
    }
  }

  for (const Measurement& m : measurements) {
    physical.measure(layout[m.logical], m.clbit);
    source.push_back(m.src);
  }

  RoutingResult result;
  result.physical = std::move(physical);
  result.final_layout = std::move(layout);
  result.source = std::move(source);
  result.swaps_added = swaps_added;
  return result;
}

}  // namespace qucp
