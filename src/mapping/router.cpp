#include "mapping/router.hpp"

#include <algorithm>
#include <cstdint>
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
      : local_(static_cast<std::size_t>(topo.num_qubits()), -1),
        n_(partition.size()) {
    int next = 0;
    for (int q : partition) local_[q] = next++;
    dist_.assign(n_ * n_, -1);
    // One breadth-first search per source; `queue` is FIFO from `head`.
    std::vector<int> queue;
    queue.reserve(n_);
    for (int src : partition) {
      int* row = &dist_[static_cast<std::size_t>(local_[src]) * n_];
      row[local_[src]] = 0;
      queue.assign(1, src);
      for (std::size_t head = 0; head < queue.size(); ++head) {
        const int u = queue[head];
        for (int v : topo.neighbors(u)) {
          const int lv = local_[v];
          if (lv < 0) continue;
          if (row[lv] < 0) {
            row[lv] = row[local_[u]] + 1;
            queue.push_back(v);
          }
        }
      }
    }
  }

  [[nodiscard]] int distance(int phys_a, int phys_b) const {
    return dist_[static_cast<std::size_t>(local_[phys_a]) * n_ +
                 static_cast<std::size_t>(local_[phys_b])];
  }

 private:
  std::vector<int> local_;  ///< physical qubit -> partition index, or -1
  std::size_t n_;           ///< partition size
  std::vector<int> dist_;   ///< n_ x n_, row = source
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
  body.reserve(circuit.size());
  std::vector<int> body_src;
  body_src.reserve(circuit.size());
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
  // Room for every input op; inserted SWAPs may grow the buffers once.
  const std::size_t emitted = body.size() + measurements.size();
  Circuit physical(device.num_qubits(), circuit.num_clbits(), circuit.name());
  physical.reserve(emitted);
  std::vector<int> source;
  source.reserve(emitted);
  std::vector<double> decay(num_phys, 0.0);
  std::vector<char> involved(num_phys, 0);
  int swaps_added = 0;
  int since_reset = 0;

  auto phys_gate = [&](const Gate& g) {
    Gate out = g;
    for (int& q : out.qubits) q = layout[q];
    return out;
  };

  // Extended (look-ahead) set: the next few 2q gates past the front,
  // breadth first (`queue` is FIFO from `head`). `seen_at[node] == pass`
  // marks a node visited by the current pass. Both buffers are reused
  // across passes.
  std::vector<std::uint32_t> seen_at(dag.num_nodes(), 0);
  std::uint32_t pass = 0;
  std::vector<std::size_t> ext;
  std::vector<std::size_t> queue;
  auto extended_set = [&](const std::vector<std::size_t>& front_nodes) {
    ++pass;
    ext.clear();
    queue.assign(front_nodes.begin(), front_nodes.end());
    for (std::size_t n : front_nodes) seen_at[n] = pass;
    const auto depth = static_cast<std::size_t>(kLookaheadDepth);
    for (std::size_t head = 0; head < queue.size() && ext.size() < depth;
         ++head) {
      for (std::size_t s : dag.successors(queue[head])) {
        if (seen_at[s] == pass) continue;
        seen_at[s] = pass;
        if (is_two_qubit_gate(dag.gate(s).kind)) ext.push_back(s);
        queue.push_back(s);
      }
    }
  };

  // A 2q gate's physical qubits under the current layout and their distance.
  struct PlacedPair {
    int p0;
    int p1;
    int dist;
  };
  const auto placed_pair = [&](const Gate& g) {
    const int p0 = layout[g.qubits[0]];
    const int p1 = layout[g.qubits[1]];
    return PlacedPair{p0, p1, dists.distance(p0, p1)};
  };
  std::vector<PlacedPair> front_pairs;
  std::vector<PlacedPair> look_pairs;

  int guard = 0;
  const int max_iterations =
      10000 + 200 * static_cast<int>(body.size() + 1);
  std::vector<std::size_t> ready;  // front snapshot: complete() edits front
  while (!front.empty()) {
    if (++guard > max_iterations) {
      throw std::runtime_error("route_on_partition: routing did not converge");
    }
    // Apply every currently-executable front gate.
    bool applied = false;
    ready.assign(front.nodes().begin(), front.nodes().end());
    for (std::size_t node : ready) {
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
    extended_set(front_nodes);

    // Candidate swaps: partition edges touching a front gate's qubit.
    std::fill(involved.begin(), involved.end(), 0);
    for (std::size_t node : front_nodes) {
      for (int l : dag.gate(node).qubits) involved[layout[l]] = 1;
    }
    // Distance terms are integers, so their sums in double are exact: a
    // candidate's sum is the current sum plus the change on the gates its
    // swap moves, the same double as summing every gate afresh.
    front_pairs.clear();
    look_pairs.clear();
    int front_sum = 0;
    int look_sum = 0;
    for (std::size_t node : front_nodes) {
      const Gate& g = dag.gate(node);
      if (is_two_qubit_gate(g.kind)) {
        front_pairs.push_back(placed_pair(g));
        front_sum += front_pairs.back().dist;
      }
    }
    for (std::size_t node : ext) {
      look_pairs.push_back(placed_pair(dag.gate(node)));
      look_sum += look_pairs.back().dist;
    }
    double best_score = std::numeric_limits<double>::infinity();
    int best_edge = -1;
    for (int e : part_edges) {
      const Edge& edge = topo.edges()[e];
      if (!involved[edge.a] && !involved[edge.b]) continue;

      // Sum of the pairs' distances under the tentative layout after the
      // swap.
      const auto sum_after = [&](const std::vector<PlacedPair>& pairs,
                                 int sum) {
        const auto swapped = [&](int p) {
          if (p == edge.a) return edge.b;
          if (p == edge.b) return edge.a;
          return p;
        };
        for (const PlacedPair& pp : pairs) {
          if (pp.p0 != edge.a && pp.p0 != edge.b && pp.p1 != edge.a &&
              pp.p1 != edge.b) {
            continue;
          }
          sum += dists.distance(swapped(pp.p0), swapped(pp.p1)) - pp.dist;
        }
        return sum;
      };

      const double h_front =
          static_cast<double>(sum_after(front_pairs, front_sum)) /
          static_cast<double>(front_nodes.size());
      const double h_look =
          ext.empty() ? 0.0
                      : static_cast<double>(sum_after(look_pairs, look_sum)) /
                            static_cast<double>(ext.size());

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
