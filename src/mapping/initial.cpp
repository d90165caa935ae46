#include "mapping/initial.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

namespace qucp {

std::vector<std::vector<int>> interaction_weights(const Circuit& circuit) {
  const int n = circuit.num_qubits();
  std::vector<std::vector<int>> w(n, std::vector<int>(n, 0));
  for (const Gate& g : circuit.ops()) {
    if (!is_two_qubit_gate(g.kind)) continue;
    ++w[g.qubits[0]][g.qubits[1]];
    ++w[g.qubits[1]][g.qubits[0]];
  }
  return w;
}

namespace {

/// Quality of a physical qubit for tie-breaking: lower is better.
/// `in_partition` flags the partition's qubits.
double phys_error_score(const Device& device, int q,
                        const std::vector<char>& in_partition) {
  double err = device.readout_error(q);
  int links = 0;
  double cx_sum = 0.0;
  for (int nb : device.topology().neighbors(q)) {
    if (!in_partition[static_cast<std::size_t>(nb)]) continue;
    cx_sum += device.cx_error(q, nb);
    ++links;
  }
  if (links > 0) err += cx_sum / links;
  return err;
}

}  // namespace

std::vector<int> initial_layout(const Circuit& circuit, const Device& device,
                                std::span<const int> partition,
                                PlacementStyle style) {
  const int n = circuit.num_qubits();
  const Topology& topo = device.topology();
  const std::set<int> part_set(partition.begin(), partition.end());
  if (static_cast<int>(part_set.size()) < n) {
    throw std::invalid_argument("initial_layout: partition too small");
  }
  if (!topo.is_connected_subset(partition)) {
    throw std::invalid_argument("initial_layout: partition not connected");
  }

  const auto weights = interaction_weights(circuit);
  std::vector<int> total_weight(n, 0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) total_weight[i] += weights[i][j];
  }

  std::vector<int> layout(n, -1);
  std::set<int> free_phys = part_set;
  std::vector<bool> placed(n, false);

  // Per partition qubit, computed once: its error score and its physical
  // connectivity inside the partition (for the anchor choice).
  std::vector<char> in_partition(static_cast<std::size_t>(topo.num_qubits()),
                                 0);
  for (int q : part_set) in_partition[static_cast<std::size_t>(q)] = 1;
  std::vector<double> error_score(in_partition.size(), 0.0);
  std::vector<int> part_degree(in_partition.size(), 0);
  for (int q : part_set) {
    error_score[static_cast<std::size_t>(q)] =
        phys_error_score(device, q, in_partition);
    for (int nb : topo.neighbors(q)) {
      part_degree[static_cast<std::size_t>(q)] +=
          in_partition[static_cast<std::size_t>(nb)];
    }
  }
  // The partition's average CX error per hop (noise-adaptive placement).
  double avg_err = 0.0;
  if (style != PlacementStyle::HardwareAware) {
    int cnt = 0;
    for (int e : topo.induced_edges(partition)) {
      avg_err += device.calibration().cx_error[e];
      ++cnt;
    }
    avg_err = cnt > 0 ? avg_err / cnt : 0.05;
  }

  for (int step = 0; step < n; ++step) {
    // Next logical: highest connection weight to already-placed logicals;
    // first step (or isolated qubits) fall back to total weight.
    int logical = -1;
    int best_key = -1;
    for (int l = 0; l < n; ++l) {
      if (placed[l]) continue;
      int key = 0;
      for (int m = 0; m < n; ++m) {
        if (placed[m]) key += weights[l][m];
      }
      key = key * 1000 + total_weight[l];  // placed-links dominate
      if (key > best_key) {
        best_key = key;
        logical = l;
      }
    }

    // Candidate physical qubits, scored per placement style.
    int best_phys = -1;
    double best_score = 0.0;
    for (int phys : free_phys) {
      double score = 0.0;
      if (style == PlacementStyle::HardwareAware) {
        // Distance to placed partners (weighted), fewer hops better; the
        // anchor prefers high partition connectivity. Error tie-break.
        for (int m = 0; m < n; ++m) {
          if (placed[m] && weights[logical][m] > 0) {
            score += weights[logical][m] * topo.distance(phys, layout[m]);
          }
        }
        score -= 0.1 * part_degree[static_cast<std::size_t>(phys)];
        // Error term scaled so calibration dominates pure-connectivity
        // tie-breaks (the point of the hardware-aware heuristic [18]).
        score += 10.0 * error_score[static_cast<std::size_t>(phys)];
      } else {
        // Noise-adaptive: maximize log reliability toward partners (use
        // negated value so that lower stays better).
        for (int m = 0; m < n; ++m) {
          if (!placed[m] || weights[logical][m] == 0) continue;
          const int d = topo.distance(phys, layout[m]);
          // Approximate path reliability with the partition's average CX
          // error per hop.
          score += weights[logical][m] *
                   (-std::log1p(-std::min(0.99, avg_err)) * d);
        }
        score += 2.0 * device.readout_error(phys);
        score += 10.0 * error_score[static_cast<std::size_t>(phys)];
      }
      if (best_phys < 0 || score < best_score) {
        best_phys = phys;
        best_score = score;
      }
    }

    layout[logical] = best_phys;
    placed[logical] = true;
    free_phys.erase(best_phys);
  }
  return layout;
}

}  // namespace qucp
