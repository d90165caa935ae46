#include "srb/srb.hpp"

#include <algorithm>
#include <set>

namespace qucp {

namespace {

/// Two one-hop pairs interfere when any cross-pair edge combination is
/// the same edge, shares a qubit or is one hop apart.
bool pairs_conflict(const Topology& topo, const std::pair<int, int>& p,
                    const std::pair<int, int>& q) {
  for (int e : {p.first, p.second}) {
    for (int f : {q.first, q.second}) {
      if (e == f || topo.edges()[e].shares_qubit(topo.edges()[f]) ||
          topo.one_hop(e, f)) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

std::vector<int> group_one_hop_pairs(const Topology& topo) {
  const auto pairs = topo.one_hop_edge_pairs();
  const std::size_t n = pairs.size();
  // Conflict adjacency.
  std::vector<std::vector<std::size_t>> adj(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (pairs_conflict(topo, pairs[i], pairs[j])) {
        adj[i].push_back(j);
        adj[j].push_back(i);
      }
    }
  }
  // Greedy coloring, largest degree first (Welsh-Powell).
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (adj[a].size() != adj[b].size()) {
      return adj[a].size() > adj[b].size();
    }
    return a < b;
  });
  std::vector<int> color(n, -1);
  for (std::size_t v : order) {
    std::set<int> used;
    for (std::size_t nb : adj[v]) {
      if (color[nb] >= 0) used.insert(color[nb]);
    }
    int c = 0;
    while (used.count(c)) ++c;
    color[v] = c;
  }
  return color;
}

SrbOverhead srb_overhead(const Topology& topo, int seeds) {
  SrbOverhead out;
  out.qubits = topo.num_qubits();
  out.edges = topo.num_edges();
  out.one_hop_pairs = static_cast<int>(topo.one_hop_edge_pairs().size());
  const std::vector<int> colors = group_one_hop_pairs(topo);
  out.groups =
      colors.empty() ? 0 : *std::max_element(colors.begin(), colors.end()) + 1;
  out.seeds = seeds;
  // Per group and seed: one job benchmarking first edges alone, one for
  // second edges alone, one simultaneous — the paper's 3x multiplier.
  out.jobs = out.groups * seeds * 3;
  return out;
}

CharacterizationResult characterize_crosstalk(
    const Device& device, const SrbCharacterizationOptions& options,
    Rng rng) {
  const Topology& topo = device.topology();
  CharacterizationResult result;
  for (const auto& [e1, e2] : topo.one_hop_edge_pairs()) {
    const Edge& edge1 = topo.edges()[e1];
    const Edge& edge2 = topo.edges()[e2];
    Rng pair_rng = rng.derive("pair:" + std::to_string(e1) + ":" +
                              std::to_string(e2));

    const RbResult ind1 = run_rb(device, edge1.a, edge1.b, options.rb,
                                 pair_rng.derive("ind1"));
    const RbResult ind2 = run_rb(device, edge2.a, edge2.b, options.rb,
                                 pair_rng.derive("ind2"));
    const auto [sim1, sim2] =
        run_simultaneous_rb(device, edge1.a, edge1.b, edge2.a, edge2.b,
                            options.rb, pair_rng.derive("sim"));

    PairCharacterization pc;
    pc.edge1 = e1;
    pc.edge2 = e2;
    pc.epc1_individual = ind1.epc;
    pc.epc1_simultaneous = sim1.epc;
    pc.epc2_individual = ind2.epc;
    pc.epc2_simultaneous = sim2.epc;
    const double r1 =
        ind1.epc > 1e-9 ? sim1.epc / ind1.epc : 1.0;
    const double r2 =
        ind2.epc > 1e-9 ? sim2.epc / ind2.epc : 1.0;
    pc.ratio = std::max({1.0, r1, r2});
    pc.significant = pc.ratio > options.ratio_threshold;
    if (pc.significant) {
      result.estimates.add_pair(e1, e2, pc.ratio);
    }
    result.pairs.push_back(pc);
  }
  return result;
}

}  // namespace qucp
