#pragma once
// Random physical programs for the noisy-executor tests: connected device
// regions, circuits over them with every lowering case, rebindings that
// keep a circuit's structure, and a pair of programs that overlap on a
// ground-truth crosstalk pair.

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <stdexcept>
#include <utility>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "hardware/device.hpp"

namespace qucp::test_programs {

/// Grow a random connected region of up to `want` qubits outside `taken`.
inline std::vector<int> random_region(const Device& device, Rng& rng,
                                      int want, std::vector<char>& taken) {
  const Topology& topo = device.topology();
  std::vector<int> free;
  for (int q = 0; q < device.num_qubits(); ++q) {
    if (taken[static_cast<std::size_t>(q)] == 0) free.push_back(q);
  }
  if (free.empty()) return {};
  std::vector<int> region{free[rng.index(free.size())]};
  taken[static_cast<std::size_t>(region[0])] = 1;
  while (static_cast<int>(region.size()) < want) {
    std::vector<int> frontier;
    for (const Edge& e : topo.edges()) {
      const bool has_a = std::count(region.begin(), region.end(), e.a) > 0;
      const bool has_b = std::count(region.begin(), region.end(), e.b) > 0;
      const int other = has_a ? e.b : e.a;
      if (has_a != has_b && taken[static_cast<std::size_t>(other)] == 0) {
        frontier.push_back(other);
      }
    }
    if (frontier.empty()) break;
    region.push_back(frontier[rng.index(frontier.size())]);
    taken[static_cast<std::size_t>(region.back())] = 1;
  }
  return region;
}

/// Random physical circuit on `region`: rotations (parametric and fixed),
/// CX/CZ/SWAP on coupled pairs, region barriers, mid-circuit and final
/// measurements.
inline Circuit random_physical_circuit(const Device& device, Rng& rng,
                                       const std::vector<int>& region,
                                       int steps) {
  static const GateKind k1q[] = {GateKind::H,  GateKind::X,  GateKind::S,
                                 GateKind::T,  GateKind::SX, GateKind::RX,
                                 GateKind::RY, GateKind::RZ, GateKind::U1,
                                 GateKind::U2, GateKind::U3};
  std::vector<std::pair<int, int>> pairs;
  for (const Edge& e : device.topology().edges()) {
    if (std::count(region.begin(), region.end(), e.a) > 0 &&
        std::count(region.begin(), region.end(), e.b) > 0) {
      pairs.emplace_back(e.a, e.b);
    }
  }
  Circuit c(device.num_qubits(), static_cast<int>(region.size()));
  int next_clbit = 0;
  for (int s = 0; s < steps; ++s) {
    const double roll = rng.uniform();
    if (!pairs.empty() && roll < 0.45) {
      auto [a, b] = pairs[rng.index(pairs.size())];
      if (rng.bernoulli(0.5)) std::swap(a, b);
      const double kind = rng.uniform();
      if (kind < 0.6) {
        c.cx(a, b);
      } else if (kind < 0.8) {
        c.cz(a, b);
      } else {
        c.swap(a, b);
      }
    } else if (roll < 0.9) {
      Gate g;
      g.kind = k1q[rng.index(std::size(k1q))];
      g.qubits = {region[rng.index(region.size())]};
      for (int i = 0; i < gate_param_count(g.kind); ++i) {
        g.params.push_back(rng.uniform(-3.0, 3.0));
      }
      c.append(std::move(g));
    } else if (roll < 0.95) {
      c.barrier(region);
    } else if (next_clbit < static_cast<int>(region.size())) {
      c.measure(region[static_cast<std::size_t>(next_clbit)], next_clbit);
      ++next_clbit;
    }
  }
  for (; next_clbit < static_cast<int>(region.size()); ++next_clbit) {
    c.measure(region[static_cast<std::size_t>(next_clbit)], next_clbit);
  }
  return c;
}

/// Same structure, fresh angles.
inline Circuit rebind(const Circuit& c, Rng& rng) {
  Circuit out = c;
  for (std::size_t i = 0; i < out.size(); ++i) {
    for (std::size_t k = 0; k < out.ops()[i].params.size(); ++k) {
      out.set_param(i, k, rng.uniform(-3.0, 3.0));
    }
  }
  return out;
}

/// Two CXs on the device's first ground-truth crosstalk pair: program `a`
/// is `lead` 1q gates on its control and then its CX, `b` only its CX.
struct CrosstalkPair {
  Circuit a;
  Circuit b;
};

inline CrosstalkPair crosstalk_pair(const Device& device, int lead) {
  const auto pairs = device.crosstalk_ground_truth().pairs();
  if (pairs.empty()) throw std::logic_error("device has no crosstalk pairs");
  const auto& [e1, e2, g] = pairs.front();
  const Edge& ea = device.topology().edges()[static_cast<std::size_t>(e1)];
  const Edge& eb = device.topology().edges()[static_cast<std::size_t>(e2)];
  CrosstalkPair out{Circuit(device.num_qubits(), 2),
                    Circuit(device.num_qubits(), 2)};
  for (int i = 0; i < lead; ++i) out.a.rx(0.3 + 0.1 * i, ea.a);
  out.a.cx(ea.a, ea.b);
  out.a.measure(ea.a, 0);
  out.a.measure(ea.b, 1);
  out.b.cx(eb.a, eb.b);
  out.b.measure(eb.a, 0);
  out.b.measure(eb.b, 1);
  return out;
}

}  // namespace qucp::test_programs
