#include "mapping/router.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <string>

#include "benchmarks/suite.hpp"
#include "common/rng.hpp"
#include "mapping/transpiler.hpp"
#include "sim/statevector.hpp"

namespace qucp {
namespace {

/// Verify the routed circuit equals the logical one under the final
/// layout: undo the permutation and compare ideal distributions.
void expect_equivalent(const Circuit& logical, const RoutingResult& routed) {
  const Distribution want = ideal_distribution(logical);
  const Distribution got = ideal_distribution(routed.physical.compacted());
  ASSERT_EQ(want.probs().size(), got.probs().size());
  for (const auto& [outcome, p] : want.probs()) {
    EXPECT_NEAR(got.prob(outcome), p, 1e-9) << "outcome " << outcome;
  }
}

TEST(Router, NoSwapsWhenAlreadyRoutable) {
  const Device d = make_line_device(5);
  Circuit c(3);
  c.h(0);
  c.cx(0, 1);
  c.cx(1, 2);
  c.measure_all();
  const std::vector<int> partition{1, 2, 3};
  const std::vector<int> layout{1, 2, 3};
  const RoutingResult r = route_on_partition(c, d, partition, layout);
  EXPECT_EQ(r.swaps_added, 0);
  expect_equivalent(c, r);
}

TEST(Router, InsertsSwapForDistantPair) {
  const Device d = make_line_device(5);
  Circuit c(3);
  c.x(0);
  c.cx(0, 2);  // endpoints of the partition line
  c.measure_all();
  const std::vector<int> partition{0, 1, 2};
  const std::vector<int> layout{0, 1, 2};
  const RoutingResult r = route_on_partition(c, d, partition, layout);
  EXPECT_GE(r.swaps_added, 1);
  expect_equivalent(c, r);
}

TEST(Router, StaysInsidePartition) {
  const Device d = make_line_device(8);
  Circuit c(3);
  c.cx(0, 2);
  c.cx(1, 2);
  c.cx(0, 1);
  c.measure_all();
  const std::vector<int> partition{3, 4, 5};
  const std::vector<int> layout{3, 4, 5};
  const RoutingResult r = route_on_partition(c, d, partition, layout);
  for (const Gate& g : r.physical.ops()) {
    for (int q : g.qubits) {
      EXPECT_GE(q, 3);
      EXPECT_LE(q, 5);
    }
  }
  expect_equivalent(c, r);
}

TEST(Router, BenchmarksRouteOnToronto) {
  const Device d = make_toronto27();
  for (const BenchmarkSpec& spec : benchmark_suite()) {
    const int k = spec.circuit.num_qubits();
    // A path partition through the heavy-hex: qubits 0..k via BFS order.
    std::vector<int> partition;
    for (int q = 0; q < d.num_qubits() && static_cast<int>(partition.size()) < k + 1; ++q) {
      partition.push_back(q);
    }
    if (!d.topology().is_connected_subset(partition)) continue;
    std::vector<int> layout(k);
    for (int i = 0; i < k; ++i) layout[i] = partition[i];
    const RoutingResult r =
        route_on_partition(spec.circuit, d, partition, layout);
    expect_equivalent(spec.circuit, r);
  }
}

/// Check RoutingResult::source against the routed input: one entry per
/// physical op; each copied op keeps its input op's kind and bit-identical
/// params; every non-barrier input op appears exactly once; every -1 is an
/// inserted SWAP.
void expect_provenance(const Circuit& input, const RoutingResult& r,
                       const std::string& label) {
  const auto& ops = r.physical.ops();
  ASSERT_EQ(r.source.size(), ops.size()) << label;
  std::vector<int> uses(input.size(), 0);
  int swaps = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const int src = r.source[i];
    if (src < 0) {
      EXPECT_EQ(src, -1) << label << " op " << i;
      EXPECT_EQ(ops[i].kind, GateKind::SWAP) << label << " op " << i;
      ++swaps;
      continue;
    }
    ASSERT_LT(static_cast<std::size_t>(src), input.size()) << label;
    const Gate& want = input.ops()[static_cast<std::size_t>(src)];
    EXPECT_EQ(ops[i].kind, want.kind) << label << " op " << i;
    ASSERT_EQ(ops[i].params.size(), want.params.size()) << label;
    for (std::size_t j = 0; j < want.params.size(); ++j) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(ops[i].params[j]),
                std::bit_cast<std::uint64_t>(want.params[j]))
          << label << " op " << i << " param " << j;
    }
    ++uses[static_cast<std::size_t>(src)];
  }
  EXPECT_EQ(swaps, r.swaps_added) << label;
  for (std::size_t i = 0; i < input.size(); ++i) {
    const int want = input.ops()[i].kind == GateKind::Barrier ? 0 : 1;
    EXPECT_EQ(uses[i], want) << label << " input op " << i;
  }
}

TEST(Router, SourceTracesEveryRoutedOp) {
  // Every bundled benchmark on a toronto27 path partition, and on a random
  // connected partition of manhattan65 with a barrier spliced mid-circuit.
  const Device toronto = make_toronto27();
  const Device manhattan = make_manhattan65();
  Rng rng(2022);
  for (const BenchmarkSpec& spec : benchmark_suite()) {
    const int k = spec.circuit.num_qubits();
    std::vector<int> path;
    for (int q = 0; q < toronto.num_qubits() &&
                    static_cast<int>(path.size()) < k + 1;
         ++q) {
      path.push_back(q);
    }
    if (toronto.topology().is_connected_subset(path)) {
      const std::vector<int> layout(path.begin(), path.begin() + k);
      expect_provenance(spec.circuit,
                        route_on_partition(spec.circuit, toronto, path, layout),
                        spec.name + " on toronto27");
    }

    // Grow a random connected region of k + 1 qubits.
    std::vector<int> region{static_cast<int>(
        rng.index(static_cast<std::size_t>(manhattan.num_qubits())))};
    while (static_cast<int>(region.size()) < k + 1) {
      std::vector<int> frontier;
      for (const Edge& e : manhattan.topology().edges()) {
        const bool has_a = std::count(region.begin(), region.end(), e.a) > 0;
        const bool has_b = std::count(region.begin(), region.end(), e.b) > 0;
        if (has_a != has_b) frontier.push_back(has_a ? e.b : e.a);
      }
      region.push_back(frontier[rng.index(frontier.size())]);
    }
    Circuit with_barrier(k, spec.circuit.num_clbits());
    const auto& ops = spec.circuit.ops();
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (i == ops.size() / 2) with_barrier.barrier();
      with_barrier.append(ops[i]);
    }
    const std::vector<int> layout(region.begin(), region.begin() + k);
    const RoutingResult r =
        route_on_partition(with_barrier, manhattan, region, layout);
    expect_provenance(with_barrier, r, spec.name + " on manhattan65");
    expect_equivalent(spec.circuit, r);
  }
}

TEST(Router, NonTerminalMeasureRejected) {
  const Device d = make_line_device(4);
  Circuit c(2);
  c.measure(0, 0);
  c.h(0);
  const std::vector<int> partition{0, 1};
  const std::vector<int> layout{0, 1};
  EXPECT_THROW((void)route_on_partition(c, d, partition, layout),
               std::invalid_argument);
}

TEST(Router, LayoutValidation) {
  const Device d = make_line_device(4);
  Circuit c(2);
  c.cx(0, 1);
  const std::vector<int> partition{0, 1};
  EXPECT_THROW((void)route_on_partition(c, d, partition,
                                        std::vector<int>{0, 0}),
               std::invalid_argument);
  EXPECT_THROW((void)route_on_partition(c, d, partition,
                                        std::vector<int>{0, 3}),
               std::invalid_argument);
  EXPECT_THROW((void)route_on_partition(c, d, std::vector<int>{0, 2},
                                        std::vector<int>{0, 2}),
               std::invalid_argument);
}

TEST(Router, NoiseAwareAvoidsBadEdge) {
  // Ring of 4: two equal-length routes; one passes a terrible edge.
  Topology topo(4, {{0, 1}, {1, 2}, {2, 3}, {0, 3}});
  Rng rng(9);
  CalibrationProfile profile;
  profile.bad_edge_fraction = 0.0;
  Calibration cal = synthesize_calibration(topo, profile, rng);
  for (auto& e : cal.cx_error) e = 0.01;
  const int bad = *topo.edge_index(1, 2);
  cal.cx_error[bad] = 0.30;
  Device d("ring4", std::move(topo), std::move(cal), CrosstalkModel{});

  Circuit c(4);
  c.x(0);
  c.cx(0, 2);  // distance 2 both ways around the ring
  c.measure_all();
  const std::vector<int> partition{0, 1, 2, 3};
  const std::vector<int> layout{0, 1, 2, 3};
  RouterOptions noise_on;
  noise_on.noise_aware = true;
  const RoutingResult r =
      route_on_partition(c, d, partition, layout, noise_on);
  for (const Gate& g : r.physical.ops()) {
    if (g.kind == GateKind::SWAP) {
      EXPECT_FALSE((g.qubits[0] == 1 && g.qubits[1] == 2) ||
                   (g.qubits[0] == 2 && g.qubits[1] == 1))
          << "router used the bad edge";
    }
  }
  expect_equivalent(c, r);
}

TEST(Transpiler, EndToEndPreservesSemantics) {
  const Device d = make_toronto27();
  const BenchmarkSpec& spec = get_benchmark("fredkin");
  const std::vector<int> partition{1, 4, 7};
  const TranspiledProgram tp =
      transpile_to_partition(spec.circuit, d, partition);
  const Distribution want = ideal_distribution(spec.circuit);
  const Distribution got = ideal_distribution(tp.physical.compacted());
  for (const auto& [outcome, p] : want.probs()) {
    EXPECT_NEAR(got.prob(outcome), p, 1e-9);
  }
  // Ops confined to the partition.
  const std::set<int> part_set(partition.begin(), partition.end());
  for (const Gate& g : tp.physical.ops()) {
    for (int q : g.qubits) EXPECT_TRUE(part_set.count(q));
  }
}

TEST(Transpiler, CnaOptionsCarryContext) {
  CrosstalkModel est;
  est.add_pair(0, 2, 3.0);
  const TranspileOptions opts = cna_options({0, 1}, &est);
  EXPECT_EQ(opts.placement, PlacementStyle::NoiseAdaptive);
  EXPECT_EQ(opts.router.context_edges, (std::vector<int>{0, 1}));
  // The penalty's multipliers: the estimate for a listed pair, 1 (no
  // penalty) for an unlisted one, and a flat 2 without estimates.
  EXPECT_EQ(opts.router.crosstalk.multiplier(0, 2), 3.0);
  EXPECT_EQ(opts.router.crosstalk.multiplier(2, 0), 3.0);
  EXPECT_EQ(opts.router.crosstalk.multiplier(0, 3), 1.0);
  const TranspileOptions flat = cna_options({0, 1}, nullptr);
  EXPECT_EQ(flat.router.crosstalk.multiplier(0, 2), 2.0);
  EXPECT_EQ(flat.router.crosstalk.multiplier(0, 3), 2.0);
  // Every other preset names no context edges, so it adds no penalty.
  EXPECT_TRUE(hardware_aware_options().router.context_edges.empty());
}

TEST(Transpiler, CnaRoutesCorrectly) {
  const Device d = make_toronto27();
  const BenchmarkSpec& spec = get_benchmark("adder");
  const std::vector<int> partition{12, 13, 14, 15, 16};
  CrosstalkModel est;
  for (const auto& [e1, e2] : d.topology().one_hop_edge_pairs()) {
    est.add_pair(e1, e2, 2.5);
  }
  const std::vector<int> context = d.topology().induced_edges(
      std::vector<int>{17, 18, 21});
  const TranspiledProgram tp = transpile_to_partition(
      spec.circuit, d, partition, cna_options(context, &est));
  const Distribution want = ideal_distribution(spec.circuit);
  const Distribution got = ideal_distribution(tp.physical.compacted());
  for (const auto& [outcome, p] : want.probs()) {
    EXPECT_NEAR(got.prob(outcome), p, 1e-9);
  }
}

}  // namespace
}  // namespace qucp
