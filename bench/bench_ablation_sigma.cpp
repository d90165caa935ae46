// Ablation A1: the sigma-tuning experiment of Section IV-A. Sweeping the
// crosstalk parameter, we measure (a) how often QuCP's partitions match
// QuMC's (equipped with ground-truth crosstalk knowledge), and (b) how
// many *real* (planted) crosstalk conflicts the chosen partitions expose.
// The paper reports that sigma >= 4 reproduces QuMC's behaviour; in our
// model QuCP saturates at QuMC's conflict level once sigma is large
// enough, while being strictly more conservative on uncharacterized pairs.

#include <algorithm>

#include "bench_util.hpp"
#include "benchmarks/suite.hpp"
#include "common/strings.hpp"
#include "core/parallel.hpp"

namespace {

using namespace qucp;

std::vector<std::vector<ProgramShape>> workloads() {
  auto s = [](const char* n) { return shape_of(get_benchmark(n).circuit); };
  // Dense batches (18-24 of Toronto's 27 qubits): partitions are forced
  // close together, so the crosstalk term actually binds.
  return {
      {s("adder"), s("fred"), s("alu"), s("4mod"), s("lin")},
      {s("4mod"), s("4mod"), s("4mod"), s("4mod")},
      {s("qec"), s("var"), s("bell"), s("fred"), s("lin")},
      {s("alu"), s("alu"), s("alu"), s("adder")},
      {s("adder"), s("4mod"), s("alu"), s("var"), s("lin")},
      {s("var"), s("bell"), s("lin"), s("qec"), s("fred")},
      {s("qec"), s("qec"), s("qec"), s("bell")},
      {s("alu"), s("qec"), s("var"), s("adder"), s("fred")},
  };
}

/// Crosstalk exposure of an allocation: cross-partition edge pairs at
/// one-hop distance (first), and the planted (ground-truth) subset
/// (second).
std::pair<int, int> realized_conflicts(
    const Device& d, const std::vector<PartitionAssignment>& alloc) {
  const Topology& topo = d.topology();
  int one_hop = 0;
  int planted = 0;
  for (std::size_t i = 0; i < alloc.size(); ++i) {
    for (std::size_t j = i + 1; j < alloc.size(); ++j) {
      for (int e : topo.induced_edges(alloc[i].qubits)) {
        for (int f : topo.induced_edges(alloc[j].qubits)) {
          const Edge& a = topo.edges()[e];
          const Edge& b = topo.edges()[f];
          if (a.shares_qubit(b)) continue;
          const int dist =
              std::min({topo.distance(a.a, b.a), topo.distance(a.a, b.b),
                        topo.distance(a.b, b.a), topo.distance(a.b, b.b)});
          if (dist != 1) continue;
          ++one_hop;
          if (d.crosstalk_ground_truth().gamma(e, f) > 1.0) ++planted;
        }
      }
    }
  }
  return {one_hop, planted};
}

void print_sigma_ablation() {
  bench::heading(
      "Ablation A1: QuCP(sigma) vs QuMC - agreement and real conflicts");
  const Device d = make_toronto27();
  CrosstalkModel truth;
  for (const auto& [e1, e2, g] : d.crosstalk_ground_truth().pairs()) {
    truth.add_pair(e1, e2, g);
  }
  const auto qumc = make_partitioner(Method::QuMC, 4.0, truth);
  const auto loads = workloads();

  std::vector<std::vector<PartitionAssignment>> reference;
  int qumc_one_hop = 0;
  int qumc_planted = 0;
  for (const auto& programs : loads) {
    std::vector<ProgramShape> ordered;
    for (auto i : allocation_order(programs)) ordered.push_back(programs[i]);
    reference.push_back(*qumc->allocate(d, ordered));
    const auto [oh, pl] = realized_conflicts(d, reference.back());
    qumc_one_hop += oh;
    qumc_planted += pl;
  }

  bench::row({"sigma", "agreement", "1hop cross", "gt cross", "avg EFS gap"},
             14);
  bench::rule(5, 14);
  for (double sigma : {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0}) {
    const auto qucp = make_partitioner(Method::QuCP, sigma, std::nullopt);
    int same = 0;
    int total = 0;
    int one_hop = 0;
    int planted = 0;
    double efs_gap = 0.0;
    for (std::size_t w = 0; w < loads.size(); ++w) {
      std::vector<ProgramShape> ordered;
      for (auto i : allocation_order(loads[w])) {
        ordered.push_back(loads[w][i]);
      }
      const auto alloc = qucp->allocate(d, ordered);
      const auto [oh, pl] = realized_conflicts(d, *alloc);
      one_hop += oh;
      planted += pl;
      for (std::size_t i = 0; i < alloc->size(); ++i) {
        ++total;
        if ((*alloc)[i].qubits == reference[w][i].qubits) ++same;
        efs_gap += std::abs((*alloc)[i].efs.score -
                            reference[w][i].efs.score);
      }
    }
    bench::row({fmt_double(sigma, 1),
                fmt_percent(static_cast<double>(same) / total, 1),
                std::to_string(one_hop), std::to_string(planted),
                fmt_double(efs_gap / total, 4)},
               14);
  }
  std::printf("QuMC (ground-truth gammas): %d one-hop cross pairs, %d "
              "planted.\n",
              qumc_one_hop, qumc_planted);
  std::printf("(paper: sigma >= 4 reproduces QuMC's partition behaviour)\n");
}

void BM_QucpAllocation(benchmark::State& state) {
  const Device d = make_toronto27();
  const auto qucp = make_partitioner(Method::QuCP, 4.0, std::nullopt);
  const auto programs = workloads()[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(qucp->allocate(d, programs));
  }
}
BENCHMARK(BM_QucpAllocation)->Unit(benchmark::kMicrosecond);

}  // namespace

QUCP_BENCH_MAIN(print_sigma_ablation)
