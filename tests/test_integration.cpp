// End-to-end integration tests tying the full pipeline together the way
// the paper's experiments do: SRB characterization feeding QuMC, QuCP
// without characterization, threshold selection driving batch sizes, and
// the VQE/ZNE applications on top of parallel execution.

#include <gtest/gtest.h>

#include "benchmarks/suite.hpp"
#include "core/parallel.hpp"
#include "partition/threshold.hpp"
#include "srb/srb.hpp"
#include "vqe/estimator.hpp"
#include "zne/zne.hpp"

namespace qucp {
namespace {

TEST(Integration, SrbEstimatesFeedQumcEndToEnd) {
  // Small planted device: characterize, then partition with QuMC using
  // the measured estimates; the EFS-flagged pair must be avoided.
  Topology topo(8, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}});
  Rng rng(41);
  CalibrationProfile profile;
  profile.bad_edge_fraction = 0.0;
  profile.bad_readout_fraction = 0.0;
  Calibration cal = synthesize_calibration(topo, profile, rng);
  for (auto& e : cal.cx_error) e = 0.015;
  for (auto& r : cal.readout_error) r = 0.015;
  for (auto& q : cal.q1_error) q = 1e-4;
  CrosstalkModel truth;
  truth.add_pair(0, 2, 5.0);
  truth.add_pair(4, 6, 5.0);
  Device d("int8", std::move(topo), std::move(cal), std::move(truth));

  SrbCharacterizationOptions srb_opts;
  srb_opts.rb.lengths = {1, 3, 6, 10};
  srb_opts.rb.seeds = 2;
  const CharacterizationResult chars =
      characterize_crosstalk(d, srb_opts, Rng(43));
  EXPECT_GT(chars.estimates.gamma(0, 2), 2.0);
  EXPECT_GT(chars.estimates.gamma(4, 6), 2.0);

  ParallelOptions opts;
  opts.method = Method::QuMC;
  opts.srb_estimates = chars.estimates;
  opts.exec.shots = 128;
  const std::vector<Circuit> programs{get_benchmark("fredkin").circuit,
                                      get_benchmark("lin").circuit};
  const BatchReport report = run_parallel(d, programs, opts);
  ASSERT_EQ(report.programs.size(), 2u);
  EXPECT_GT(report.programs[0].pst_value, 0.2);
}

TEST(Integration, QucpMatchesQumcWithoutCharacterization) {
  // The paper's core claim: sigma = 4 makes QuCP's partitions match QuMC's
  // SRB-informed ones. Use ground-truth gammas as ideal SRB estimates.
  const Device d = make_toronto27();
  CrosstalkModel truth_estimates;
  for (const auto& [e1, e2, g] : d.crosstalk_ground_truth().pairs()) {
    truth_estimates.add_pair(e1, e2, g);
  }
  const std::vector<ProgramShape> programs{
      shape_of(get_benchmark("adder").circuit),
      shape_of(get_benchmark("fredkin").circuit),
      shape_of(get_benchmark("alu").circuit)};
  const auto order = allocation_order(programs);
  std::vector<ProgramShape> ordered;
  for (auto i : order) ordered.push_back(programs[i]);

  const auto qucp = make_partitioner(Method::QuCP, 4.0, std::nullopt);
  const auto qumc = make_partitioner(Method::QuMC, 4.0, truth_estimates);
  const auto a = qucp->allocate(d, ordered);
  const auto b = qumc->allocate(d, ordered);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  int agree = 0;
  for (std::size_t i = 0; i < a->size(); ++i) {
    if ((*a)[i].qubits == (*b)[i].qubits) ++agree;
  }
  EXPECT_GE(agree, 2);  // strong agreement expected at sigma=4
}

TEST(Integration, ThresholdSelectionThenExecution) {
  const Device d = make_manhattan65();
  const auto qucp = make_partitioner(Method::QuCP, 4.0, std::nullopt);
  const Circuit& circuit = get_benchmark("4mod").circuit;
  const ThresholdSelection sel =
      select_parallel_count(d, shape_of(circuit), 4, 0.5, *qucp);
  ASSERT_GE(sel.num_circuits, 1);

  ParallelOptions opts;
  opts.exec.shots = 128;
  const std::vector<Circuit> batch(
      static_cast<std::size_t>(sel.num_circuits), circuit);
  const BatchReport report = run_parallel(d, batch, opts);
  EXPECT_EQ(report.programs.size(),
            static_cast<std::size_t>(sel.num_circuits));
  EXPECT_NEAR(report.throughput, sel.num_circuits * 5.0 / 65.0, 1e-9);
}

TEST(Integration, VqeParallelAndIndependentAgreeRoughly) {
  const Device d = make_manhattan65();
  const auto thetas = theta_grid(4, -1.2, 0.4);
  VqeSweepOptions pg;
  pg.run_parallel = false;
  pg.parallel.exec.shots = 256;
  VqeSweepOptions qucp_pg;
  qucp_pg.run_parallel = true;
  qucp_pg.parallel.exec.shots = 256;
  const auto independent =
      run_vqe_sweep(d, h2_hamiltonian(), thetas, pg);
  const auto parallel = run_vqe_sweep(d, h2_hamiltonian(), thetas, qucp_pg);
  // Energies track each other within noise scale; throughput differs a lot.
  EXPECT_NEAR(parallel.min_energy, independent.min_energy, 0.4);
  EXPECT_GT(parallel.throughput, independent.throughput * 4.0);
}

TEST(Integration, ZneAcrossTwoBenchmarksKeepsOrdering) {
  const Device d = make_manhattan65();
  ZneOptions opts;
  opts.parallel.exec.shots = 256;
  for (const char* name : {"fredkin", "adder"}) {
    const Circuit& circuit = get_benchmark(name).circuit;
    const ZneResult base = run_zne(d, circuit, ZneProcess::Baseline, opts);
    const ZneResult qucp_zne =
        run_zne(d, circuit, ZneProcess::Parallel, opts);
    EXPECT_LE(qucp_zne.abs_error, base.abs_error + 0.02) << name;
  }
}

TEST(Integration, EightBenchmarkBatchOnManhattan) {
  // Stress: all eight Table II benchmarks simultaneously (33 qubits).
  const Device d = make_manhattan65();
  std::vector<Circuit> programs;
  for (const BenchmarkSpec& spec : benchmark_suite()) {
    programs.push_back(spec.circuit);
  }
  ParallelOptions opts;
  opts.exec.shots = 128;
  const BatchReport report = run_parallel(d, programs, opts);
  EXPECT_EQ(report.programs.size(), 8u);
  EXPECT_NEAR(report.throughput, 33.0 / 65.0, 1e-9);
  for (const ProgramReport& pr : report.programs) {
    EXPECT_GT(pr.counts.total(), 0);
    EXPECT_LE(pr.jsd_value, 1.0);
  }
  EXPECT_GT(report.runtime_reduction, 4.0);
}

}  // namespace
}  // namespace qucp
