#include "zne/zne.hpp"

#include <gtest/gtest.h>

#include "benchmarks/suite.hpp"

namespace qucp {
namespace {

ZneOptions fast_zne() {
  ZneOptions opts;
  opts.parallel.method = Method::QuCP;
  opts.parallel.exec.shots = 256;
  return opts;
}

TEST(ParityExpectation, KnownValues) {
  EXPECT_NEAR(parity_expectation(Distribution(2, {{0b00, 1.0}})), 1.0, 1e-12);
  EXPECT_NEAR(parity_expectation(Distribution(2, {{0b01, 1.0}})), -1.0,
              1e-12);
  EXPECT_NEAR(parity_expectation(Distribution(2, {{0b11, 1.0}})), 1.0, 1e-12);
  EXPECT_NEAR(
      parity_expectation(Distribution(2, {{0b00, 0.5}, {0b01, 0.5}})), 0.0,
      1e-12);
}

TEST(Zne, BaselineReportsUnmitigated) {
  const Device d = make_toronto27();
  const ZneResult r = run_zne(d, get_benchmark("fredkin").circuit,
                              ZneProcess::Baseline, fast_zne());
  EXPECT_EQ(r.best_factory, "none");
  EXPECT_DOUBLE_EQ(r.mitigated, r.unmitigated);
  EXPECT_NEAR(r.abs_error, std::abs(r.unmitigated - r.ideal_expectation),
              1e-12);
}

TEST(Zne, ScalesStartAtOne) {
  const Device d = make_toronto27();
  const ZneResult r = run_zne(d, get_benchmark("adder").circuit,
                              ZneProcess::Parallel, fast_zne());
  ASSERT_EQ(r.scales.size(), 4u);
  EXPECT_DOUBLE_EQ(r.scales[0], 1.0);
  for (std::size_t i = 1; i < r.scales.size(); ++i) {
    EXPECT_GT(r.scales[i], r.scales[i - 1]);
  }
  EXPECT_EQ(r.expectations.size(), r.scales.size());
}

TEST(Zne, MitigationBeatsBaseline) {
  const Device d = make_toronto27();
  const ZneOptions opts = fast_zne();
  const Circuit& circuit = get_benchmark("fredkin").circuit;
  const ZneResult baseline = run_zne(d, circuit, ZneProcess::Baseline, opts);
  const ZneResult parallel = run_zne(d, circuit, ZneProcess::Parallel, opts);
  const ZneResult independent =
      run_zne(d, circuit, ZneProcess::Independent, opts);
  // The paper: mitigated processes cut error vs the baseline.
  EXPECT_LE(parallel.abs_error, baseline.abs_error + 1e-9);
  EXPECT_LE(independent.abs_error, baseline.abs_error + 1e-9);
}

TEST(Zne, ParallelUsesHigherThroughput) {
  const Device d = make_manhattan65();
  const ZneOptions opts = fast_zne();
  const Circuit& circuit = get_benchmark("adder").circuit;
  const ZneResult parallel = run_zne(d, circuit, ZneProcess::Parallel, opts);
  const ZneResult independent =
      run_zne(d, circuit, ZneProcess::Independent, opts);
  // 4 folded 4-qubit circuits together vs one at a time.
  EXPECT_NEAR(parallel.throughput, 16.0 / 65.0, 1e-9);
  EXPECT_NEAR(independent.throughput, 4.0 / 65.0, 1e-9);
}

TEST(Zne, BestFactoryIsOneOfTheThree) {
  const Device d = make_toronto27();
  const ZneResult r = run_zne(d, get_benchmark("bell").circuit,
                              ZneProcess::Independent, fast_zne());
  EXPECT_TRUE(r.best_factory == "Linear" || r.best_factory == "Poly2" ||
              r.best_factory == "Richardson")
      << r.best_factory;
}

TEST(Zne, ExpectationsDegradeWithScaleOnDeterministicCircuit) {
  // More folding -> more noise -> parity expectation drifts from ideal.
  const Device d = make_toronto27();
  const ZneResult r = run_zne(d, get_benchmark("alu").circuit,
                              ZneProcess::Independent, fast_zne());
  const double err_1 = std::abs(r.expectations.front() - r.ideal_expectation);
  const double err_max =
      std::abs(r.expectations.back() - r.ideal_expectation);
  EXPECT_GE(err_max, err_1 - 0.05);
}

TEST(Zne, RequiresScaleOne) {
  const Device d = make_toronto27();
  ZneOptions opts = fast_zne();
  opts.scales = {1.5, 2.0};
  EXPECT_THROW((void)run_zne(d, get_benchmark("adder").circuit,
                             ZneProcess::Parallel, opts),
               std::invalid_argument);
  opts.scales = {};
  EXPECT_THROW((void)run_zne(d, get_benchmark("adder").circuit,
                             ZneProcess::Parallel, opts),
               std::invalid_argument);
}

TEST(Zne, EveryFitFailingThrows) {
  // One achieved scale leaves Linear, Poly2 and Richardson all without a
  // fit; the mitigated processes must say so instead of reporting 0.
  const Device d = make_toronto27();
  ZneOptions opts = fast_zne();
  opts.scales = {1.0};
  const Circuit& circuit = get_benchmark("fredkin").circuit;
  for (const ZneProcess process :
       {ZneProcess::Parallel, ZneProcess::Independent}) {
    try {
      (void)run_zne(d, circuit, process, opts);
      ADD_FAILURE() << "no throw for process " << static_cast<int>(process);
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("{1.0000}"), std::string::npos)
          << e.what();
    }
  }
  // Baseline never extrapolates.
  EXPECT_EQ(run_zne(d, circuit, ZneProcess::Baseline, opts).best_factory,
            "none");

  // Achieved scales can collapse: one gate folds round(0.25) = 0 times at
  // scale 1.5, so {1.0, 1.5} achieves {1.0, 1.0}.
  Circuit one_gate(1, 1, "one_gate");
  one_gate.h(0);
  one_gate.measure(0, 0);
  opts.scales = {1.0, 1.5};
  EXPECT_THROW((void)run_zne(d, one_gate, ZneProcess::Parallel, opts),
               std::invalid_argument);
}

TEST(Zne, DeterministicPerSeeds) {
  const Device d = make_toronto27();
  const ZneOptions opts = fast_zne();
  const Circuit& circuit = get_benchmark("qec").circuit;
  const ZneResult a = run_zne(d, circuit, ZneProcess::Parallel, opts);
  const ZneResult b = run_zne(d, circuit, ZneProcess::Parallel, opts);
  EXPECT_EQ(a.expectations, b.expectations);
  EXPECT_DOUBLE_EQ(a.mitigated, b.mitigated);
}

}  // namespace
}  // namespace qucp
