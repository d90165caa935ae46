#include "core/parallel.hpp"

#include <gtest/gtest.h>

#include <set>

#include "benchmarks/suite.hpp"
#include "quiet_device.hpp"

namespace qucp {
namespace {

std::vector<Circuit> three_benchmarks() {
  return {get_benchmark("adder").circuit, get_benchmark("fredkin").circuit,
          get_benchmark("alu").circuit};
}

ParallelOptions fast_options(Method method) {
  ParallelOptions opts;
  opts.method = method;
  opts.exec.shots = 256;
  return opts;
}

TEST(MethodName, AllNamed) {
  EXPECT_EQ(method_name(Method::QuCP), "QuCP");
  EXPECT_EQ(method_name(Method::QuMC), "QuMC");
  EXPECT_EQ(method_name(Method::CNA), "CNA");
  EXPECT_EQ(method_name(Method::QuCloud), "QuCloud");
  EXPECT_EQ(method_name(Method::MultiQC), "MultiQC");
  EXPECT_EQ(method_name(Method::Naive), "Naive");
}

TEST(MakePartitioner, QumcNeedsEstimates) {
  EXPECT_THROW((void)make_partitioner(Method::QuMC, 4.0, std::nullopt),
               std::invalid_argument);
  CrosstalkModel est;
  EXPECT_NO_THROW((void)make_partitioner(Method::QuMC, 4.0, est));
}

class RunParallelMethodTest : public ::testing::TestWithParam<Method> {};

TEST_P(RunParallelMethodTest, ThreeBenchmarksOnToronto) {
  const Device d = make_toronto27();
  ParallelOptions opts = fast_options(GetParam());
  if (GetParam() == Method::QuMC || GetParam() == Method::CNA) {
    CrosstalkModel est;
    for (const auto& [e1, e2, g] : d.crosstalk_ground_truth().pairs()) {
      est.add_pair(e1, e2, g);  // perfectly-informed estimates
    }
    opts.srb_estimates = est;
  }
  const BatchReport report = run_parallel(d, three_benchmarks(), opts);
  ASSERT_EQ(report.programs.size(), 3u);

  // Disjoint partitions of the right sizes, results in input order.
  std::set<int> used;
  EXPECT_EQ(report.programs[0].partition.size(), 4u);  // adder
  EXPECT_EQ(report.programs[1].partition.size(), 3u);  // fredkin
  EXPECT_EQ(report.programs[2].partition.size(), 5u);  // alu
  for (const ProgramReport& pr : report.programs) {
    for (int q : pr.partition) EXPECT_TRUE(used.insert(q).second);
    EXPECT_GT(pr.efs, 0.0);
    EXPECT_GT(pr.pst_value, 0.05);
    EXPECT_LT(pr.jsd_value, 0.95);
    EXPECT_EQ(pr.counts.total(), 256);
  }
  EXPECT_NEAR(report.throughput, 12.0 / 27.0, 1e-9);
  EXPECT_GT(report.runtime_reduction, 1.5);
}

INSTANTIATE_TEST_SUITE_P(
    Methods, RunParallelMethodTest,
    ::testing::Values(Method::QuCP, Method::QuMC, Method::CNA,
                      Method::QuCloud, Method::MultiQC, Method::Naive),
    [](const auto& info) {
      return std::string(method_name(info.param));
    });

TEST(RunParallel, SingleProgram) {
  const Device d = make_toronto27();
  const BatchReport report = run_parallel(
      d, {get_benchmark("bell").circuit}, fast_options(Method::QuCP));
  ASSERT_EQ(report.programs.size(), 1u);
  EXPECT_NEAR(report.throughput, 4.0 / 27.0, 1e-9);
}

TEST(RunParallel, QumcWithoutEstimatesThrows) {
  const Device d = make_toronto27();
  EXPECT_THROW(
      (void)run_parallel(d, three_benchmarks(), fast_options(Method::QuMC)),
      std::invalid_argument);
}

TEST(RunParallel, OverfullBatchThrows) {
  const Device d = make_line_device(6);
  std::vector<Circuit> programs(3, get_benchmark("adder").circuit);
  EXPECT_THROW((void)run_parallel(d, programs, fast_options(Method::QuCP)),
               std::runtime_error);
  EXPECT_THROW((void)run_parallel(d, {}, fast_options(Method::QuCP)),
               std::invalid_argument);
}

TEST(RunParallel, DeterministicForFixedSeed) {
  const Device d = make_toronto27();
  const auto opts = fast_options(Method::QuCP);
  const BatchReport a = run_parallel(d, three_benchmarks(), opts);
  const BatchReport b = run_parallel(d, three_benchmarks(), opts);
  for (std::size_t i = 0; i < a.programs.size(); ++i) {
    EXPECT_EQ(a.programs[i].partition, b.programs[i].partition);
    EXPECT_DOUBLE_EQ(a.programs[i].pst_value, b.programs[i].pst_value);
    EXPECT_EQ(a.programs[i].counts.data(), b.programs[i].counts.data());
  }
}

TEST(RunParallel, NoiselessExecIsPerfect) {
  const Device d = test_devices::quiet_device(make_toronto27());
  const BatchReport report =
      run_parallel(d, three_benchmarks(), fast_options(Method::QuCP));
  for (const ProgramReport& pr : report.programs) {
    EXPECT_NEAR(pr.jsd_value, 0.0, 1e-6);
    EXPECT_NEAR(pr.pst_value, 1.0, 1e-6);  // all three are deterministic
  }
}

TEST(RunParallel, SoloBeatsCrowdedFidelity) {
  // Running a benchmark alone should be at least as good as running it
  // beside copies of a CX-heavy neighbor.
  const Device d = make_toronto27();
  const Circuit target = get_benchmark("4mod").circuit;
  const BatchReport solo =
      run_parallel(d, {target}, fast_options(Method::QuCP));
  std::vector<Circuit> crowd{target};
  for (int i = 0; i < 2; ++i) crowd.push_back(get_benchmark("alu").circuit);
  const BatchReport crowded = run_parallel(d, crowd, fast_options(Method::QuCP));
  EXPECT_GE(solo.programs[0].pst_value,
            crowded.programs[0].pst_value - 0.02);
}

TEST(RunParallel, QucpNotWorseThanNaive) {
  const Device d = make_toronto27();
  const auto programs = three_benchmarks();
  const BatchReport qucp =
      run_parallel(d, programs, fast_options(Method::QuCP));
  const BatchReport naive =
      run_parallel(d, programs, fast_options(Method::Naive));
  double qucp_avg = 0.0;
  double naive_avg = 0.0;
  for (std::size_t i = 0; i < programs.size(); ++i) {
    qucp_avg += qucp.programs[i].pst_value;
    naive_avg += naive.programs[i].pst_value;
  }
  EXPECT_GE(qucp_avg, naive_avg - 0.05);
}

}  // namespace
}  // namespace qucp
