#include "partition/threshold.hpp"

#include <gtest/gtest.h>

namespace qucp {
namespace {

const ProgramShape kShape{5, 11, 10};  // 4mod5-like

TEST(Threshold, ZeroThresholdRunsOneCircuit) {
  const Device d = make_manhattan65();
  const auto qucp = make_partitioner(Method::QuCP, 4.0, std::nullopt);
  const ThresholdSelection sel =
      select_parallel_count(d, kShape, 6, 0.0, *qucp);
  EXPECT_EQ(sel.num_circuits, 1);
  EXPECT_EQ(sel.assignments.size(), 1u);
  EXPECT_DOUBLE_EQ(sel.worst_delta, 0.0);
}

TEST(Threshold, HugeThresholdRunsMax) {
  const Device d = make_manhattan65();
  const auto qucp = make_partitioner(Method::QuCP, 4.0, std::nullopt);
  const ThresholdSelection sel =
      select_parallel_count(d, kShape, 6, 100.0, *qucp);
  EXPECT_EQ(sel.num_circuits, 6);
  EXPECT_EQ(sel.assignments.size(), 6u);
}

TEST(Threshold, MonotoneInThreshold) {
  const Device d = make_manhattan65();
  const auto qucp = make_partitioner(Method::QuCP, 4.0, std::nullopt);
  int prev = 1;
  for (double tau : {0.0, 0.01, 0.05, 0.1, 0.3, 1.0, 10.0}) {
    const ThresholdSelection sel =
        select_parallel_count(d, kShape, 6, tau, *qucp);
    EXPECT_GE(sel.num_circuits, prev) << "tau=" << tau;
    prev = sel.num_circuits;
  }
}

TEST(Threshold, WorstDeltaWithinThresholdWhenMultiple) {
  const Device d = make_manhattan65();
  const auto qucp = make_partitioner(Method::QuCP, 4.0, std::nullopt);
  const double tau = 0.2;
  const ThresholdSelection sel =
      select_parallel_count(d, kShape, 6, tau, *qucp);
  if (sel.num_circuits > 1) {
    EXPECT_LE(sel.worst_delta, tau);
  }
}

TEST(Threshold, CapsAtDeviceCapacity) {
  const Device d = make_line_device(7);
  const auto qucp = make_partitioner(Method::QuCP, 4.0, std::nullopt);
  const ProgramShape small{2, 3, 3};
  // At most 3 disjoint 2-qubit partitions fit on 7 qubits (line).
  const ThresholdSelection sel =
      select_parallel_count(d, small, 10, 100.0, *qucp);
  EXPECT_LE(sel.num_circuits, 3);
  EXPECT_GE(sel.num_circuits, 2);
}

TEST(Threshold, IndependentEfsMatchesSoloAllocation) {
  const Device d = make_manhattan65();
  const auto qucp = make_partitioner(Method::QuCP, 4.0, std::nullopt);
  const ThresholdSelection sel =
      select_parallel_count(d, kShape, 3, 0.5, *qucp);
  const auto solo = qucp->allocate(d, std::vector<ProgramShape>{kShape});
  ASSERT_TRUE(solo.has_value());
  EXPECT_DOUBLE_EQ(sel.independent_efs, (*solo)[0].efs.score);
}

TEST(Threshold, Validation) {
  const Device d = make_line_device(5);
  const auto qucp = make_partitioner(Method::QuCP, 4.0, std::nullopt);
  EXPECT_THROW((void)select_parallel_count(d, kShape, 0, 0.1, *qucp),
               std::invalid_argument);
  EXPECT_THROW((void)select_parallel_count(d, kShape, 2, -0.1, *qucp),
               std::invalid_argument);
  // Program wider than the device.
  const ProgramShape wide{9, 5, 5};
  EXPECT_THROW((void)select_parallel_count(d, wide, 2, 0.1, *qucp),
               std::runtime_error);
}

TEST(Threshold, ThroughputGrowsWithCircuits) {
  const Device d = make_manhattan65();
  const auto qucp = make_partitioner(Method::QuCP, 4.0, std::nullopt);
  const ThresholdSelection one =
      select_parallel_count(d, kShape, 6, 0.0, *qucp);
  const ThresholdSelection many =
      select_parallel_count(d, kShape, 6, 100.0, *qucp);
  const double t1 =
      one.num_circuits * kShape.num_qubits / 65.0;
  const double t2 = many.num_circuits * kShape.num_qubits / 65.0;
  EXPECT_NEAR(t1, 5.0 / 65.0, 1e-12);        // 7.7% (paper Fig. 4)
  EXPECT_NEAR(t2, 30.0 / 65.0, 1e-12);       // 46.2%
}

}  // namespace
}  // namespace qucp
