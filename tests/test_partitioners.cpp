#include "partition/partitioners.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "benchmarks/suite.hpp"
#include "common/rng.hpp"

namespace qucp {
namespace {

ProgramShape shape(int qubits, int twoq, int oneq) {
  return ProgramShape{qubits, twoq, oneq};
}

void expect_valid_allocation(
    const Device& d, const std::vector<ProgramShape>& programs,
    const std::vector<PartitionAssignment>& assignments) {
  ASSERT_EQ(assignments.size(), programs.size());
  std::set<int> used;
  for (std::size_t i = 0; i < programs.size(); ++i) {
    EXPECT_EQ(static_cast<int>(assignments[i].qubits.size()),
              programs[i].num_qubits);
    EXPECT_TRUE(d.topology().is_connected_subset(assignments[i].qubits));
    for (int q : assignments[i].qubits) {
      EXPECT_TRUE(used.insert(q).second) << "qubit " << q << " reused";
    }
  }
}

TEST(ShapeOf, DerivesFromCircuit) {
  const BenchmarkSpec& adder = get_benchmark("adder");
  const ProgramShape s = shape_of(adder.circuit);
  EXPECT_EQ(s.num_qubits, 4);
  EXPECT_EQ(s.num_2q, 10);
  EXPECT_EQ(s.num_1q, 13);
}

TEST(AllocationOrder, LargestFirst) {
  const std::vector<ProgramShape> programs{shape(2, 3, 1), shape(4, 1, 1),
                                           shape(4, 9, 1), shape(3, 2, 1)};
  const auto order = allocation_order(programs);
  EXPECT_EQ(order, (std::vector<std::size_t>{2, 1, 3, 0}));
}

class PartitionerParamTest : public ::testing::TestWithParam<Method> {
 protected:
  /// The method's partitioner; QuMC reads the one estimate given here.
  static std::unique_ptr<Partitioner> make(Method method) {
    CrosstalkModel est;
    est.add_pair(0, 5, 3.0);
    return make_partitioner(method, 4.0, est);
  }
};

TEST_P(PartitionerParamTest, AllocatesDisjointConnectedRegions) {
  const Device d = make_toronto27();
  const auto partitioner = make(GetParam());
  const std::vector<ProgramShape> programs{shape(5, 10, 10), shape(4, 7, 8),
                                           shape(3, 4, 6)};
  const auto result = partitioner->allocate(d, programs);
  ASSERT_TRUE(result.has_value()) << method_name(GetParam());
  expect_valid_allocation(d, programs, *result);
}

TEST_P(PartitionerParamTest, FailsGracefullyWhenFull) {
  const Device d = make_line_device(5);
  const auto partitioner = make(GetParam());
  const std::vector<ProgramShape> programs{shape(3, 2, 2), shape(3, 2, 2)};
  EXPECT_FALSE(partitioner->allocate(d, programs).has_value());
}

TEST_P(PartitionerParamTest, SingleProgramUsesWholeDeviceChoice) {
  const Device d = make_toronto27();
  const auto partitioner = make(GetParam());
  const std::vector<ProgramShape> programs{shape(4, 8, 8)};
  const auto result = partitioner->allocate(d, programs);
  ASSERT_TRUE(result.has_value());
  expect_valid_allocation(d, programs, *result);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, PartitionerParamTest,
                         ::testing::Values(Method::QuCP, Method::QuMC,
                                           Method::QuCloud, Method::MultiQC,
                                           Method::Naive),
                         [](const auto& info) {
                           return std::string(method_name(info.param));
                         });

TEST(QucpPartitionerTest, PrefersLowErrorRegions) {
  // Line with one very bad edge in the middle of the best region.
  Topology topo(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  Rng rng(3);
  CalibrationProfile profile;
  profile.bad_edge_fraction = 0.0;
  profile.bad_readout_fraction = 0.0;
  Calibration cal = synthesize_calibration(topo, profile, rng);
  for (auto& e : cal.cx_error) e = 0.01;
  cal.cx_error[0] = 0.10;  // edge (0,1) terrible
  for (auto& r : cal.readout_error) r = 0.02;
  Device d("biased", std::move(topo), std::move(cal), CrosstalkModel{});

  const auto qucp = make_partitioner(Method::QuCP, 4.0, std::nullopt);
  const std::vector<ProgramShape> programs{shape(2, 8, 2)};
  const auto result = qucp->allocate(d, programs);
  ASSERT_TRUE(result.has_value());
  // Must avoid the bad edge (0,1).
  EXPECT_NE((*result)[0].qubits, (std::vector<int>{0, 1}));
}

TEST(QucpPartitionerTest, SigmaSeparatesCoRunners) {
  // Line device: with sigma, the second program avoids sitting one hop
  // from the first when an equally good remote region exists.
  Topology topo(8, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}});
  Rng rng(5);
  CalibrationProfile profile;
  profile.bad_edge_fraction = 0.0;
  profile.bad_readout_fraction = 0.0;
  Calibration cal = synthesize_calibration(topo, profile, rng);
  for (auto& e : cal.cx_error) e = 0.01;
  for (auto& r : cal.readout_error) r = 0.02;
  for (auto& q : cal.q1_error) q = 1e-4;
  Device d("line8u", std::move(topo), std::move(cal), CrosstalkModel{});

  const auto qucp = make_partitioner(Method::QuCP, 4.0, std::nullopt);
  const std::vector<ProgramShape> programs{shape(2, 10, 2),
                                           shape(2, 10, 2)};
  const auto result = qucp->allocate(d, programs);
  ASSERT_TRUE(result.has_value());
  // Partitions should end up more than one hop apart (no crosstalk flag).
  EXPECT_TRUE((*result)[1].efs.crosstalk_edges.empty());
}

TEST(QumcPartitionerTest, EstimatesChangePlacement) {
  // QuMC with a huge measured gamma between the two best regions should
  // pick a farther region for the second program; without estimates the
  // adjacent region wins.
  Topology topo(8, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}});
  Rng rng(6);
  CalibrationProfile profile;
  profile.bad_edge_fraction = 0.0;
  profile.bad_readout_fraction = 0.0;
  Calibration cal = synthesize_calibration(topo, profile, rng);
  for (auto& e : cal.cx_error) e = 0.01;
  // Make the far end slightly worse so "near" wins absent crosstalk.
  cal.cx_error[6] = 0.012;
  for (auto& r : cal.readout_error) r = 0.02;
  for (auto& q : cal.q1_error) q = 1e-4;
  Device d("line8b", std::move(topo), std::move(cal), CrosstalkModel{});

  const std::vector<ProgramShape> programs{shape(2, 10, 2), shape(2, 10, 2)};
  const auto blind = make_partitioner(Method::QuMC, 4.0, CrosstalkModel{});
  const auto without = blind->allocate(d, programs);
  ASSERT_TRUE(without.has_value());

  CrosstalkModel est;
  for (const auto& [e1, e2] : d.topology().one_hop_edge_pairs()) {
    est.add_pair(e1, e2, 10.0);
  }
  const auto informed = make_partitioner(Method::QuMC, 4.0, est);
  const auto with = informed->allocate(d, programs);
  ASSERT_TRUE(with.has_value());
  EXPECT_TRUE((*with)[1].efs.crosstalk_edges.empty());
}

TEST(NaivePartitionerTest, FirstFitFromLowIndex) {
  const Device d = make_line_device(8);
  const auto naive = make_partitioner(Method::Naive, 4.0, std::nullopt);
  const std::vector<ProgramShape> programs{shape(3, 2, 2), shape(2, 1, 1)};
  const auto result = naive->allocate(d, programs);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ((*result)[0].qubits, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ((*result)[1].qubits, (std::vector<int>{3, 4}));
  // CNA has no partitioning algorithm of its own: it takes the same
  // first-fit regions.
  const auto cna = make_partitioner(Method::CNA, 4.0, std::nullopt)
                       ->allocate(d, programs);
  ASSERT_TRUE(cna.has_value());
  for (std::size_t i = 0; i < programs.size(); ++i) {
    EXPECT_EQ((*cna)[i].qubits, (*result)[i].qubits);
    EXPECT_EQ((*cna)[i].efs.score, (*result)[i].efs.score);
  }
}

}  // namespace
}  // namespace qucp
