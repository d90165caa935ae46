#include "hardware/device.hpp"

#include <gtest/gtest.h>

namespace qucp {
namespace {

TEST(Device, Melbourne16Layout) {
  const Device d = make_melbourne16();
  EXPECT_EQ(d.num_qubits(), 15);  // "IBM Q 16 Melbourne" exposes 15 qubits
  EXPECT_EQ(d.topology().num_edges(), 20);
  // Fig. 1 structure: two rows plus rungs.
  EXPECT_TRUE(d.topology().adjacent(0, 1));
  EXPECT_TRUE(d.topology().adjacent(13, 14));
  EXPECT_TRUE(d.topology().adjacent(0, 14));
  EXPECT_TRUE(d.topology().adjacent(6, 8));
  EXPECT_FALSE(d.topology().adjacent(0, 7));
}

TEST(Device, MelbourneFig1Errors) {
  const Device d = make_melbourne16();
  // Transcribed values: edge (0,1) = 2.1%, (4,5) = 1.1%, (8,9) = 6.2%.
  EXPECT_NEAR(d.cx_error(0, 1), 0.021, 1e-12);
  EXPECT_NEAR(d.cx_error(4, 5), 0.011, 1e-12);
  EXPECT_NEAR(d.cx_error(8, 9), 0.062, 1e-12);
}

TEST(Device, Toronto27IsHeavyHex) {
  const Device d = make_toronto27();
  EXPECT_EQ(d.num_qubits(), 27);
  EXPECT_EQ(d.topology().num_edges(), 28);
  // Spot checks of the Falcon coupling map.
  EXPECT_TRUE(d.topology().adjacent(1, 4));
  EXPECT_TRUE(d.topology().adjacent(25, 26));
  EXPECT_FALSE(d.topology().adjacent(0, 26));
  // Heavy-hex degree bound.
  for (int q = 0; q < 27; ++q) EXPECT_LE(d.topology().neighbors(q).size(), 3u);
}

TEST(Device, Manhattan65IsHeavyHex) {
  const Device d = make_manhattan65();
  EXPECT_EQ(d.num_qubits(), 65);
  EXPECT_EQ(d.topology().num_edges(), 72);
  for (int q = 0; q < 65; ++q) {
    EXPECT_LE(d.topology().neighbors(q).size(), 3u);
  }
  // Connectivity sanity: the chip is one component.
  for (int q = 1; q < 65; ++q) EXPECT_GE(d.topology().distance(0, q), 1);
}

TEST(Device, CalibrationAccessors) {
  const Device d = make_toronto27();
  EXPECT_GT(d.cx_error(0, 1), 0.0);
  EXPECT_LT(d.cx_error(0, 1), 0.2);
  EXPECT_GT(d.cx_duration_ns(0, 1), 100.0);
  EXPECT_GT(d.readout_error(5), 0.0);
  EXPECT_GT(d.calibration().q1_error[5], 0.0);
  EXPECT_THROW((void)d.cx_error(0, 26), std::invalid_argument);
  EXPECT_THROW((void)d.readout_error(99), std::out_of_range);
}

TEST(Device, CrosstalkGroundTruthOnOneHopPairs) {
  const Device d = make_toronto27();
  const auto& xtalk = d.crosstalk_ground_truth();
  EXPECT_FALSE(xtalk.empty());
  const auto one_hop = d.topology().one_hop_edge_pairs();
  for (const auto& [e1, e2, g] : xtalk.pairs()) {
    EXPECT_GT(g, 1.0);
    EXPECT_TRUE(std::find(one_hop.begin(), one_hop.end(),
                          std::make_pair(e1, e2)) != one_hop.end());
  }
}

TEST(Device, SeedsChangeCalibration) {
  const Device a = make_toronto27(1);
  const Device b = make_toronto27(2);
  EXPECT_NE(a.calibration().cx_error, b.calibration().cx_error);
  const Device c = make_toronto27(1);
  EXPECT_EQ(a.calibration().cx_error, c.calibration().cx_error);
}

TEST(Device, LineAndGridFactories) {
  const Device line = make_line_device(6);
  EXPECT_EQ(line.num_qubits(), 6);
  EXPECT_EQ(line.topology().num_edges(), 5);
  EXPECT_TRUE(line.crosstalk_ground_truth().empty());

  const Device grid = make_grid_device(3, 4);
  EXPECT_EQ(grid.num_qubits(), 12);
  EXPECT_EQ(grid.topology().num_edges(), 3 * 3 + 2 * 4);
}

TEST(Device, MelbourneThroughputNumbersFromPaper) {
  // Fig. 1: one 4-qubit circuit -> 26.7% utilization; two -> 53.3%.
  const Device d = make_melbourne16();
  EXPECT_NEAR(4.0 / d.num_qubits(), 0.267, 0.001);
  EXPECT_NEAR(8.0 / d.num_qubits(), 0.533, 0.001);
}

}  // namespace
}  // namespace qucp
