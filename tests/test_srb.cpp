#include "srb/srb.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace qucp {
namespace {

TEST(SrbGrouping, LineHasConflictFreeGroups) {
  // Line of 7 qubits: one-hop pairs exist and conflict with neighbors.
  Topology topo(7, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}});
  const auto colors = group_one_hop_pairs(topo);
  const auto pairs = topo.one_hop_edge_pairs();
  ASSERT_EQ(colors.size(), pairs.size());
  // Every color class must be conflict-free: validate the one-hop rule by
  // checking no two same-colored pairs share an edge or touch.
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    for (std::size_t j = i + 1; j < pairs.size(); ++j) {
      if (colors[i] != colors[j]) continue;
      const std::set<int> edges_i{pairs[i].first, pairs[i].second};
      EXPECT_EQ(edges_i.count(pairs[j].first) +
                    edges_i.count(pairs[j].second),
                0u);
    }
  }
}

TEST(SrbGrouping, PairsInSeparateComponentsShareAGroup) {
  // Two 4-qubit lines with no coupling between them: each holds one
  // one-hop pair, and pairs no hop path joins cannot interfere, so one
  // group characterizes both.
  Topology topo(8, {{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}, {6, 7}});
  ASSERT_EQ(topo.one_hop_edge_pairs().size(), 2u);
  const auto colors = group_one_hop_pairs(topo);
  ASSERT_EQ(colors.size(), 2u);
  EXPECT_EQ(colors[0], colors[1]);
}

TEST(SrbOverheadTest, JobsFormula) {
  const Device d = make_toronto27();
  const SrbOverhead oh = srb_overhead(d.topology(), 5);
  EXPECT_EQ(oh.qubits, 27);
  EXPECT_EQ(oh.edges, 28);  // the paper's Table I "1-hop pairs" row
  EXPECT_GT(oh.one_hop_pairs, 0);
  EXPECT_GT(oh.groups, 0);
  EXPECT_EQ(oh.seeds, 5);
  EXPECT_EQ(oh.jobs, oh.groups * 5 * 3);
}

TEST(SrbOverheadTest, ManhattanLargerThanToronto) {
  const SrbOverhead tor = srb_overhead(make_toronto27().topology(), 5);
  const SrbOverhead man = srb_overhead(make_manhattan65().topology(), 5);
  EXPECT_GT(man.one_hop_pairs, tor.one_hop_pairs);
  EXPECT_GE(man.groups, tor.groups);
  EXPECT_GT(man.jobs, tor.jobs);
}

TEST(SrbOverheadTest, NoPairsNoJobs) {
  // A 2-qubit device has a single edge and no one-hop pairs.
  Topology topo(2, {{0, 1}});
  const SrbOverhead oh = srb_overhead(topo, 5);
  EXPECT_EQ(oh.one_hop_pairs, 0);
  EXPECT_EQ(oh.groups, 0);
  EXPECT_EQ(oh.jobs, 0);
}

class CharacterizationTest : public ::testing::Test {
 protected:
  static Device planted_device() {
    // 6-qubit line; edges 0..4; plant crosstalk on pairs (0,2) and (2,4).
    Topology topo(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
    Rng rng(13);
    CalibrationProfile profile;
    profile.bad_edge_fraction = 0.0;
    profile.bad_readout_fraction = 0.0;
    Calibration cal = synthesize_calibration(topo, profile, rng);
    for (auto& e : cal.cx_error) e = 0.02;
    for (auto& r : cal.readout_error) r = 0.01;
    for (auto& q : cal.q1_error) q = 1e-4;
    CrosstalkModel xtalk;
    xtalk.add_pair(0, 2, 5.0);
    return Device("plant6", std::move(topo), std::move(cal),
                  std::move(xtalk));
  }

  static SrbCharacterizationOptions fast_options() {
    SrbCharacterizationOptions opts;
    opts.rb.lengths = {1, 3, 6, 10};
    opts.rb.seeds = 2;
    opts.ratio_threshold = 2.0;
    return opts;
  }
};

TEST_F(CharacterizationTest, FindsPlantedPairAndOnlyIt) {
  const Device d = planted_device();
  const CharacterizationResult result =
      characterize_crosstalk(d, fast_options(), Rng(17));
  ASSERT_FALSE(result.pairs.empty());
  // The planted pair (edges 0 and 2) must be flagged with a high ratio.
  bool found = false;
  for (const PairCharacterization& pc : result.pairs) {
    if ((pc.edge1 == 0 && pc.edge2 == 2) ||
        (pc.edge1 == 2 && pc.edge2 == 0)) {
      found = true;
      EXPECT_TRUE(pc.significant);
      EXPECT_GT(pc.ratio, 2.0);
    }
  }
  EXPECT_TRUE(found);
  // The estimate model contains the planted pair.
  EXPECT_GT(result.estimates.gamma(0, 2), 2.0);
}

TEST_F(CharacterizationTest, EstimateApproximatesGroundTruth) {
  const Device d = planted_device();
  const CharacterizationResult result =
      characterize_crosstalk(d, fast_options(), Rng(19));
  // Planted gamma is 5.0; mirror-RB ratio estimates within a loose band.
  const double est = result.estimates.gamma(0, 2);
  EXPECT_GT(est, 2.5);
  EXPECT_LT(est, 9.0);
}

TEST_F(CharacterizationTest, CleanDeviceYieldsNoSignificantPairs) {
  Topology topo(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  Rng rng(23);
  CalibrationProfile profile;
  profile.bad_edge_fraction = 0.0;
  profile.bad_readout_fraction = 0.0;
  Calibration cal = synthesize_calibration(topo, profile, rng);
  for (auto& e : cal.cx_error) e = 0.02;
  Device d("clean5", std::move(topo), std::move(cal), CrosstalkModel{});
  const CharacterizationResult result =
      characterize_crosstalk(d, fast_options(), Rng(29));
  for (const PairCharacterization& pc : result.pairs) {
    EXPECT_FALSE(pc.significant)
        << "edges " << pc.edge1 << "," << pc.edge2 << " ratio " << pc.ratio;
  }
  EXPECT_TRUE(result.estimates.empty());
}

}  // namespace
}  // namespace qucp
