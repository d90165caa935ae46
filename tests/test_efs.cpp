#include "partition/efs.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace qucp {
namespace {

/// 6-qubit line with controlled calibration for hand-checkable EFS.
Device efs_device() {
  Topology topo(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}});
  Rng rng(31);
  CalibrationProfile profile;
  profile.bad_edge_fraction = 0.0;
  profile.bad_readout_fraction = 0.0;
  Calibration cal = synthesize_calibration(topo, profile, rng);
  // Edge errors 1%..5%, readout 2%, 1q 0.1%.
  for (std::size_t e = 0; e < cal.cx_error.size(); ++e) {
    cal.cx_error[e] = 0.01 * (e + 1);
  }
  for (auto& r : cal.readout_error) r = 0.02;
  for (auto& q : cal.q1_error) q = 0.001;
  return Device("efs6", std::move(topo), std::move(cal), CrosstalkModel{});
}

TEST(Efs, HandComputedScore) {
  const Device d = efs_device();
  const CrosstalkPolicy policy;
  const ProgramShape shape{2, 5, 10};
  const std::vector<int> part{0, 1};
  const EfsBreakdown efs = efs_score(d, part, shape, {}, policy);
  // Avg2q = 0.01 (edge 0), Avg1q = 0.001, readout = 0.04.
  EXPECT_NEAR(efs.avg_2q, 0.01, 1e-12);
  EXPECT_NEAR(efs.avg_1q, 0.001, 1e-12);
  EXPECT_NEAR(efs.readout_sum, 0.04, 1e-12);
  EXPECT_NEAR(efs.score, 0.01 * 5 + 0.001 * 10 + 0.04, 1e-12);
  EXPECT_TRUE(efs.crosstalk_edges.empty());
}

TEST(Efs, LowerErrorRegionScoresBetter) {
  const Device d = efs_device();
  const CrosstalkPolicy policy;
  const ProgramShape shape{2, 5, 5};
  const double low =
      efs_score(d, std::vector<int>{0, 1}, shape, {}, policy).score;
  const double high =
      efs_score(d, std::vector<int>{4, 5}, shape, {}, policy).score;
  EXPECT_LT(low, high);
}

TEST(Efs, SigmaPolicyInflatesOneHopEdges) {
  const Device d = efs_device();
  const ProgramShape shape{2, 4, 0};
  // Allocate {0,1} (edge 0); candidate {2,3} (edge 2) is one-hop from it.
  const std::vector<int> allocated{0, 1};
  const std::vector<int> cand{2, 3};
  const CrosstalkPolicy none;
  const CrosstalkPolicy sigma4(4.0);
  const EfsBreakdown base = efs_score(d, cand, shape, allocated, none);
  const EfsBreakdown inflated = efs_score(d, cand, shape, allocated, sigma4);
  EXPECT_NEAR(inflated.avg_2q, 4.0 * base.avg_2q, 1e-12);
  ASSERT_EQ(inflated.crosstalk_edges.size(), 1u);
  EXPECT_EQ(inflated.crosstalk_edges[0], 2);
  EXPECT_EQ(base.crosstalk_edges.size(), 1u);  // flagged, multiplier 1
}

TEST(Efs, OneHopDetectionRange) {
  const Device d = efs_device();
  const ProgramShape shape{2, 4, 0};
  const CrosstalkPolicy sigma(3.0);
  // Candidate {2,3} (edge 2) vs allocation {4,5} (edge 4): one hop apart.
  const EfsBreakdown near_efs = efs_score(
      d, std::vector<int>{2, 3}, shape, std::vector<int>{4, 5}, sigma);
  EXPECT_EQ(near_efs.crosstalk_edges.size(), 1u);
  // Candidate {3,4} vs allocation {0,1}: two hops -> no flag.
  const EfsBreakdown far_efs = efs_score(
      d, std::vector<int>{3, 4}, shape, std::vector<int>{0, 1}, sigma);
  EXPECT_TRUE(far_efs.crosstalk_edges.empty());
}

TEST(Efs, EstimatePolicyUsesPerPairGamma) {
  const Device d = efs_device();
  CrosstalkModel estimates;
  estimates.add_pair(0, 2, 6.0);  // edges (0,1) and (2,3)
  const CrosstalkPolicy policy(estimates);
  const ProgramShape shape{2, 10, 0};
  const EfsBreakdown efs = efs_score(d, std::vector<int>{2, 3}, shape,
                                     std::vector<int>{0, 1}, policy);
  EXPECT_NEAR(efs.avg_2q, 6.0 * 0.03, 1e-12);  // edge 2 error 0.03
  // A pair the estimates don't know about gets multiplier 1.
  const EfsBreakdown other = efs_score(d, std::vector<int>{2, 3}, shape,
                                       std::vector<int>{4, 5}, policy);
  EXPECT_NEAR(other.avg_2q, 0.03, 1e-12);
}

TEST(Efs, CrosstalkAdjustedErrorCapsAtOne) {
  const Device base = efs_device();
  Calibration cal = base.calibration();
  cal.cx_error[2] = 0.9;
  const Device d(base.name(), base.topology(), std::move(cal),
                 base.crosstalk_ground_truth());
  const CrosstalkPolicy sigma(8.0);
  const ProgramShape shape{2, 1, 0};
  const EfsBreakdown efs = efs_score(d, std::vector<int>{2, 3}, shape,
                                     std::vector<int>{0, 1}, sigma);
  EXPECT_LE(efs.avg_2q, 1.0);
}

TEST(Efs, Validation) {
  const Device d = efs_device();
  const CrosstalkPolicy policy;
  const ProgramShape shape{2, 1, 1};
  EXPECT_THROW(
      (void)efs_score(d, std::vector<int>{0, 1, 2}, shape, {}, policy),
      std::invalid_argument);
  EXPECT_THROW((void)efs_score(d, std::vector<int>{0, 2},
                               ProgramShape{2, 1, 1}, {}, policy),
               std::invalid_argument);
  EXPECT_THROW((void)efs_score(d, std::vector<int>{0, 1},
                               ProgramShape{2, 1, 1}, std::vector<int>{1, 2},
                               policy),
               std::invalid_argument);
  EXPECT_THROW((void)efs_score(d, std::vector<int>{0},
                               ProgramShape{1, 3, 1}, {}, policy),
               std::invalid_argument);
}

TEST(Efs, SharedQubitEdgePairsAreUnreachable) {
  // The crosstalk loop's former shares_qubit skip is dead code (now an
  // assert): a partition edge and an allocated edge can only share a qubit
  // when partition and allocation overlap, which the validation rejects
  // before any edge is inspected. This test documents the invariant by
  // pinning the rejection for every overlap geometry on the line device.
  const Device d = efs_device();
  const CrosstalkPolicy policy;
  const ProgramShape shape{2, 1, 0};
  // Full overlap, single-qubit overlap at either end: all must throw.
  EXPECT_THROW((void)efs_score(d, std::vector<int>{1, 2}, shape,
                               std::vector<int>{1, 2}, policy),
               std::invalid_argument);
  EXPECT_THROW((void)efs_score(d, std::vector<int>{1, 2}, shape,
                               std::vector<int>{2, 3}, policy),
               std::invalid_argument);
  EXPECT_THROW((void)efs_score(d, std::vector<int>{1, 2}, shape,
                               std::vector<int>{0, 1}, policy),
               std::invalid_argument);
  // Disjoint but adjacent partitions share no edge endpoint; edge (1,2)
  // vs allocated edge (3,4) is the closest legal geometry and is scored
  // as a distance-1 crosstalk pair, not skipped.
  const EfsBreakdown adjacent = efs_score(d, std::vector<int>{1, 2}, shape,
                                          std::vector<int>{3, 4}, policy);
  EXPECT_EQ(adjacent.crosstalk_edges.size(), 1u);
}

TEST(Efs, SigmaPolicyValidatesSigma) {
  EXPECT_THROW(CrosstalkPolicy(0.5), std::invalid_argument);
  EXPECT_NO_THROW(CrosstalkPolicy(1.0));
}

TEST(Efs, SingleQubitProgramScoresReadoutOnly) {
  const Device d = efs_device();
  const CrosstalkPolicy policy;
  const ProgramShape shape{1, 0, 3};
  const EfsBreakdown efs =
      efs_score(d, std::vector<int>{2}, shape, {}, policy);
  EXPECT_NEAR(efs.score, 0.001 * 3 + 0.02, 1e-12);
  EXPECT_DOUBLE_EQ(efs.avg_2q, 0.0);
}

TEST(Efs, MoreGatesAmplifyScore) {
  const Device d = efs_device();
  const CrosstalkPolicy policy;
  const std::vector<int> part{0, 1, 2};
  const double few =
      efs_score(d, part, ProgramShape{3, 2, 4}, {}, policy).score;
  const double many =
      efs_score(d, part, ProgramShape{3, 20, 40}, {}, policy).score;
  EXPECT_GT(many, few);
}

}  // namespace
}  // namespace qucp
