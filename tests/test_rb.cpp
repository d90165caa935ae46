#include "srb/rb.hpp"

#include <gtest/gtest.h>

#include "quiet_device.hpp"

namespace qucp {
namespace {

/// 4-qubit line with controlled uniform noise and one planted crosstalk
/// pair between edges (0,1) and (2,3).
Device rb_device(double cx_err, double gamma) {
  Topology topo(4, {{0, 1}, {1, 2}, {2, 3}});
  Rng rng(11);
  CalibrationProfile profile;
  profile.bad_edge_fraction = 0.0;
  profile.bad_readout_fraction = 0.0;
  Calibration cal = synthesize_calibration(topo, profile, rng);
  for (auto& e : cal.cx_error) e = cx_err;
  for (auto& r : cal.readout_error) r = 0.01;
  for (auto& q : cal.q1_error) q = 1e-4;
  CrosstalkModel xtalk;
  if (gamma > 1.0) xtalk.add_pair(0, 2, gamma);
  return Device("rb4", std::move(topo), std::move(cal), std::move(xtalk));
}

RbOptions fast_rb() {
  RbOptions opts;
  opts.lengths = {1, 3, 6, 10};
  opts.seeds = 3;
  return opts;
}

TEST(Rb, SequenceStructure) {
  const Device d = rb_device(0.02, 1.0);
  Rng rng(1);
  const Circuit seq = make_rb_sequence(d, 0, 1, 4, rng);
  // 4 cycles of (2 one-qubit + 1 CX) mirrored, plus 2 measurements.
  EXPECT_EQ(seq.gate_count(), 2 * 4 * 3);
  EXPECT_EQ(seq.two_qubit_count(), 8);
  EXPECT_EQ(seq.count_ops().at("measure"), 2);
  EXPECT_THROW((void)make_rb_sequence(d, 0, 2, 4, rng),
               std::invalid_argument);
  EXPECT_THROW((void)make_rb_sequence(d, 0, 1, 0, rng),
               std::invalid_argument);
}

TEST(Rb, MirrorSequenceIsIdentityNoiseless) {
  const Device d = rb_device(0.02, 1.0);
  Rng rng(2);
  const Circuit seq = make_rb_sequence(d, 1, 2, 5, rng);
  const ProgramOutcome out =
      execute_single(test_devices::quiet_device(d), seq);
  EXPECT_NEAR(out.distribution.prob(0), 1.0, 1e-9);
}

TEST(Rb, SurvivalDecaysWithLength) {
  const Device d = rb_device(0.03, 1.0);
  RbOptions opts = fast_rb();
  const RbResult r = run_rb(d, 0, 1, opts, Rng(3));
  ASSERT_EQ(r.survival.size(), opts.lengths.size());
  EXPECT_GT(r.survival.front(), r.survival.back());
  EXPECT_GT(r.epc, 0.0);
  EXPECT_LT(r.alpha, 1.0);
}

TEST(Rb, EpcTracksCxError) {
  RbOptions opts = fast_rb();
  const RbResult low = run_rb(rb_device(0.01, 1.0), 0, 1, opts, Rng(4));
  const RbResult high = run_rb(rb_device(0.05, 1.0), 0, 1, opts, Rng(4));
  EXPECT_GT(high.epc, low.epc * 1.5);
}

TEST(Rb, DeterministicGivenSeed) {
  const Device d = rb_device(0.02, 1.0);
  RbOptions opts = fast_rb();
  const RbResult a = run_rb(d, 0, 1, opts, Rng(5));
  const RbResult b = run_rb(d, 0, 1, opts, Rng(5));
  EXPECT_EQ(a.survival, b.survival);
  EXPECT_DOUBLE_EQ(a.epc, b.epc);
}

TEST(Rb, SimultaneousWithoutCrosstalkMatchesIndividual) {
  const Device d = rb_device(0.02, 1.0);  // no planted crosstalk
  RbOptions opts = fast_rb();
  const RbResult ind = run_rb(d, 0, 1, opts, Rng(6));
  const auto [sim1, sim2] = run_simultaneous_rb(d, 0, 1, 2, 3, opts, Rng(6));
  // Same noise model; EPCs should agree within fitting tolerance.
  EXPECT_NEAR(sim1.epc, ind.epc, 0.5 * ind.epc + 1e-4);
}

TEST(Rb, SimultaneousWithCrosstalkElevatesEpc) {
  const Device with = rb_device(0.02, 4.0);
  RbOptions opts = fast_rb();
  const RbResult ind = run_rb(with, 0, 1, opts, Rng(7));
  const auto [sim1, sim2] =
      run_simultaneous_rb(with, 0, 1, 2, 3, opts, Rng(7));
  EXPECT_GT(sim1.epc, ind.epc * 1.8);
  EXPECT_GT(sim2.epc, 0.0);
}

TEST(Rb, SimultaneousRejectsSharedQubit) {
  const Device d = rb_device(0.02, 1.0);
  EXPECT_THROW(
      (void)run_simultaneous_rb(d, 0, 1, 1, 2, fast_rb(), Rng(8)),
      std::invalid_argument);
}

}  // namespace
}  // namespace qucp
