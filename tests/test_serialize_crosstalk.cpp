// Tests for the crosstalk-serializing scheduler extension (software
// mitigation by instruction scheduling, Murali et al. — the alternative
// the paper contrasts with QuCP's partition-level avoidance).

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "quiet_device.hpp"
#include "sim/executor.hpp"
#include "sim/statevector.hpp"

namespace qucp {
namespace {

Device xtalk_device() {
  Topology topo(4, {{0, 1}, {1, 2}, {2, 3}});
  Rng rng(3);
  CalibrationProfile profile;
  profile.bad_edge_fraction = 0.0;
  profile.bad_readout_fraction = 0.0;
  Calibration cal = synthesize_calibration(topo, profile, rng);
  for (auto& e : cal.cx_error) e = 0.02;
  for (auto& r : cal.readout_error) r = 0.01;
  CrosstalkModel xtalk;
  xtalk.add_pair(0, 2, 6.0);  // edges (0,1) and (2,3) are one-hop
  return Device("xtalk4", std::move(topo), std::move(cal), std::move(xtalk));
}

Circuit cx_ladder(int a, int b) {
  Circuit c(4, 2);
  c.x(a);
  for (int i = 0; i < 8; ++i) c.cx(a, b);
  c.measure(a, 0);
  c.measure(b, 1);
  return c;
}

std::vector<PhysicalProgram> two_programs() {
  return {{cx_ladder(0, 1), "p0"}, {cx_ladder(2, 3), "p1"}};
}

TEST(SerializeCrosstalk, RemovesOverlapEvents) {
  const Device d = xtalk_device();
  ExecOptions plain;
  const ParallelRunReport base = execute_parallel(d, two_programs(), plain);
  EXPECT_GT(base.crosstalk_events, 0);

  ExecOptions serialized = plain;
  serialized.serialize_crosstalk = true;
  const ParallelRunReport fixed =
      execute_parallel(d, two_programs(), serialized);
  EXPECT_EQ(fixed.crosstalk_events, 0);
  EXPECT_DOUBLE_EQ(fixed.max_gamma_applied, 1.0);
}

TEST(SerializeCrosstalk, ExtendsMakespan) {
  const Device d = xtalk_device();
  ExecOptions plain;
  const ParallelRunReport base = execute_parallel(d, two_programs(), plain);
  ExecOptions serialized = plain;
  serialized.serialize_crosstalk = true;
  const ParallelRunReport fixed =
      execute_parallel(d, two_programs(), serialized);
  EXPECT_GT(fixed.makespan_ns, base.makespan_ns);
}

TEST(SerializeCrosstalk, ImprovesFidelityWhenCrosstalkDominates) {
  const Device d = xtalk_device();
  ExecOptions plain;
  const ParallelRunReport base = execute_parallel(d, two_programs(), plain);
  ExecOptions serialized = plain;
  serialized.serialize_crosstalk = true;
  const ParallelRunReport fixed =
      execute_parallel(d, two_programs(), serialized);
  const Distribution ideal = ideal_distribution(cx_ladder(0, 1));
  EXPECT_GT(fixed.programs[0].distribution.prob(ideal.most_likely()),
            base.programs[0].distribution.prob(ideal.most_likely()));
}

TEST(SerializeCrosstalk, PreservesProgramSemantics) {
  const Device d = test_devices::quiet_device(xtalk_device());
  ExecOptions opts;
  opts.serialize_crosstalk = true;
  const ParallelRunReport report =
      execute_parallel(d, two_programs(), opts);
  for (int p = 0; p < 2; ++p) {
    const Distribution ideal =
        ideal_distribution(cx_ladder(p == 0 ? 0 : 2, p == 0 ? 1 : 3));
    EXPECT_NEAR(report.programs[p].distribution.prob(ideal.most_likely()),
                1.0, 1e-9);
  }
}

TEST(SerializeCrosstalk, NoopWithoutConflicts) {
  // Programs with no one-hop relation: serialization changes nothing.
  Topology topo(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  Rng rng(5);
  CalibrationProfile profile;
  profile.bad_edge_fraction = 0.0;
  Calibration cal = synthesize_calibration(topo, profile, rng);
  Device d("line5x", std::move(topo), std::move(cal), CrosstalkModel{});
  std::vector<PhysicalProgram> programs{{cx_ladder(0, 1), "p0"}};
  ExecOptions opts;
  opts.serialize_crosstalk = true;
  const ParallelRunReport a = execute_parallel(d, programs, opts);
  opts.serialize_crosstalk = false;
  const ParallelRunReport b = execute_parallel(d, programs, opts);
  EXPECT_DOUBLE_EQ(a.makespan_ns, b.makespan_ns);
}

}  // namespace
}  // namespace qucp
