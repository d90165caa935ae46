#include "schedule/schedule.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "random_programs.hpp"

namespace qucp {
namespace {

TEST(Schedule, OpDurations) {
  const Device d = make_line_device(3);
  const Calibration& cal = d.calibration();
  Gate h{GateKind::H, {0}, {}};
  EXPECT_DOUBLE_EQ(op_duration_ns(h, d), cal.q1_duration_ns);
  Gate cx{GateKind::CX, {0, 1}, {}};
  EXPECT_DOUBLE_EQ(op_duration_ns(cx, d), cal.cx_duration_ns[0]);
  Gate swap{GateKind::SWAP, {0, 1}, {}};
  EXPECT_DOUBLE_EQ(op_duration_ns(swap, d), 3.0 * cal.cx_duration_ns[0]);
  Gate m{GateKind::Measure, {0}, {}};
  m.clbit = 0;
  EXPECT_DOUBLE_EQ(op_duration_ns(m, d), cal.readout_duration_ns);
  Gate b{GateKind::Barrier, {0}, {}};
  EXPECT_DOUBLE_EQ(op_duration_ns(b, d), 0.0);
}

TEST(Schedule, AsapPacksEarly) {
  const Device d = make_line_device(3);
  Circuit c(3);
  c.h(0);
  c.h(1);
  c.cx(0, 1);
  const Schedule s = schedule_circuit(c, d, SchedulePolicy::ASAP);
  EXPECT_DOUBLE_EQ(s.ops[0].start_ns, 0.0);
  EXPECT_DOUBLE_EQ(s.ops[1].start_ns, 0.0);
  EXPECT_DOUBLE_EQ(s.ops[2].start_ns, d.calibration().q1_duration_ns);
  EXPECT_DOUBLE_EQ(s.makespan_ns, s.ops[2].end_ns);
}

TEST(Schedule, AlapPushesLate) {
  const Device d = make_line_device(3);
  Circuit c(3);
  c.h(0);      // on the critical path start
  c.h(2);      // independent: ALAP should delay it to the end
  c.cx(0, 1);
  const Schedule alap = schedule_circuit(c, d, SchedulePolicy::ALAP);
  const double q1 = d.calibration().q1_duration_ns;
  // h(2) finishes exactly at makespan under ALAP.
  EXPECT_DOUBLE_EQ(alap.ops[1].end_ns, alap.makespan_ns);
  EXPECT_GT(alap.ops[1].start_ns, 0.0);
  // h(0) still starts at 0 (it is on the critical path).
  EXPECT_DOUBLE_EQ(alap.ops[0].start_ns, 0.0);
  EXPECT_DOUBLE_EQ(alap.ops[0].end_ns, q1);
}

TEST(Schedule, AlapAndAsapSameMakespan) {
  const Device d = make_line_device(4);
  Circuit c(4);
  c.h(0);
  c.cx(0, 1);
  c.cx(1, 2);
  c.x(3);
  c.measure_all();
  const Schedule asap = schedule_circuit(c, d, SchedulePolicy::ASAP);
  const Schedule alap = schedule_circuit(c, d, SchedulePolicy::ALAP);
  EXPECT_DOUBLE_EQ(asap.makespan_ns, alap.makespan_ns);
}

TEST(Schedule, AlapRespectsDependencies) {
  const Device d = make_line_device(3);
  Circuit c(3);
  c.h(0);
  c.cx(0, 1);
  c.cx(1, 2);
  const Schedule s = schedule_circuit(c, d, SchedulePolicy::ALAP);
  EXPECT_LE(s.ops[0].end_ns, s.ops[1].start_ns + 1e-9);
  EXPECT_LE(s.ops[1].end_ns, s.ops[2].start_ns + 1e-9);
}

TEST(Schedule, WireSerialization) {
  const Device d = make_line_device(2);
  Circuit c(2);
  c.h(0);
  c.t(0);
  c.x(0);
  const Schedule s = schedule_circuit(c, d, SchedulePolicy::ASAP);
  EXPECT_DOUBLE_EQ(s.ops[1].start_ns, s.ops[0].end_ns);
  EXPECT_DOUBLE_EQ(s.ops[2].start_ns, s.ops[1].end_ns);
}

TEST(Schedule, RejectsWideCircuit) {
  const Device d = make_line_device(2);
  const Circuit c(5);
  EXPECT_THROW((void)schedule_circuit(c, d, SchedulePolicy::ASAP),
               std::invalid_argument);
}

TEST(Schedule, IntervalsOverlap) {
  EXPECT_TRUE(intervals_overlap(0, 10, 5, 15));
  EXPECT_TRUE(intervals_overlap(5, 15, 0, 10));
  EXPECT_TRUE(intervals_overlap(0, 10, 2, 3));
  EXPECT_FALSE(intervals_overlap(0, 10, 10, 20));  // half-open
  EXPECT_FALSE(intervals_overlap(0, 1, 2, 3));
}

TEST(Schedule, EmptyCircuit) {
  const Device d = make_line_device(2);
  const Circuit c(2);
  const Schedule s = schedule_circuit(c, d, SchedulePolicy::ALAP);
  EXPECT_TRUE(s.ops.empty());
  EXPECT_DOUBLE_EQ(s.makespan_ns, 0.0);
}

/// ALAP as it was written before the backward walk: ASAP over a reversed
/// copy of the circuit, mirrored.
Schedule reversed_asap_alap(const Circuit& circuit, const Device& device) {
  Circuit reversed(circuit.num_qubits(), circuit.num_clbits());
  for (auto it = circuit.ops().rbegin(); it != circuit.ops().rend(); ++it) {
    reversed.append(*it);
  }
  const Schedule rev = schedule_circuit(reversed, device, SchedulePolicy::ASAP);
  Schedule sched;
  sched.makespan_ns = rev.makespan_ns;
  sched.ops.resize(circuit.size());
  for (std::size_t ri = 0; ri < rev.ops.size(); ++ri) {
    const std::size_t i = circuit.size() - 1 - ri;
    const ScheduledOp& r = rev.ops[ri];
    sched.ops[i] = {i, rev.makespan_ns - r.end_ns,
                    rev.makespan_ns - r.start_ns};
  }
  return sched;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(Schedule, AlapEqualsMirroredAsapOfReversedCircuit) {
  Rng rng(4242);
  std::vector<Device> devices;
  devices.push_back(make_toronto27());
  devices.push_back(make_manhattan65());
  for (const Device& device : devices) {
    for (int trial = 0; trial < 60; ++trial) {
      std::vector<char> taken(static_cast<std::size_t>(device.num_qubits()),
                              0);
      const std::vector<int> region = test_programs::random_region(
          device, rng, 2 + static_cast<int>(rng.index(6)), taken);
      const Circuit c = test_programs::random_physical_circuit(
          device, rng, region, 5 + trial);
      const std::string context =
          device.name() + " trial " + std::to_string(trial);
      const Schedule got = schedule_circuit(c, device, SchedulePolicy::ALAP);
      const Schedule want = reversed_asap_alap(c, device);
      EXPECT_EQ(bits(got.makespan_ns), bits(want.makespan_ns)) << context;
      ASSERT_EQ(got.ops.size(), want.ops.size()) << context;
      for (std::size_t i = 0; i < got.ops.size(); ++i) {
        EXPECT_EQ(got.ops[i].op_index, want.ops[i].op_index) << context;
        EXPECT_EQ(bits(got.ops[i].start_ns), bits(want.ops[i].start_ns))
            << context << " op " << i;
        EXPECT_EQ(bits(got.ops[i].end_ns), bits(want.ops[i].end_ns))
            << context << " op " << i;
      }
    }
  }
}

}  // namespace
}  // namespace qucp
