// Tests for the crosstalk-serializing scheduler extension (software
// mitigation by instruction scheduling, Murali et al. — the alternative
// the paper contrasts with QuCP's partition-level avoidance).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "quiet_device.hpp"
#include "random_programs.hpp"
#include "sim/executor.hpp"
#include "sim/kernels.hpp"
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

/// Seeded random 3-6-program batches on toronto27 and manhattan65 under
/// ALAP and ASAP (25 each), with serialize_crosstalk on: calls
/// visit(device, programs, options) once per batch and returns how many
/// batches hold at least three programs (a batch stops growing when no
/// free region of two qubits is left).
template <typename Visit>
int for_each_serialized_batch(Visit&& visit) {
  int multi_program_batches = 0;
  Rng rng(7331);
  for (const Device& device : {make_toronto27(), make_manhattan65()}) {
    for (const SchedulePolicy policy :
         {SchedulePolicy::ALAP, SchedulePolicy::ASAP}) {
      for (int batch = 0; batch < 25; ++batch) {
        std::vector<char> taken(static_cast<std::size_t>(device.num_qubits()),
                                0);
        std::vector<PhysicalProgram> programs;
        const int want = 3 + static_cast<int>(rng.index(4));
        for (int p = 0; p < want; ++p) {
          const std::vector<int> region = test_programs::random_region(
              device, rng, 2 + static_cast<int>(rng.index(3)), taken);
          if (region.size() < 2) break;
          programs.push_back({test_programs::random_physical_circuit(
                                  device, rng, region,
                                  12 + static_cast<int>(rng.index(12))),
                              "p"});
        }
        multi_program_batches += programs.size() >= 3 ? 1 : 0;
        ExecOptions opts;
        opts.shots = 64;
        opts.schedule = policy;
        opts.seed = 17 + static_cast<std::uint64_t>(batch);
        opts.serialize_crosstalk = true;
        visit(device, programs, opts);
      }
    }
  }
  return multi_program_batches;
}

TEST(SerializeCrosstalk, MultiProgramBatchesMatchPinnedDigest) {
  // The digest folds each batch's makespan bits, crosstalk events and max
  // gamma, and every program's distribution bits and counts, so any
  // change to which program serialization shifts, or by how much, moves
  // it. Scalar kernels: the digest belongs to them.
  struct NativeReset {
    bool was = kern::native_kernels_active();
    ~NativeReset() { kern::set_native_kernels(was); }
  } reset;
  kern::set_native_kernels(false);

  std::uint64_t h = kFnv1aBasis;
  const int multi_program_batches = for_each_serialized_batch(
      [&](const Device& device, const std::vector<PhysicalProgram>& programs,
          const ExecOptions& opts) {
        const ParallelRunReport run = execute_parallel(device, programs, opts);
        h = fnv1a_mix(h, std::bit_cast<std::uint64_t>(run.makespan_ns));
        h = fnv1a_mix(h, static_cast<std::uint64_t>(run.crosstalk_events));
        h = fnv1a_mix(h, std::bit_cast<std::uint64_t>(run.max_gamma_applied));
        for (const ProgramOutcome& out : run.programs) {
          for (const auto& [outcome, p] : out.distribution.probs()) {
            h = fnv1a_mix(h, outcome);
            h = fnv1a_mix(h, std::bit_cast<std::uint64_t>(p));
          }
          for (const auto& [outcome, n] : out.counts.data()) {
            h = fnv1a_mix(h, outcome);
            h = fnv1a_mix(h, static_cast<std::uint64_t>(n));
          }
        }
      });
  EXPECT_GE(multi_program_batches, 95);
  EXPECT_EQ(h, 0x777efd7841138d77ull) << std::hex << h;
}

TEST(SerializeCrosstalk, NoCrossProgramOverlapSurvives) {
  // After serialization no two programs' one-hop CX gates overlap in
  // time. The ground-truth crosstalk pairs are one-hop pairs, so a
  // serialized batch counts exactly the crosstalk events its programs
  // count when each runs alone.
  int batches = 0;
  for_each_serialized_batch(
      [&](const Device& device, const std::vector<PhysicalProgram>& programs,
          const ExecOptions& opts) {
        const ParallelRunReport run = execute_parallel(device, programs, opts);
        int solo_events = 0;
        for (const PhysicalProgram& program : programs) {
          solo_events += execute_parallel(device, {program}, opts)
                             .crosstalk_events;
        }
        EXPECT_EQ(run.crosstalk_events, solo_events) << "batch " << batches;
        ++batches;
      });
  EXPECT_EQ(batches, 100);
}

}  // namespace
}  // namespace qucp
