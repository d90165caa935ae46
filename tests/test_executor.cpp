#include "sim/executor.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "metrics/metrics.hpp"
#include "quiet_device.hpp"
#include "random_programs.hpp"
#include "sim/kernels.hpp"
#include "sim/statevector.hpp"

namespace qucp {
namespace {

using test_devices::kCrosstalkNoise;
using test_devices::kGateNoise;
using test_devices::kIdleNoise;
using test_devices::kReadoutNoise;
using test_devices::quiet_device;

/// Line device with uniform mild noise and no crosstalk.
Device quiet_line(int n) { return make_line_device(n, 7); }

Circuit bell_on(int a, int b, int n) {
  Circuit c(n, 2);
  c.h(a);
  c.cx(a, b);
  c.measure(a, 0);
  c.measure(b, 1);
  return c;
}

TEST(Executor, NoiselessMatchesIdeal) {
  const Device d = quiet_device(quiet_line(4));
  Circuit c = bell_on(0, 1, 4);
  const ProgramOutcome out = execute_single(d, c);
  EXPECT_NEAR(out.distribution.prob(0b00), 0.5, 1e-9);
  EXPECT_NEAR(out.distribution.prob(0b11), 0.5, 1e-9);
}

TEST(Executor, NoiseReducesFidelity) {
  const Device d = quiet_line(4);
  Circuit c(4, 4);
  c.x(0);
  for (int i = 0; i < 6; ++i) {
    c.cx(0, 1);
    c.cx(1, 2);
  }
  c.measure(0, 0);
  c.measure(1, 1);
  c.measure(2, 2);
  ExecOptions noisy;
  const ProgramOutcome out = execute_single(d, c, noisy);
  const Distribution ideal = ideal_distribution(c);
  const double fidelity = out.distribution.prob(ideal.most_likely());
  EXPECT_LT(fidelity, 0.999);
  EXPECT_GT(fidelity, 0.3);  // mild noise should not destroy the state
}

TEST(Executor, ShotsAreSampledAndSeeded) {
  const Device d = quiet_line(3);
  Circuit c = bell_on(0, 1, 3);
  ExecOptions opts;
  opts.shots = 512;
  opts.seed = 5;
  const ProgramOutcome a = execute_single(d, c, opts);
  const ProgramOutcome b = execute_single(d, c, opts);
  EXPECT_EQ(a.counts.total(), 512);
  EXPECT_EQ(a.counts.data(), b.counts.data());
  opts.seed = 6;
  const ProgramOutcome e = execute_single(d, c, opts);
  EXPECT_NE(a.counts.data(), e.counts.data());
}

TEST(Executor, RejectsOverlappingPrograms) {
  const Device d = quiet_line(4);
  std::vector<PhysicalProgram> progs;
  progs.push_back({bell_on(0, 1, 4), "a"});
  progs.push_back({bell_on(1, 2, 4), "b"});
  EXPECT_THROW((void)execute_parallel(d, std::move(progs), {}),
               std::invalid_argument);
}

TEST(Executor, RejectsUncoupledGates) {
  const Device d = quiet_line(4);
  Circuit c(4, 2);
  c.h(0);
  c.cx(0, 2);  // not adjacent on a line
  c.measure(0, 0);
  EXPECT_THROW((void)execute_single(d, c, {}), std::invalid_argument);
}

TEST(Executor, RejectsUnmeasuredProgram) {
  const Device d = quiet_line(3);
  Circuit c(3);
  c.h(0);
  EXPECT_THROW((void)execute_single(d, c, {}), std::invalid_argument);
}

TEST(Executor, ThroughputAndQubitsUsed) {
  const Device d = quiet_line(8);
  std::vector<PhysicalProgram> progs;
  progs.push_back({bell_on(0, 1, 8), "a"});
  progs.push_back({bell_on(4, 5, 8), "b"});
  const ParallelRunReport report = execute_parallel(d, std::move(progs), {});
  EXPECT_EQ(report.qubits_used, 4);
  EXPECT_NEAR(report.throughput, 0.5, 1e-12);
  EXPECT_EQ(report.programs.size(), 2u);
  EXPECT_GT(report.makespan_ns, 0.0);
}

TEST(Executor, SwapsAreLowered) {
  const Device d =
      quiet_device(quiet_line(3), kGateNoise | kIdleNoise | kReadoutNoise);
  Circuit c(3, 2);
  c.x(0);
  c.swap(0, 1);
  c.measure(1, 0);
  const ProgramOutcome out = execute_single(d, c);
  EXPECT_NEAR(out.distribution.prob(1), 1.0, 1e-9);
}

/// Crosstalk: two CX-heavy programs on one-hop edges with a planted gamma
/// must lose fidelity when run simultaneously.
class CrosstalkExecutionTest : public ::testing::Test {
 protected:
  static Device make_xtalk_device() {
    Topology topo(4, {{0, 1}, {1, 2}, {2, 3}});
    Rng rng(3);
    CalibrationProfile profile;
    profile.bad_edge_fraction = 0.0;
    profile.bad_readout_fraction = 0.0;
    Calibration cal = synthesize_calibration(topo, profile, rng);
    for (auto& e : cal.cx_error) e = 0.02;
    for (auto& r : cal.readout_error) r = 0.01;
    CrosstalkModel xtalk;
    xtalk.add_pair(0, 2, 5.0);  // edges (0,1) and (2,3) are one-hop
    return Device("xtalk4", std::move(topo), std::move(cal),
                  std::move(xtalk));
  }

  static Circuit cx_ladder(int a, int b) {
    Circuit c(4, 2);
    c.x(a);
    for (int i = 0; i < 8; ++i) c.cx(a, b);
    c.measure(a, 0);
    c.measure(b, 1);
    return c;
  }
};

TEST_F(CrosstalkExecutionTest, SimultaneousLosesFidelity) {
  const Device d = make_xtalk_device();
  const Circuit p0 = cx_ladder(0, 1);
  const Circuit p1 = cx_ladder(2, 3);

  const ProgramOutcome solo = execute_single(d, p0, {});
  std::vector<PhysicalProgram> progs;
  progs.push_back({p0, "p0"});
  progs.push_back({p1, "p1"});
  const ParallelRunReport both = execute_parallel(d, std::move(progs), {});

  EXPECT_GT(both.crosstalk_events, 0);
  EXPECT_NEAR(both.max_gamma_applied, 5.0, 1e-12);
  const Distribution ideal = ideal_distribution(p0);
  const double pst_solo = solo.distribution.prob(ideal.most_likely());
  const double pst_parallel =
      both.programs[0].distribution.prob(ideal.most_likely());
  EXPECT_LT(pst_parallel, pst_solo - 0.01);
}

TEST_F(CrosstalkExecutionTest, CrosstalkToggleRestoresFidelity) {
  const Device d = make_xtalk_device();
  std::vector<PhysicalProgram> progs;
  progs.push_back({cx_ladder(0, 1), "p0"});
  progs.push_back({cx_ladder(2, 3), "p1"});
  const ParallelRunReport off =
      execute_parallel(quiet_device(d, kCrosstalkNoise), progs);
  EXPECT_EQ(off.crosstalk_events, 0);
  const ParallelRunReport on = execute_parallel(d, progs, {});
  const Distribution ideal = ideal_distribution(cx_ladder(0, 1));
  EXPECT_GT(off.programs[0].distribution.prob(ideal.most_likely()),
            on.programs[0].distribution.prob(ideal.most_likely()));
}

TEST_F(CrosstalkExecutionTest, NonOverlappingEdgesNoCrosstalk) {
  // Programs on edges (0,1) and (1,2) share qubit 1 -> rejected; instead
  // test edges (0,1) alone: no partner, no events.
  const Device d = make_xtalk_device();
  std::vector<PhysicalProgram> progs;
  progs.push_back({cx_ladder(0, 1), "p0"});
  const ParallelRunReport report = execute_parallel(d, std::move(progs), {});
  EXPECT_EQ(report.crosstalk_events, 0);
  EXPECT_DOUBLE_EQ(report.max_gamma_applied, 1.0);
}

TEST(Executor, AlapNotWorseThanAsapForUnequalDepths) {
  // A short program next to a long one: ALAP delays the short one so its
  // qubits idle in |0> instead of in an excited state.
  const Device d = quiet_line(5);
  Circuit longer(5, 2);
  longer.x(0);
  for (int i = 0; i < 20; ++i) longer.cx(0, 1);
  longer.measure(0, 0);
  longer.measure(1, 1);
  Circuit shorter(5, 1);
  shorter.x(3);
  shorter.measure(3, 0);

  auto run = [&](SchedulePolicy policy) {
    std::vector<PhysicalProgram> progs;
    progs.push_back({longer, "long"});
    progs.push_back({shorter, "short"});
    ExecOptions opts;
    opts.schedule = policy;
    return execute_parallel(d, std::move(progs), opts);
  };
  const auto alap = run(SchedulePolicy::ALAP);
  const auto asap = run(SchedulePolicy::ASAP);
  const double f_alap = alap.programs[1].distribution.prob(1);
  const double f_asap = asap.programs[1].distribution.prob(1);
  EXPECT_GE(f_alap, f_asap - 1e-9);
}

TEST(Executor, MeasurementClbitMapping) {
  const Device d =
      quiet_device(quiet_line(3), kGateNoise | kIdleNoise | kReadoutNoise);
  Circuit c(3, 3);
  c.x(2);
  c.measure(2, 0);  // q2 -> clbit 0
  c.measure(0, 2);  // q0 -> clbit 2
  const ProgramOutcome out = execute_single(d, c);
  EXPECT_NEAR(out.distribution.prob(0b001), 1.0, 1e-9);
}

// --- Bit-level golden of one noisy batch, recorded before gate ops ran
// their channels in a single density sweep: the fused sweep and the
// sampler must reproduce every probability and count bit for bit.

/// Fixed three-program noisy batch: idle windows (ALAP alignment of
/// unequal depths), a crosstalk-amplified CX pair, every superket tag
/// (diag, perm, dense) and CX in both operand orders, on local qubit 0
/// and above.
ParallelRunReport run_golden_batch() {
  Topology topo(9, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7},
                    {7, 8}});
  Rng rng(11);
  Calibration cal = synthesize_calibration(topo, CalibrationProfile{}, rng);
  CrosstalkModel xtalk;
  xtalk.add_pair(4, 6, 3.0);  // edges (4,5) and (6,7) are one-hop
  const Device d("golden9", std::move(topo), std::move(cal), std::move(xtalk));

  Circuit p0(9, 3);
  p0.ry(0.7, 0);
  p0.rz(0.4, 1);
  p0.h(2);
  p0.cx(0, 1);
  p0.cx(2, 1);
  p0.x(0);
  p0.h(0);  // mixes qubit 0's idle-decayed coherence into populations
  p0.ry(1.9, 2);
  p0.cx(1, 2);
  p0.measure(0, 0);
  p0.measure(1, 1);
  p0.measure(2, 2);

  Circuit p1(9, 2);
  p1.h(4);
  p1.cx(5, 4);
  p1.t(5);
  p1.cx(4, 5);
  p1.measure(4, 0);
  p1.measure(5, 1);

  Circuit p2(9, 3);
  p2.sx(6);
  p2.cx(6, 7);
  p2.y(8);
  p2.swap(7, 8);
  p2.cx(7, 6);
  p2.rx(0.3, 8);
  p2.h(6);
  for (int i = 0; i < 3; ++i) p2.cx(6, 7);
  p2.measure(6, 0);
  p2.measure(7, 1);
  p2.measure(8, 2);

  std::vector<PhysicalProgram> progs;
  progs.push_back({p0, "p0"});
  progs.push_back({p1, "p1"});
  progs.push_back({p2, "p2"});
  ExecOptions opts;
  opts.shots = 2048;
  opts.seed = 99;
  return execute_parallel(d, std::move(progs), opts);
}

struct GoldenProgram {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> dist;  ///< p bits
  std::vector<Counts::Entry> counts;
};

void expect_golden(const ParallelRunReport& r,
                   const std::vector<GoldenProgram>& want, const char* mode) {
  EXPECT_EQ(r.crosstalk_events, 5) << mode;
  ASSERT_EQ(r.programs.size(), want.size()) << mode;
  for (std::size_t p = 0; p < want.size(); ++p) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> dist;
    for (const auto& [outcome, prob] : r.programs[p].distribution.probs()) {
      dist.emplace_back(outcome, std::bit_cast<std::uint64_t>(prob));
    }
    EXPECT_EQ(dist, want[p].dist) << mode << " program " << p;
    EXPECT_EQ(r.programs[p].counts.data(), want[p].counts)
        << mode << " program " << p;
  }
}

TEST(Executor, NoisyBatchMatchesRecordedBits) {
  // Scalar kernels, and (where they run) the AVX2 kernels, whose FMAs
  // round differently and so carry their own recording.
  const std::vector<GoldenProgram> scalar = {
      {{{0, 0x3fa6fa8f324f7d4aull}, {1, 0x3fc3c2e2e9f54a06ull}, {2, 0x3fc3beecbdb1bfd8ull}, {3, 0x3fa6f59c58b45dacull}, {4, 0x3fca43f5a4c149b6ull}, {5, 0x3fb87f6d0ebfbe09ull}, {6, 0x3fb87cf3a1f22e3cull}, {7, 0x3fca3fff787dbf88ull}},
       {{0, 97}, {1, 311}, {2, 342}, {3, 108}, {4, 391}, {5, 180}, {6, 185}, {7, 434}}},
      {{{0, 0x3fdbe2f147673aa9ull}, {1, 0x3fb07f3dbd80f3daull}, {2, 0x3fb07ed71f520644ull}, {3, 0x3fdbdd89816406cfull}},
       {{0, 917}, {1, 122}, {2, 123}, {3, 886}}},
      {{{0, 0x3f9e3a13a18c2438ull}, {1, 0x3fd1e577e450bf82ull}, {2, 0x3fc59e260755d502ull}, {3, 0x3f9bac629e0a1293ull}, {4, 0x3f9b17cec69038edull}, {5, 0x3fc50ad3ea5af55bull}, {6, 0x3fd19bced5d34fadull}, {7, 0x3f9da57fca124a90ull}},
       {{0, 76}, {1, 547}, {2, 356}, {3, 54}, {4, 39}, {5, 318}, {6, 603}, {7, 55}}},
  };
  const std::vector<GoldenProgram> native = {
      {{{0, 0x3fa6fa8f324f7d4bull}, {1, 0x3fc3c2e2e9f54a06ull}, {2, 0x3fc3beecbdb1bfd8ull}, {3, 0x3fa6f59c58b45dadull}, {4, 0x3fca43f5a4c149b8ull}, {5, 0x3fb87f6d0ebfbe0aull}, {6, 0x3fb87cf3a1f22e3bull}, {7, 0x3fca3fff787dbf89ull}},
       {{0, 97}, {1, 311}, {2, 342}, {3, 108}, {4, 391}, {5, 180}, {6, 185}, {7, 434}}},
      {{{0, 0x3fdbe2f147673aa8ull}, {1, 0x3fb07f3dbd80f3daull}, {2, 0x3fb07ed71f520644ull}, {3, 0x3fdbdd89816406cfull}},
       {{0, 917}, {1, 122}, {2, 123}, {3, 886}}},
      {{{0, 0x3f9e3a13a18c2438ull}, {1, 0x3fd1e577e450bf82ull}, {2, 0x3fc59e260755d502ull}, {3, 0x3f9bac629e0a1293ull}, {4, 0x3f9b17cec69038edull}, {5, 0x3fc50ad3ea5af55aull}, {6, 0x3fd19bced5d34fadull}, {7, 0x3f9da57fca124a90ull}},
       {{0, 76}, {1, 547}, {2, 356}, {3, 54}, {4, 39}, {5, 318}, {6, 603}, {7, 55}}},
  };
  const bool native_active = kern::native_kernels_active();
  kern::set_native_kernels(false);
  expect_golden(run_golden_batch(), scalar, "scalar");
  kern::set_native_kernels(true);
  if (native_active) expect_golden(run_golden_batch(), native, "native");
}

/// Digest of execute_parallel over seeded random batches
/// (tests/random_programs.hpp): 2-4 programs of 2-6 qubits on melbourne16,
/// toronto27 and manhattan65, under ALAP and ASAP, with no noise source
/// zeroed and with each zeroed in turn. It folds every program's
/// distribution bits and counts and each batch's crosstalk events.
std::uint64_t random_batches_digest() {
  std::uint64_t h = kFnv1aBasis;
  Rng rng(2718);
  for (const Device& full :
       {make_melbourne16(), make_toronto27(), make_manhattan65()}) {
    for (const unsigned zeroed :
         {0U, unsigned{kGateNoise}, unsigned{kIdleNoise},
          unsigned{kReadoutNoise}, unsigned{kCrosstalkNoise}}) {
      const Device device = quiet_device(full, zeroed);
      for (const SchedulePolicy policy :
           {SchedulePolicy::ALAP, SchedulePolicy::ASAP}) {
        for (int batch = 0; batch < 3; ++batch) {
          std::vector<char> taken(
              static_cast<std::size_t>(device.num_qubits()), 0);
          std::vector<PhysicalProgram> programs;
          const int want = 2 + static_cast<int>(rng.index(3));
          for (int p = 0; p < want; ++p) {
            const std::vector<int> region = test_programs::random_region(
                device, rng, 2 + static_cast<int>(rng.index(5)), taken);
            if (region.size() < 2) break;
            programs.push_back({test_programs::random_physical_circuit(
                                    device, rng, region,
                                    10 + static_cast<int>(rng.index(20))),
                                "p" + std::to_string(p)});
          }
          ExecOptions opts;
          opts.shots = 256;
          opts.schedule = policy;
          opts.seed = 31 + static_cast<std::uint64_t>(batch);
          const ParallelRunReport run =
              execute_parallel(device, programs, opts);
          h = fnv1a_mix(h, static_cast<std::uint64_t>(run.crosstalk_events));
          for (const ProgramOutcome& out : run.programs) {
            for (const auto& [outcome, prob] : out.distribution.probs()) {
              h = fnv1a_mix(h, outcome);
              h = fnv1a_mix(h, std::bit_cast<std::uint64_t>(prob));
            }
            for (const auto& [outcome, n] : out.counts.data()) {
              h = fnv1a_mix(h, outcome);
              h = fnv1a_mix(h, static_cast<std::uint64_t>(n));
            }
          }
        }
      }
    }
  }
  return h;
}

TEST(Executor, RandomBatchesMatchPinnedDigest) {
  // Recorded before the density sweeps skipped the entries of untouched
  // and settled qubits: the live-subspace sweeps must reproduce every
  // distribution bit and count. One digest per kernel mode, since the
  // scalar and AVX2 kernels round differently.
  struct NativeReset {
    bool was = kern::native_kernels_active();
    ~NativeReset() { kern::set_native_kernels(was); }
  } reset;
  kern::set_native_kernels(false);
  const std::uint64_t scalar = random_batches_digest();
  EXPECT_EQ(scalar, 0x6590ddd77bef3922ull) << std::hex << scalar;
  kern::set_native_kernels(true);
  if (reset.was) {
    const std::uint64_t native = random_batches_digest();
    EXPECT_EQ(native, 0xf759e7b042076caaull) << std::hex << native;
  }
}

TEST(Executor, ValidatesOptions) {
  const Device d = quiet_line(3);
  Circuit c = bell_on(0, 1, 3);
  ExecOptions opts;
  opts.shots = 0;
  EXPECT_THROW((void)execute_single(d, c, opts), std::invalid_argument);
  EXPECT_THROW((void)execute_parallel(d, {}, {}), std::invalid_argument);
}

}  // namespace
}  // namespace qucp
