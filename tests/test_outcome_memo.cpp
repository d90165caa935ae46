// Tests for the noisy executor's outcome memo (CompiledProgramCache::outcome,
// sim/fusion.hpp).
//
// A memo hit must equal a cacheless execute_parallel bit for bit, in the
// distribution and in the sampled counts. Every input of a program's
// simulation beyond its binding and the device — its ALAP shift and
// serialization delays, the crosstalk gamma of its CXs and the kernel
// variant — must force a miss when it changes, as must a new binding.
// Each executable entry holds at most kMaxOutcomeVariants outcomes, and
// concurrent executions may share one cache.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "hardware/device.hpp"
#include "quiet_device.hpp"
#include "random_programs.hpp"
#include "sim/executor.hpp"
#include "sim/fusion.hpp"
#include "sim/kernels.hpp"

namespace qucp {
namespace {

using test_programs::crosstalk_pair;
using test_programs::CrosstalkPair;
using test_programs::random_physical_circuit;
using test_programs::random_region;
using test_programs::rebind;

/// Restores the native-kernel switch when a test that toggles it ends.
struct NativeReset {
  ~NativeReset() { kern::set_native_kernels(true); }
};

void expect_same_report(const ParallelRunReport& got,
                        const ParallelRunReport& want) {
  ASSERT_EQ(got.programs.size(), want.programs.size());
  EXPECT_EQ(got.crosstalk_events, want.crosstalk_events);
  EXPECT_EQ(got.max_gamma_applied, want.max_gamma_applied);
  for (std::size_t p = 0; p < got.programs.size(); ++p) {
    const ProgramOutcome& a = got.programs[p];
    const ProgramOutcome& b = want.programs[p];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.distribution.num_bits(), b.distribution.num_bits());
    const auto& pa = a.distribution.probs();
    const auto& pb = b.distribution.probs();
    ASSERT_EQ(pa.size(), pb.size()) << a.name;
    for (std::size_t i = 0; i < pa.size(); ++i) {
      EXPECT_EQ(pa[i].first, pb[i].first) << a.name;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(pa[i].second),
                std::bit_cast<std::uint64_t>(pb[i].second))
          << a.name << " outcome " << pa[i].first;
    }
    EXPECT_EQ(a.counts.data(), b.counts.data()) << a.name;
  }
}

/// Runs batches through one cache and checks each against a cacheless run.
struct MemoHarness {
  const Device& device;
  CompiledProgramCache cache{device};
  ExecOptions options;

  /// Run `batch` through the cache; returns the outcome misses it took.
  std::uint64_t run(const std::vector<PhysicalProgram>& batch) {
    const std::uint64_t before = cache.outcome_builds();
    const ParallelRunReport got =
        execute_parallel(device, batch, options, &cache);
    const ParallelRunReport want = execute_parallel(device, batch, options);
    expect_same_report(got, want);
    return cache.outcome_builds() - before;
  }
};

/// Random batch of up to `programs` disjoint programs on `device`.
std::vector<PhysicalProgram> random_batch(const Device& device, Rng& rng,
                                          int programs) {
  std::vector<char> taken(static_cast<std::size_t>(device.num_qubits()), 0);
  std::vector<PhysicalProgram> batch;
  for (int i = 0; i < programs; ++i) {
    const std::vector<int> region =
        random_region(device, rng, 2 + static_cast<int>(rng.index(4)), taken);
    if (region.size() < 2) break;
    batch.push_back({random_physical_circuit(
                         device, rng, region,
                         10 + static_cast<int>(rng.index(30))),
                     "prog" + std::to_string(i)});
  }
  return batch;
}

TEST(OutcomeMemo, HitsEqualCachelessRunsOnRandomBatches) {
  NativeReset reset;
  Rng rng(1801);
  std::uint64_t total_hits = 0;
  for (const Device& device : {make_toronto27(), make_manhattan65()}) {
    for (const bool native : {false, true}) {
      kern::set_native_kernels(native);
      for (const SchedulePolicy policy :
           {SchedulePolicy::ALAP, SchedulePolicy::ASAP}) {
        for (const bool serialize : {false, true}) {
          MemoHarness h{device};
          h.options.schedule = policy;
          h.options.serialize_crosstalk = serialize;
          h.options.shots = 256;
          for (int trial = 0; trial < 3; ++trial) {
            const std::vector<PhysicalProgram> batch =
                random_batch(device, rng, 4);
            ASSERT_FALSE(batch.empty());
            EXPECT_EQ(h.run(batch), batch.size());
            // An exact repeat hits for every program.
            const std::uint64_t hits = h.cache.outcome_hits();
            EXPECT_EQ(h.run(batch), 0u);
            EXPECT_EQ(h.cache.outcome_hits() - hits, batch.size());
            // Dropping a co-runner may or may not move the rest; hit or
            // miss, every program must match the cacheless run.
            std::vector<PhysicalProgram> rest(batch.begin() + 1, batch.end());
            if (!rest.empty()) (void)h.run(rest);
          }
          total_hits += h.cache.outcome_hits();
        }
      }
    }
  }
  EXPECT_GT(total_hits, 0u);
}

double makespan(const Device& device, const Circuit& c) {
  return ExecutableStructure::build(c, device, SchedulePolicy::ALAP)
      .schedule()
      .makespan_ns;
}

/// A 1q-only program of `gates` X gates on `qubit`: no CX, so it changes
/// its co-runners' ALAP shift and nothing else.
Circuit idle_stretch(const Device& device, int qubit, int gates) {
  Circuit c(device.num_qubits(), 1);
  for (int i = 0; i < gates; ++i) c.x(qubit);
  c.measure(qubit, 0);
  return c;
}

/// A qubit at distance >= 3 from every qubit `c` touches.
int far_qubit(const Device& device, const Circuit& c) {
  const std::vector<int> active = c.active_qubits();
  for (int q = 0; q < device.num_qubits(); ++q) {
    bool far = true;
    for (int a : active) far = far && device.topology().distance(q, a) >= 3;
    if (far) return q;
  }
  throw std::logic_error("no far qubit");
}

TEST(OutcomeMemo, RaisedGammaForcesMiss) {
  const Device device = make_toronto27();
  const CrosstalkPair pair = crosstalk_pair(device, 3);
  ASSERT_GE(makespan(device, pair.a), makespan(device, pair.b));
  MemoHarness h{device};
  EXPECT_EQ(h.run({{pair.a, "a"}}), 1u);
  EXPECT_EQ(h.run({{pair.a, "a"}}), 0u);
  // Same shift (a is the longer program), but its CX is now amplified.
  const ParallelRunReport both =
      execute_parallel(device, {{pair.a, "a"}, {pair.b, "b"}}, h.options);
  ASSERT_GT(both.crosstalk_events, 0);
  EXPECT_EQ(h.run({{pair.a, "a"}, {pair.b, "b"}}), 2u);
  EXPECT_EQ(h.run({{pair.a, "a"}, {pair.b, "b"}}), 0u);
}

TEST(OutcomeMemo, ChangedAlapShiftForcesMiss) {
  const Device device = make_toronto27();
  const Circuit a = crosstalk_pair(device, 3).a;
  const Circuit stretch = idle_stretch(device, far_qubit(device, a), 40);
  ASSERT_GT(makespan(device, stretch), makespan(device, a));
  MemoHarness h{device};
  EXPECT_EQ(h.run({{a, "a"}}), 1u);
  const ParallelRunReport both =
      execute_parallel(device, {{a, "a"}, {stretch, "s"}}, h.options);
  ASSERT_EQ(both.crosstalk_events, 0);
  EXPECT_EQ(h.run({{a, "a"}, {stretch, "s"}}), 2u);
  EXPECT_EQ(h.run({{a, "a"}, {stretch, "s"}}), 0u);
  EXPECT_EQ(h.run({{a, "a"}}), 0u);
}

TEST(OutcomeMemo, SerializationDelayForcesMiss) {
  const Device device = make_toronto27();
  const CrosstalkPair pair = crosstalk_pair(device, 3);
  MemoHarness h{device};
  EXPECT_EQ(h.run({{pair.a, "a"}, {pair.b, "b"}}), 2u);
  // Serialization delays one of the two past the other.
  h.options.serialize_crosstalk = true;
  const ParallelRunReport serialized =
      execute_parallel(device, {{pair.a, "a"}, {pair.b, "b"}}, h.options);
  ASSERT_EQ(serialized.crosstalk_events, 0);
  // Without crosstalk gamma is 1 either way; only the delay tells the runs
  // apart.
  const Device quiet =
      test_devices::quiet_device(device, test_devices::kCrosstalkNoise);
  MemoHarness q{quiet};
  EXPECT_EQ(q.run({{pair.a, "a"}, {pair.b, "b"}}), 2u);
  q.options.serialize_crosstalk = true;
  EXPECT_GE(q.run({{pair.a, "a"}, {pair.b, "b"}}), 1u);
  EXPECT_EQ(q.run({{pair.a, "a"}, {pair.b, "b"}}), 0u);
}

TEST(OutcomeMemo, TogglingNativeKernelsForcesMiss) {
  NativeReset reset;
  kern::set_native_kernels(true);
  if (!kern::native_kernels_active()) {
    GTEST_SKIP() << "native kernels not available in this build";
  }
  const Device device = make_toronto27();
  Rng rng(44);
  const std::vector<PhysicalProgram> batch = random_batch(device, rng, 3);
  MemoHarness h{device};
  EXPECT_EQ(h.run(batch), batch.size());
  kern::set_native_kernels(false);
  EXPECT_EQ(h.run(batch), batch.size());
  EXPECT_EQ(h.run(batch), 0u);
  kern::set_native_kernels(true);
  EXPECT_EQ(h.run(batch), 0u);
}

TEST(OutcomeMemo, RebindingForcesMissAndClearsTheEntry) {
  const Device device = make_toronto27();
  Rng rng(7);
  std::vector<char> taken(static_cast<std::size_t>(device.num_qubits()), 0);
  const std::vector<int> region = random_region(device, rng, 4, taken);
  const Circuit first = random_physical_circuit(device, rng, region, 30);
  const Circuit second = rebind(first, rng);
  MemoHarness h{device};
  EXPECT_EQ(h.run({{first, "p"}}), 1u);
  EXPECT_EQ(h.run({{first, "p"}}), 0u);
  // Same structure, same key, new angles: the first binding's outcome
  // must not serve it.
  EXPECT_EQ(h.run({{second, "p"}}), 1u);
  EXPECT_EQ(h.run({{second, "p"}}), 0u);
  // Rebinding back cleared the second binding's outcomes and the first's
  // were already gone.
  EXPECT_EQ(h.run({{first, "p"}}), 1u);
  EXPECT_EQ(h.run({{second, "p"}}), 1u);
}

TEST(OutcomeMemo, EntryHoldsAtMostEightVariantsOldestOut) {
  static_assert(CompiledProgramCache::kMaxOutcomeVariants == 8);
  const Device device = make_toronto27();
  const Circuit a = crosstalk_pair(device, 3).a;
  const int far = far_qubit(device, a);
  // Ten co-runners of distinct lengths, each longer than `a`: ten shifts.
  std::vector<Circuit> stretches;
  for (int k = 0; k < 10; ++k) {
    stretches.push_back(idle_stretch(device, far, 40 + 4 * k));
  }
  ASSERT_GT(makespan(device, stretches.front()), makespan(device, a));
  MemoHarness h{device};
  auto run_with = [&](int k) {
    return h.run({{a, "a"}, {stretches[static_cast<std::size_t>(k)], "s"}});
  };
  // First sight: a and the stretch both miss.
  for (int k = 0; k < 10; ++k) EXPECT_EQ(run_with(k), 2u) << k;
  // Repeats: each stretch hits its own entry, so the count is a's alone.
  for (int k = 9; k >= 2; --k) EXPECT_EQ(run_with(k), 0u) << k;
  EXPECT_EQ(run_with(1), 1u);  // evicted by the ninth variant
  EXPECT_EQ(run_with(0), 1u);
  EXPECT_EQ(run_with(9), 0u);  // the newest eight survive the re-adds
  EXPECT_EQ(run_with(3), 1u);  // ...which evicted 2 and 3
  // A rebinding clears the entry.
  Circuit rebound = a;
  rebound.set_param(0, 0, 1.25);
  EXPECT_EQ(h.run({{rebound, "a"}, {stretches[9], "s"}}), 1u);
  EXPECT_EQ(run_with(9), 1u);
}

TEST(OutcomeMemo, FourThreadsShareOneCache) {
  const Device device = make_toronto27();
  Rng rng(404);
  std::vector<std::vector<PhysicalProgram>> batches;
  for (int i = 0; i < 6; ++i) batches.push_back(random_batch(device, rng, 3));
  // Sub-batches move their programs' shifts and gammas.
  for (int i = 0; i < 6; ++i) {
    batches.emplace_back(batches[static_cast<std::size_t>(i)].begin() + 1,
                         batches[static_cast<std::size_t>(i)].end());
  }
  ExecOptions options;
  options.shots = 128;
  options.kernel_threads = 1;
  std::vector<ParallelRunReport> want;
  for (const auto& batch : batches) {
    want.push_back(execute_parallel(device, batch, options));
  }
  const CompiledProgramCache cache(device);
  std::vector<std::vector<ParallelRunReport>> got(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        for (std::size_t i = 0; i < batches.size(); ++i) {
          const std::size_t b = (i + t * 3) % batches.size();
          got[t].push_back(
              execute_parallel(device, batches[b], options, &cache));
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (std::size_t t = 0; t < 4; ++t) {
    ASSERT_EQ(got[t].size(), 3 * batches.size());
    for (std::size_t r = 0; r < got[t].size(); ++r) {
      const std::size_t b = (r % batches.size() + t * 3) % batches.size();
      expect_same_report(got[t][r], want[b]);
    }
  }
  EXPECT_GT(cache.outcome_hits(), 0u);
}

TEST(OutcomeMemo, ExecutorRejectsDerivedNoiseOfAnotherDevice) {
  const Device device = make_line_device(3);
  Circuit c(3, 2);
  c.cx(0, 1);
  c.measure(0, 0);
  c.measure(1, 1);
  const DerivedNoise own = DerivedNoise::from(device);
  EXPECT_NO_THROW(
      (void)execute_parallel(device, {{c, "p"}}, ExecOptions{}, nullptr, &own));
  const DerivedNoise wider = DerivedNoise::from(make_line_device(4));
  EXPECT_THROW((void)execute_parallel(device, {{c, "p"}}, ExecOptions{},
                                      nullptr, &wider),
               std::invalid_argument);
  // Each table checked on its own.
  DerivedNoise bad = own;
  bad.q1_depol.pop_back();
  EXPECT_THROW((void)execute_parallel(device, {{c, "p"}}, ExecOptions{},
                                      nullptr, &bad),
               std::invalid_argument);
  bad = own;
  bad.cx_depol.push_back(0.0);
  EXPECT_THROW((void)execute_parallel(device, {{c, "p"}}, ExecOptions{},
                                      nullptr, &bad),
               std::invalid_argument);
  bad = own;
  bad.xtalk_begin.push_back(bad.xtalk_begin.back());
  EXPECT_THROW((void)execute_parallel(device, {{c, "p"}}, ExecOptions{},
                                      nullptr, &bad),
               std::invalid_argument);
}

}  // namespace
}  // namespace qucp
