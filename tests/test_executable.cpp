// Tests for the noisy executor's two-half executables (sim/fusion.hpp) and
// its partner-edge crosstalk scan (sim/executor.hpp).
//
// A structure built from one binding and materialized with another must
// equal the from-scratch pipeline for the second binding bit for bit:
// lowering, per-op kernels, schedule, time order, active qubits and CX
// edge ids. Angle-free ops replay the process-wide fixed_kernel() table,
// and a corpus replayed through it must give the distributions the
// per-structure kernels gave. The partner-edge scan must find exactly the
// pairs, counts and multipliers of the all-pairs scan it replaced, which
// is kept here as the reference.

#include "sim/fusion.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "circuit/decompose.hpp"
#include "common/rng.hpp"
#include "hardware/device.hpp"
#include "random_programs.hpp"
#include "reference_density.hpp"
#include "schedule/schedule.hpp"
#include "sim/executor.hpp"
#include "sim/kernels.hpp"

namespace qucp {
namespace {

using test_programs::random_physical_circuit;
using test_programs::random_region;
using test_programs::rebind;

/// From scratch: the structure of `physical` built against `device`, then
/// materialized with `physical`'s own angles.
CompiledExecutable compile_executable(
    const Circuit& physical, const Device& device,
    SchedulePolicy policy = SchedulePolicy::ALAP) {
  return CompiledExecutable::materialize(
      std::make_shared<const ExecutableStructure>(
          ExecutableStructure::build(physical, device, policy)),
      physical);
}

std::vector<Device> named_devices() {
  std::vector<Device> devices;
  devices.push_back(make_melbourne16());
  devices.push_back(make_toronto27());
  devices.push_back(make_manhattan65());
  return devices;
}

void expect_same_kernel(const kern::CompiledUnitary& a,
                        const kern::CompiledUnitary& b, std::size_t op) {
  EXPECT_EQ(a.tag, b.tag) << "op " << op;
  EXPECT_EQ(a.k, b.k) << "op " << op;
  EXPECT_EQ(std::memcmp(a.src, b.src, sizeof(a.src)), 0) << "op " << op;
  EXPECT_EQ(std::memcmp(a.re, b.re, sizeof(a.re)), 0) << "op " << op;
  EXPECT_EQ(std::memcmp(a.im, b.im, sizeof(a.im)), 0) << "op " << op;
}

void expect_same_channel(const FusedOp& a, const FusedOp& b, std::size_t op) {
  EXPECT_EQ(a.q[0], b.q[0]) << "op " << op;
  EXPECT_EQ(a.q[1], b.q[1]) << "op " << op;
  if (!a.is_unitary()) return;
  expect_same_kernel(a.sv, b.sv, op);
  expect_same_kernel(a.dm, b.dm, op);
}

/// `a` is an executable's channel for lowered gate `g`, `b` the per-op
/// compile of `g`. An angle-free gate replays the process-wide kernel of
/// its kind, whose operands come from `g` rather than the kernel; every
/// other channel carries its own operands.
void expect_same_replay(const FusedOp& a, const FusedOp& b, const Gate& g,
                        std::size_t op) {
  if (!g.params.empty() || !is_unitary_gate(g.kind)) {
    expect_same_channel(a, b, op);
    return;
  }
  EXPECT_EQ(&a, &fixed_kernel(g.kind)) << "op " << op;
  expect_same_kernel(a.sv, b.sv, op);
  expect_same_kernel(a.dm, b.dm, op);
}

TEST(ExecutableStructure, MaterializeMatchesFromScratchPipeline) {
  Rng rng(1601);
  for (const Device& device : named_devices()) {
    for (const SchedulePolicy policy :
         {SchedulePolicy::ALAP, SchedulePolicy::ASAP}) {
      for (int trial = 0; trial < 8; ++trial) {
        std::vector<char> taken(static_cast<std::size_t>(device.num_qubits()),
                                0);
        const std::vector<int> region = random_region(
            device, rng, 2 + static_cast<int>(rng.index(5)), taken);
        const Circuit first =
            random_physical_circuit(device, rng, region, 20 + 10 * trial);
        const Circuit second = rebind(first, rng);
        const auto structure = std::make_shared<const ExecutableStructure>(
            ExecutableStructure::build(first, device, policy));
        const CompiledExecutable bound =
            CompiledExecutable::materialize(structure, second);
        const CompiledExecutable fresh =
            compile_executable(second, device, policy);

        // The from-scratch pipeline for the second binding.
        const Circuit lowered = lower_to_cx_basis(second);
        const std::vector<FusedOp> channels = reference::compile_ops(lowered);
        const Schedule sched = schedule_circuit(lowered, device, policy);
        std::vector<std::uint32_t> order(lowered.size());
        for (std::size_t i = 0; i < order.size(); ++i) {
          order[i] = static_cast<std::uint32_t>(i);
        }
        std::stable_sort(order.begin(), order.end(),
                         [&](std::uint32_t x, std::uint32_t y) {
                           return sched.ops[x].start_ns < sched.ops[y].start_ns;
                         });

        ASSERT_TRUE(structure->coupled());
        EXPECT_EQ(structure->lowered().ops(), lower_to_cx_basis(first).ops());
        ASSERT_EQ(structure->lowered().size(), lowered.size());
        for (std::size_t i = 0; i < lowered.size(); ++i) {
          const Gate& g = lowered.ops()[i];
          expect_same_replay(bound.channel(i), channels[i], g, i);
          expect_same_replay(fresh.channel(i), channels[i], g, i);
          const int want_edge =
              g.kind == GateKind::CX
                  ? *device.topology().edge_index(g.qubits[0], g.qubits[1])
                  : -1;
          EXPECT_EQ(structure->cx_edges()[i], want_edge) << "op " << i;
          EXPECT_EQ(structure->schedule().ops[i].op_index,
                    sched.ops[i].op_index);
          EXPECT_EQ(structure->schedule().ops[i].start_ns,
                    sched.ops[i].start_ns);
          EXPECT_EQ(structure->schedule().ops[i].end_ns, sched.ops[i].end_ns);
        }
        EXPECT_EQ(structure->schedule().makespan_ns, sched.makespan_ns);
        EXPECT_EQ(structure->time_order(), order);
        EXPECT_EQ(structure->active_qubits(), lowered.active_qubits());
      }
    }
  }
}

TEST(ExecutableStructure, UncoupledProgramIsFlaggedUnscheduled) {
  const Device device = make_line_device(4);
  Circuit c(4, 2);
  c.cx(0, 2);
  c.measure(0, 0);
  c.measure(2, 1);
  const ExecutableStructure s =
      ExecutableStructure::build(c, device, SchedulePolicy::ALAP);
  EXPECT_FALSE(s.coupled());
  EXPECT_TRUE(s.schedule().ops.empty());
}

TEST(ExecutableStructure, MaterializeRejectsForeignStructure) {
  Circuit a(2, 2);
  a.rz(0.1, 0);
  a.measure_all();
  Circuit b = a;
  b.h(1);
  const Device device = make_line_device(2);
  const auto structure = std::make_shared<const ExecutableStructure>(
      ExecutableStructure::build(a, device, SchedulePolicy::ALAP));
  EXPECT_THROW((void)CompiledExecutable::materialize(structure, b),
               std::invalid_argument);
}

TEST(CompiledProgramCache, BindingsOfOneAnsatzShareOneStructure) {
  const Device device = make_toronto27();
  const CompiledProgramCache cache(device);
  Circuit ansatz(device.num_qubits(), 3);
  for (int layer = 0; layer < 3; ++layer) {
    for (int q : {0, 1, 2}) {
      ansatz.ry(0.1, q);
      ansatz.rz(0.2, q);
    }
    ansatz.cx(0, 1);
    ansatz.cx(1, 2);
  }
  for (int q : {0, 1, 2}) ansatz.measure(q, q);

  constexpr int kBindings = 8;
  Rng rng(88);
  std::vector<Circuit> bindings;
  std::vector<std::shared_ptr<const CompiledExecutable>> exes;
  for (int i = 0; i < kBindings; ++i) {
    bindings.push_back(rebind(ansatz, rng));
    exes.push_back(
        cache.executable(bindings.back(), circuit_fingerprints(bindings.back())));
  }
  EXPECT_EQ(cache.stats().executables.misses, 1u);  // one structure build
  EXPECT_EQ(cache.stats().executables.hits,
            static_cast<std::uint64_t>(kBindings - 1));
  EXPECT_EQ(cache.stats().executables.entries, 1u);
  EXPECT_EQ(cache.stats().fused.entries, 0u);
  for (const auto& exe : exes) {
    EXPECT_EQ(&exe->structure(), &exes.front()->structure());
  }
  // An exact repeat of the last binding is served as-is, no materialize.
  EXPECT_EQ(cache
                .executable(bindings.back(),
                            circuit_fingerprints(bindings.back()))
                .get(),
            exes.back().get());
  EXPECT_EQ(cache.stats().executables.hits,
            static_cast<std::uint64_t>(kBindings));
  // A later binding replays its own angles, not the first binding's.
  const CompiledExecutable ref = compile_executable(bindings.back(), device);
  for (std::size_t i = 0; i < ref.structure().lowered().size(); ++i) {
    expect_same_channel(exes.back()->channel(i), ref.channel(i), i);
  }
  // Fusion plan counters are untouched by executables.
  EXPECT_EQ(cache.plan_builds(), 0u);
  EXPECT_EQ(cache.plan_hits(), 0u);
  // The schedule policy is part of the key.
  (void)cache.executable(bindings.front(),
                        circuit_fingerprints(bindings.front()),
                        SchedulePolicy::ASAP);
  EXPECT_EQ(cache.stats().executables.misses, 2u);
}

TEST(CompiledProgramCache, ExecutorRejectsCacheOfAnotherDevice) {
  const Device device = make_line_device(3);
  const Device other = make_line_device(3);
  const CompiledProgramCache cache(other);
  Circuit c(3, 2);
  c.cx(0, 1);
  c.measure(0, 0);
  c.measure(1, 1);
  EXPECT_THROW(
      (void)execute_parallel(device, {{c, "p"}}, ExecOptions{}, &cache),
      std::invalid_argument);
}

/// FNV-1a over the exact noisy distribution (outcome and probability bits)
/// of every program of a corpus of random batches, replayed by
/// execute_parallel with gate noise and crosstalk on and the scalar
/// kernels. Also returns the crosstalk events the corpus triggered.
std::pair<std::uint64_t, std::uint64_t> corpus_distribution_hash() {
  const bool native = kern::native_kernels_active();
  kern::set_native_kernels(false);
  std::uint64_t h = kFnv1aBasis;
  std::uint64_t crosstalk_events = 0;
  Rng rng(4861);
  for (const Device& device : named_devices()) {
    const CompiledProgramCache cache(device);
    for (int batch = 0; batch < 6; ++batch) {
      std::vector<char> taken(static_cast<std::size_t>(device.num_qubits()),
                              0);
      std::vector<PhysicalProgram> programs;
      for (int p = 0; p < 3; ++p) {
        const std::vector<int> region = random_region(
            device, rng, 2 + static_cast<int>(rng.index(3)), taken);
        if (region.size() < 2) break;
        programs.push_back(
            {random_physical_circuit(device, rng, region, 24), "p"});
      }
      ExecOptions opts;
      opts.shots = 32;
      const ParallelRunReport run =
          execute_parallel(device, programs, opts, &cache);
      crosstalk_events += run.crosstalk_events;
      for (const ProgramOutcome& out : run.programs) {
        for (const auto& [outcome, p] : out.distribution.probs()) {
          h = fnv1a_mix(h, outcome);
          h = fnv1a_mix(h, std::bit_cast<std::uint64_t>(p));
        }
      }
    }
  }
  kern::set_native_kernels(native);
  return {h, crosstalk_events};
}

TEST(SharedKernels, CorpusReplayMatchesPerStructureKernels) {
  // Pinned from the per-structure kernels (each ExecutableStructure
  // compiling its own copy of every angle-free op) on the same corpus:
  // sharing one kernel per gate kind must not move a single bit.
  const auto [hash, crosstalk_events] = corpus_distribution_hash();
  EXPECT_GT(crosstalk_events, 0u);
  EXPECT_EQ(hash, 0xfe35c72a903f27b3ull);
}

TEST(SharedKernels, AngleFreeOpsShareOneKernelPerKind) {
  // 48 ops: 8 parametric rotations and 40 angle-free ones.
  Circuit c(4, 4);
  for (int layer = 0; layer < 4; ++layer) {
    for (int q = 0; q < 4; ++q) {
      c.h(q);
      c.sx(q);
    }
    c.cx(0, 1);
    c.cx(1, 2);
    c.ry(0.1 * (layer + 1), 3);
    c.rz(0.2 * (layer + 1), 0);
  }
  ASSERT_EQ(c.size(), 48u);
  Circuit other = c;
  other.x(2);  // a second structure
  for (int q = 0; q < 4; ++q) {
    c.measure(q, q);
    other.measure(q, q);
  }
  const Device device = make_line_device(4);
  const CompiledExecutable a = compile_executable(c, device);
  const CompiledExecutable b = compile_executable(other, device);
  std::size_t angle_free = 0;
  for (std::size_t i = 0; i < 48; ++i) {
    const Gate& g = a.structure().lowered().ops()[i];
    if (!g.params.empty()) {
      EXPECT_NE(&a.channel(i), &b.channel(i)) << "op " << i;
      continue;
    }
    ++angle_free;
    EXPECT_EQ(&a.channel(i), &fixed_kernel(g.kind)) << "op " << i;
    EXPECT_EQ(&a.channel(i), &b.channel(i)) << "op " << i;
    EXPECT_TRUE(a.channel(i).is_unitary()) << "op " << i;
  }
  EXPECT_EQ(angle_free, 40u);
  EXPECT_FALSE(a.channel(48).is_unitary());  // a measurement
  // The structure holds no kernel: it reports less than the 40 angle-free
  // kernels alone used to cost it.
  EXPECT_GE(a.structure().bytes(), a.structure().lowered().bytes());
  EXPECT_LT(a.structure().bytes(), 40 * sizeof(FusedOp));
  EXPECT_EQ(a.bytes(), sizeof(CompiledExecutable) + 8 * sizeof(FusedOp));
}

TEST(ExecutableStructure, SoloMakespanIsThePhysicalCircuitsMakespan) {
  // run_batch_pipeline models a program's solo runtime from the makespan
  // of its physical circuit. The structure's cached schedule times the
  // CX-lowered circuit instead, which agrees bit for bit only when
  // lowering changes nothing: a CZ gains two 1q gates and a SWAP's three
  // CX round their start times one at a time. So the structure also
  // records the physical circuit's own makespan, which must equal a fresh
  // schedule of it bit for bit.
  Rng rng(77);
  int lowered_differs = 0;
  for (const Device& device : named_devices()) {
    for (const SchedulePolicy policy :
         {SchedulePolicy::ALAP, SchedulePolicy::ASAP}) {
      for (int trial = 0; trial < 12; ++trial) {
        std::vector<char> taken(static_cast<std::size_t>(device.num_qubits()),
                                0);
        const std::vector<int> region = random_region(
            device, rng, 2 + static_cast<int>(rng.index(5)), taken);
        const Circuit c =
            random_physical_circuit(device, rng, region, 10 + trial);
        const double physical = schedule_circuit(c, device, policy).makespan_ns;
        const ExecutableStructure structure =
            ExecutableStructure::build(c, device, policy);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(structure.solo_makespan_ns()),
                  std::bit_cast<std::uint64_t>(physical));
        const double cached = structure.schedule().makespan_ns;
        const bool lowers = std::any_of(
            c.ops().begin(), c.ops().end(), [](const Gate& g) {
              return g.kind == GateKind::SWAP || g.kind == GateKind::CZ;
            });
        if (!lowers) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(cached),
                    std::bit_cast<std::uint64_t>(physical));
        }
        lowered_differs += cached != physical ? 1 : 0;
      }
    }
  }
  EXPECT_GT(lowered_differs, 0);
}

TEST(ExecutableStructure, ExecuteReportsEachProgramsSoloMakespan) {
  // execute_parallel hands each program its structure's solo makespan, the
  // figure run_batch_pipeline's runtime-reduction model reads.
  Rng rng(91);
  for (const Device& device : named_devices()) {
    const CompiledProgramCache cache(device);
    for (const SchedulePolicy policy :
         {SchedulePolicy::ALAP, SchedulePolicy::ASAP}) {
      std::vector<char> taken(static_cast<std::size_t>(device.num_qubits()),
                              0);
      std::vector<PhysicalProgram> programs;
      for (int p = 0; p < 3; ++p) {
        const std::vector<int> region = random_region(device, rng, 3, taken);
        programs.push_back(
            {random_physical_circuit(device, rng, region, 12 + 4 * p), "p"});
      }
      ExecOptions opts;
      opts.shots = 8;
      opts.schedule = policy;
      const ParallelRunReport run =
          execute_parallel(device, programs, opts, &cache);
      ASSERT_EQ(run.programs.size(), programs.size());
      for (std::size_t p = 0; p < programs.size(); ++p) {
        const double want =
            schedule_circuit(programs[p].circuit, device, policy).makespan_ns;
        const double got = run.programs[p].solo_makespan_ns;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
                  std::bit_cast<std::uint64_t>(want));
      }
    }
  }
}

/// The all-pairs scan the partner-edge lists replaced.
detail::CrosstalkTally reference_scan(std::vector<detail::CxEvent>& events,
                                      const CrosstalkModel& xtalk) {
  detail::CrosstalkTally tally;
  for (std::size_t i = 0; i < events.size(); ++i) {
    for (std::size_t j = i + 1; j < events.size(); ++j) {
      detail::CxEvent& a = events[i];
      detail::CxEvent& b = events[j];
      if (a.edge == b.edge) continue;
      if (!intervals_overlap(a.start_ns, a.end_ns, b.start_ns, b.end_ns)) {
        continue;
      }
      const double g = xtalk.gamma(a.edge, b.edge);
      if (g > 1.0) {
        a.gamma = std::max(a.gamma, g);
        b.gamma = std::max(b.gamma, g);
        ++tally.events;
        tally.max_gamma = std::max(tally.max_gamma, g);
      }
    }
  }
  return tally;
}

TEST(Crosstalk, PartnerScanMatchesAllPairsReference) {
  Rng rng(2718);
  int amplified_batches = 0;
  std::vector<Device> devices;
  devices.push_back(make_toronto27());
  devices.push_back(make_manhattan65());
  for (const Device& device : devices) {
    const DerivedNoise derived = DerivedNoise::from(device);
    for (int trial = 0; trial < 25; ++trial) {
      // A batch of CX-dense programs on disjoint regions, ALAP-aligned to
      // a common end time exactly as the executor aligns them.
      std::vector<char> taken(static_cast<std::size_t>(device.num_qubits()), 0);
      std::vector<PhysicalProgram> programs;
      const int count = 2 + static_cast<int>(rng.index(6));
      for (int p = 0; p < count; ++p) {
        const std::vector<int> region = random_region(
            device, rng, 2 + static_cast<int>(rng.index(4)), taken);
        if (region.size() < 2) break;
        programs.push_back(
            {random_physical_circuit(device, rng, region, 40),
             "p" + std::to_string(p)});
      }
      std::vector<CompiledExecutable> exes;
      double makespan = 0.0;
      for (const PhysicalProgram& prog : programs) {
        exes.push_back(compile_executable(prog.circuit, device));
        makespan =
            std::max(makespan, exes.back().structure().schedule().makespan_ns);
      }
      std::vector<detail::CxEvent> events;
      for (std::size_t p = 0; p < exes.size(); ++p) {
        const ExecutableStructure& s = exes[p].structure();
        const double shift = makespan - s.schedule().makespan_ns;
        for (std::size_t i = 0; i < s.cx_edges().size(); ++i) {
          if (s.cx_edges()[i] < 0) continue;
          events.push_back({p, i, s.cx_edges()[i],
                            s.schedule().ops[i].start_ns + shift,
                            s.schedule().ops[i].end_ns + shift, 1.0});
        }
      }
      std::vector<detail::CxEvent> want = events;
      const detail::CrosstalkTally ref =
          reference_scan(want, device.crosstalk_ground_truth());
      const detail::CrosstalkTally got =
          detail::amplify_crosstalk(events, derived);
      EXPECT_EQ(got.events, ref.events);
      EXPECT_EQ(got.max_gamma, ref.max_gamma);
      for (std::size_t e = 0; e < events.size(); ++e) {
        EXPECT_EQ(events[e].gamma, want[e].gamma) << "event " << e;
      }
      // The executor reports the same tally for the same batch.
      ExecOptions opts;
      opts.shots = 16;
      const ParallelRunReport report =
          execute_parallel(device, programs, opts, nullptr, &derived);
      EXPECT_EQ(report.crosstalk_events, ref.events);
      EXPECT_EQ(report.max_gamma_applied, ref.max_gamma);
      if (ref.events > 0) ++amplified_batches;
    }
  }
  // The batches must actually exercise amplification.
  EXPECT_GT(amplified_batches, 5);
}

}  // namespace
}  // namespace qucp
