// Golden suite for the program-fusion layer (sim/fusion.hpp).
//
// Fused replay must agree with gate-by-gate replay to <= 1e-10 on both the
// statevector (ideal_distribution) and density-matrix pipelines, over
// randomized circuits shaped for every bundled topology. The executor's
// per-op compiled channels must be BIT-identical to the uncompiled
// apply_unitary path (the compilation only hoists work, it must not change
// a single rounding), which in turn pins the sample_counts RNG streams.
// Structural tests assert fusion never merges across barriers or
// measurements.

#include "sim/fusion.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "benchmarks/suite.hpp"
#include "circuit/gate_cache.hpp"
#include "common/rng.hpp"
#include "hardware/device.hpp"
#include "service/backend.hpp"
#include "sim/density.hpp"
#include "sim/executor.hpp"
#include "sim/statevector.hpp"

namespace qucp {
namespace {

constexpr double kTol = 1e-10;

std::vector<Device> bundled_devices() {
  std::vector<Device> devices;
  devices.push_back(make_melbourne16());
  devices.push_back(make_toronto27());
  devices.push_back(make_manhattan65());
  devices.push_back(make_line_device(9));
  devices.push_back(make_grid_device(4, 5));
  return devices;
}

double dist_diff(const Distribution& a, const Distribution& b) {
  double worst = 0.0;
  for (const auto& [k, p] : a.probs()) {
    worst = std::max(worst, std::abs(p - b.prob(k)));
  }
  for (const auto& [k, p] : b.probs()) {
    worst = std::max(worst, std::abs(p - a.prob(k)));
  }
  return worst;
}

double state_diff(std::span<const cx> a, std::span<const cx> b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

/// Gate-by-gate density replay of a circuit's unitary stream.
DensityMatrix density_reference(const Circuit& c) {
  DensityMatrix dm(c.num_qubits());
  for (const Gate& g : c.ops()) {
    if (g.kind == GateKind::Barrier || g.kind == GateKind::Measure) continue;
    dm.apply_unitary(gate_matrix(g), g.qubits);
  }
  return dm;
}

void expect_fused_matches_unfused(const Circuit& c, const char* label) {
  const CompiledProgram prog = CompiledProgram::compile(c);
  if (c.has_measurements()) {
    EXPECT_LT(dist_diff(ideal_distribution(prog), ideal_distribution(c)), kTol)
        << label;
  }
  if (c.num_qubits() <= 6) {
    DensityMatrix fused(c.num_qubits());
    fused.run(prog);
    EXPECT_LT(state_diff(fused.data(), density_reference(c).data()), kTol)
        << label;
  }
}

Gate random_1q_gate(Rng& rng, int qubit) {
  static const GateKind kinds[] = {GateKind::H,  GateKind::X,  GateKind::Y,
                                   GateKind::Z,  GateKind::S,  GateKind::T,
                                   GateKind::SX, GateKind::RX, GateKind::RY,
                                   GateKind::RZ, GateKind::U2, GateKind::U3};
  Gate g;
  g.kind = kinds[rng.index(std::size(kinds))];
  g.qubits = {qubit};
  for (int i = 0; i < gate_param_count(g.kind); ++i) {
    g.params.push_back(rng.uniform(-3.0, 3.0));
  }
  return g;
}

/// Grow a random connected region of `want` qubits on the device topology.
std::vector<int> random_region(const Device& device, Rng& rng, int want) {
  const Topology& topo = device.topology();
  std::vector<int> region{
      static_cast<int>(rng.index(static_cast<std::size_t>(device.num_qubits())))};
  while (static_cast<int>(region.size()) < want) {
    std::vector<int> frontier;
    for (const Edge& e : topo.edges()) {
      const bool has_a = std::count(region.begin(), region.end(), e.a) > 0;
      const bool has_b = std::count(region.begin(), region.end(), e.b) > 0;
      if (has_a != has_b) frontier.push_back(has_a ? e.b : e.a);
    }
    if (frontier.empty()) break;
    region.push_back(frontier[rng.index(frontier.size())]);
  }
  return region;
}

/// A randomized physical circuit on a connected region: parameterized
/// rotations, CX/SWAP-heavy stretches, occasional barriers and mid-circuit
/// measurements, measurement-suffixed.
Circuit random_physical_circuit(const Device& device, Rng& rng, int region_size,
                                int steps) {
  const std::vector<int> region = random_region(device, rng, region_size);
  std::vector<std::pair<int, int>> pairs;
  for (const Edge& e : device.topology().edges()) {
    if (std::count(region.begin(), region.end(), e.a) > 0 &&
        std::count(region.begin(), region.end(), e.b) > 0) {
      pairs.emplace_back(e.a, e.b);
    }
  }
  Circuit c(device.num_qubits(), static_cast<int>(region.size()));
  int next_clbit = 0;
  for (int s = 0; s < steps; ++s) {
    const double roll = rng.uniform(0.0, 1.0);
    if (!pairs.empty() && roll < 0.45) {
      auto [a, b] = pairs[rng.index(pairs.size())];
      if (rng.bernoulli(0.5)) std::swap(a, b);
      const double kind = rng.uniform(0.0, 1.0);
      if (kind < 0.6) {
        c.cx(a, b);
      } else if (kind < 0.8) {
        c.cz(a, b);
      } else {
        c.swap(a, b);
      }
    } else if (roll < 0.9) {
      c.append(random_1q_gate(rng, region[rng.index(region.size())]));
    } else if (roll < 0.95) {
      c.barrier(region);  // region-scoped, like transpiled programs emit
    } else if (next_clbit < static_cast<int>(region.size())) {
      // Mid-circuit measurement: fusion must not merge across it.
      c.measure(region[static_cast<std::size_t>(next_clbit)], next_clbit);
      ++next_clbit;
    }
  }
  for (; next_clbit < static_cast<int>(region.size()); ++next_clbit) {
    c.measure(region[static_cast<std::size_t>(next_clbit)], next_clbit);
  }
  return c;
}

TEST(FusionGolden, SuiteCircuitsMatchUnfused) {
  for (const BenchmarkSpec& spec : benchmark_suite()) {
    expect_fused_matches_unfused(spec.circuit, spec.short_name.c_str());
    expect_fused_matches_unfused(spec.circuit.compacted(),
                                 spec.short_name.c_str());
  }
}

TEST(FusionGolden, RandomizedCircuitsOnAllTopologies) {
  std::uint64_t seed = 9000;
  for (const Device& device : bundled_devices()) {
    for (int trial = 0; trial < 6; ++trial) {
      Rng rng(seed++);
      const int region = 2 + static_cast<int>(rng.index(4));  // 2..5 qubits
      const Circuit c =
          random_physical_circuit(device, rng, region, 30 + trial * 10);
      // Device-width replay where the state fits (manhattan65 exceeds the
      // statevector's cap), compacted replay always — the latter is the
      // stream the executor's partition simulation sees.
      if (device.num_qubits() <= 20) {
        expect_fused_matches_unfused(c, device.name().c_str());
      }
      expect_fused_matches_unfused(c.compacted(), device.name().c_str());
    }
  }
}

TEST(FusionGolden, ExecutorDistributionsAndCountsBitIdenticalWithCache) {
  // The noisy pipeline must not change at all under program compilation:
  // a Backend execution (gate + program caches) and a cache-free
  // execute_parallel must produce identical distributions and identical
  // sampled counts (same RNG stream, same bucket per draw).
  std::uint64_t seed = 500;
  for (const Device& device : bundled_devices()) {
    Backend backend(device);
    const auto epoch = backend.epoch();
    Rng rng(seed++);
    const Circuit c = random_physical_circuit(device, rng, 4, 40);
    ExecOptions opts;
    opts.shots = 256;
    std::vector<PhysicalProgram> progs;
    progs.push_back({c, "golden"});
    const ParallelRunReport direct =
        execute_parallel(device, progs, opts);
    const ParallelRunReport cached = epoch->execute(progs, opts);
    // Twice through the backend: the second run replays cached programs.
    const ParallelRunReport cached2 = epoch->execute(progs, opts);
    ASSERT_EQ(direct.programs.size(), 1u);
    for (const ParallelRunReport* run : {&cached, &cached2}) {
      EXPECT_EQ(direct.programs[0].distribution.probs(),
                run->programs[0].distribution.probs());
      EXPECT_EQ(direct.programs[0].counts.data(),
                run->programs[0].counts.data());
    }
  }
}

/// `device` with every gate error zeroed (readout error, coherence times,
/// durations and crosstalk ground truth kept): the executor's noisy per-op
/// walk on it applies exactly the unitary evolution of a noiseless run.
Device zero_gate_error_copy(const Device& device) {
  Calibration cal = device.calibration();
  std::fill(cal.q1_error.begin(), cal.q1_error.end(), 0.0);
  std::fill(cal.cx_error.begin(), cal.cx_error.end(), 0.0);
  return Device(device.name(), device.topology(), std::move(cal),
                device.crosstalk_ground_truth());
}

TEST(FusionGolden, NoiselessExecutorFusedStreamMatchesPerOpReplay) {
  // With gate_noise and idle_noise both off, the executor consumes the
  // fused CompiledProgram stream instead of replaying per-op channels.
  // The reference is the per-op walk itself — the noisy path, with gate
  // noise on against a zero-gate-error copy of the calibration and idle
  // noise off. The distributions must agree to <= 1e-10 on every bundled
  // topology — through the epoch caches and without them, readout noise
  // on and off — and the schedule-derived reporting must not move at all.
  std::uint64_t seed = 1300;
  for (const Device& device : bundled_devices()) {
    Backend backend(device);
    const auto epoch = backend.epoch();
    const Device zero_error = zero_gate_error_copy(device);
    Rng rng(seed++);
    const Circuit c = random_physical_circuit(device, rng, 4, 40);
    std::vector<PhysicalProgram> progs;
    progs.push_back({c, "noiseless"});
    for (const bool readout : {true, false}) {
      ExecOptions fused_opts;
      fused_opts.shots = 128;
      fused_opts.gate_noise = false;
      fused_opts.idle_noise = false;
      fused_opts.readout_noise = readout;
      ExecOptions per_op_opts = fused_opts;
      per_op_opts.gate_noise = true;
      // Twice through the epoch: the second run replays the cached fused
      // program. A third run goes through no cache at all.
      const ParallelRunReport fused = epoch->execute(progs, fused_opts);
      const ParallelRunReport fused2 = epoch->execute(progs, fused_opts);
      const ParallelRunReport uncached =
          execute_parallel(device, progs, fused_opts);
      const ParallelRunReport per_op =
          execute_parallel(zero_error, progs, per_op_opts);
      for (const ParallelRunReport* run : {&fused, &fused2, &uncached}) {
        EXPECT_LT(dist_diff(run->programs[0].distribution,
                            per_op.programs[0].distribution),
                  kTol)
            << device.name() << " readout=" << readout;
        EXPECT_DOUBLE_EQ(run->makespan_ns, per_op.makespan_ns)
            << device.name();
        EXPECT_EQ(run->crosstalk_events, per_op.crosstalk_events)
            << device.name();
      }
      EXPECT_EQ(fused.programs[0].counts.total(), 128);
    }
  }
}

TEST(FusionGolden, CompiledChannelBitIdenticalToApplyUnitary) {
  // apply_compiled must be the same arithmetic as apply_unitary — the
  // superket compilation is hoisted, not altered — so the executor's
  // switch to compiled channels cannot move a single bit.
  Rng rng(77);
  for (int n = 1; n <= 4; ++n) {
    DensityMatrix a(n);
    DensityMatrix b(n);
    for (int q = 0; q < n; ++q) {
      const Gate g = random_1q_gate(rng, q);
      a.apply_unitary(gate_matrix(g), g.qubits);
      b.apply_unitary(gate_matrix(g), g.qubits);
    }
    Circuit c(n);
    for (int step = 0; step < 12; ++step) {
      if (n >= 2 && rng.bernoulli(0.5)) {
        const int x = static_cast<int>(rng.index(static_cast<std::size_t>(n)));
        int y = static_cast<int>(rng.index(static_cast<std::size_t>(n) - 1));
        if (y >= x) ++y;
        if (rng.bernoulli(0.5)) c.cx(x, y); else c.cz(x, y);
      } else {
        c.append(random_1q_gate(
            rng, static_cast<int>(rng.index(static_cast<std::size_t>(n)))));
      }
    }
    const std::vector<FusedOp> channels = compile_ops(c);
    for (std::size_t i = 0; i < c.size(); ++i) {
      const Gate& g = c.ops()[i];
      a.apply_unitary(gate_matrix(g), g.qubits);
      b.apply_compiled(channels[i], g.qubits);
    }
    for (std::size_t i = 0; i < a.data().size(); ++i) {
      EXPECT_EQ(a.data()[i].real(), b.data()[i].real()) << "n=" << n;
      EXPECT_EQ(a.data()[i].imag(), b.data()[i].imag()) << "n=" << n;
    }
  }
}

TEST(FusionStructure, NeverFusesAcrossMeasurement) {
  Circuit with_measure(1, 1);
  with_measure.x(0);
  with_measure.measure(0, 0);
  with_measure.x(0);
  // X . X would fuse to identity; the measurement must keep them apart.
  EXPECT_EQ(CompiledProgram::compile(with_measure).ops().size(), 2u);

  Circuit without(1, 1);
  without.x(0);
  without.x(0);
  without.measure(0, 0);
  EXPECT_EQ(CompiledProgram::compile(without).ops().size(), 1u);
}

TEST(FusionStructure, NeverFusesAcrossBarrier) {
  Circuit c(2);
  c.rz(0.4, 0);
  c.barrier();
  c.rz(0.3, 0);
  EXPECT_EQ(CompiledProgram::compile(c).ops().size(), 2u);

  Circuit c2(2);
  c2.cx(0, 1);
  c2.barrier();
  c2.cx(0, 1);
  EXPECT_EQ(CompiledProgram::compile(c2).ops().size(), 2u);

  // A subset barrier only fences its own qubits.
  Circuit c3(3);
  c3.rz(0.4, 0);
  c3.rz(0.5, 2);
  c3.barrier({1});
  c3.rz(0.3, 0);
  c3.rz(0.6, 2);
  EXPECT_EQ(CompiledProgram::compile(c3).ops().size(), 2u);
}

TEST(FusionStructure, RunsCollapseAndReclassify) {
  using Tag = kern::CompiledUnitary::Tag;
  // An RZ ladder fuses to one op that re-classifies as diagonal.
  Circuit rz(1);
  rz.rz(0.2, 0);
  rz.rz(0.4, 0);
  rz.t(0);
  rz.s(0);
  const CompiledProgram przs = CompiledProgram::compile(rz);
  ASSERT_EQ(przs.ops().size(), 1u);
  EXPECT_EQ(przs.ops()[0].sv.tag, Tag::kDiag1);

  // CX . CX collapses to the (diagonal) identity 4x4.
  Circuit cxcx(2);
  cxcx.cx(0, 1);
  cxcx.cx(0, 1);
  const CompiledProgram pcx = CompiledProgram::compile(cxcx);
  ASSERT_EQ(pcx.ops().size(), 1u);
  EXPECT_EQ(pcx.ops()[0].sv.tag, Tag::kDiag2);

  // 1q gates on both operands absorb into the 2q gate's 4x4, and a
  // reversed-operand CX merges into the same block.
  Circuit absorb(2);
  absorb.h(0);
  absorb.cx(0, 1);
  absorb.h(1);
  absorb.cx(1, 0);
  absorb.ry(0.3, 0);
  const CompiledProgram pa = CompiledProgram::compile(absorb);
  EXPECT_EQ(pa.ops().size(), 1u);
  EXPECT_EQ(pa.source_gate_count(), 5u);
  // Equivalence of the merged block.
  Statevector fused_sv(2);
  fused_sv.run(pa);
  Statevector ref(2);
  ref.apply_circuit(absorb);
  EXPECT_LT(state_diff(fused_sv.amplitudes(), ref.amplitudes()), kTol);
}

TEST(FusionStructure, MeasurementsKeepProgramOrderAndClbits) {
  Circuit c(3, 3);
  c.h(0);
  c.cx(0, 1);
  c.measure(1, 2);
  c.x(2);
  c.measure(2, 0);
  c.measure(0, 1);
  const CompiledProgram prog = CompiledProgram::compile(c);
  const std::vector<std::pair<int, int>> want{{1, 2}, {2, 0}, {0, 1}};
  EXPECT_EQ(prog.measurements(), want);
  EXPECT_LT(dist_diff(ideal_distribution(prog), ideal_distribution(c)), kTol);
}

TEST(CompiledProgramCache, MemoizesByFingerprint) {
  CompiledProgramCache cache;
  Circuit c(2, 2);
  c.h(0);
  c.cx(0, 1);
  c.measure_all();
  const auto first = cache.fused(c);
  const auto second = cache.fused(c);
  EXPECT_EQ(first.get(), second.get());
  Circuit renamed = c;
  renamed.set_name("other-name");
  // The fingerprint ignores names, so a rename hits the same entry.
  EXPECT_EQ(cache.fused(renamed).get(), first.get());
  const auto exe1 = cache.executable(c);
  const auto exe2 = cache.executable(c);
  EXPECT_EQ(exe1.get(), exe2.get());
  EXPECT_EQ(cache.entries(), 2u);
}

TEST(NativeKernels, ScalarAndNativeDenseKernelsAgree) {
  if (!kern::native_kernels_active()) {
    GTEST_SKIP() << "native kernels not compiled/supported on this machine";
  }
  // Dense-heavy fused circuits: 1q rotation ladders (dense1) and absorbed
  // 2q blocks (dense2), replayed with dispatch off and on.
  struct NativeReset {
    ~NativeReset() { kern::set_native_kernels(true); }
  } reset;
  Rng rng(4242);
  for (int n = 2; n <= 6; ++n) {
    Circuit c(n);
    for (int step = 0; step < 24; ++step) {
      if (n >= 2 && rng.bernoulli(0.35)) {
        const int x = static_cast<int>(rng.index(static_cast<std::size_t>(n)));
        int y = static_cast<int>(rng.index(static_cast<std::size_t>(n) - 1));
        if (y >= x) ++y;
        c.cx(x, y);
      }
      c.append(random_1q_gate(
          rng, static_cast<int>(rng.index(static_cast<std::size_t>(n)))));
    }
    const CompiledProgram prog = CompiledProgram::compile(c);
    kern::set_native_kernels(false);
    Statevector scalar_sv(n);
    scalar_sv.run(prog);
    DensityMatrix scalar_dm(n);
    scalar_dm.run(prog);
    kern::set_native_kernels(true);
    Statevector native_sv(n);
    native_sv.run(prog);
    DensityMatrix native_dm(n);
    native_dm.run(prog);
    EXPECT_LT(state_diff(scalar_sv.amplitudes(), native_sv.amplitudes()), kTol)
        << "n=" << n;
    EXPECT_LT(state_diff(scalar_dm.data(), native_dm.data()), kTol)
        << "n=" << n;
  }
}

TEST(NativeKernels, ScalarAndNativeDiagPermKernelsAgree) {
  if (!kern::native_kernels_active()) {
    GTEST_SKIP() << "native kernels not compiled/supported on this machine";
  }
  // Monomial-heavy fused circuits: CZ + diagonal 1q gates fuse into kDiag2
  // blocks, CX + diagonal 1q gates into kPerm2 blocks (products of monomial
  // matrices stay monomial). The Hadamard layer spreads amplitude across
  // the whole register so every quad carries signal; the barrier keeps it
  // out of the monomial tail so the fused 2q ops stay diag/perm, not dense.
  struct NativeReset {
    ~NativeReset() { kern::set_native_kernels(true); }
  } reset;
  static const GateKind diag_kinds[] = {GateKind::Z,  GateKind::S,
                                        GateKind::Sdg, GateKind::T,
                                        GateKind::Tdg, GateKind::RZ,
                                        GateKind::U1};
  Rng rng(7117);
  for (int n = 2; n <= 6; ++n) {
    for (const GateKind twoq : {GateKind::CZ, GateKind::CX}) {
      Circuit c(n);
      for (int q = 0; q < n; ++q) c.h(q);
      c.barrier();
      for (int step = 0; step < 24; ++step) {
        if (step % 2 == 0) {
          const int x = static_cast<int>(rng.index(static_cast<std::size_t>(n)));
          int y = static_cast<int>(rng.index(static_cast<std::size_t>(n) - 1));
          if (y >= x) ++y;
          if (twoq == GateKind::CZ) {
            c.cz(x, y);
          } else {
            c.cx(x, y);
          }
        }
        Gate g;
        g.kind = diag_kinds[rng.index(std::size(diag_kinds))];
        g.qubits = {static_cast<int>(rng.index(static_cast<std::size_t>(n)))};
        for (int i = 0; i < gate_param_count(g.kind); ++i) {
          g.params.push_back(rng.uniform(-3.0, 3.0));
        }
        c.append(g);
      }
      const CompiledProgram prog = CompiledProgram::compile(c);
      kern::set_native_kernels(false);
      Statevector scalar_sv(n);
      scalar_sv.run(prog);
      DensityMatrix scalar_dm(n);
      scalar_dm.run(prog);
      kern::set_native_kernels(true);
      Statevector native_sv(n);
      native_sv.run(prog);
      DensityMatrix native_dm(n);
      native_dm.run(prog);
      EXPECT_LT(state_diff(scalar_sv.amplitudes(), native_sv.amplitudes()),
                kTol)
          << "n=" << n << " twoq=" << static_cast<int>(twoq);
      EXPECT_LT(state_diff(scalar_dm.data(), native_dm.data()), kTol)
          << "n=" << n << " twoq=" << static_cast<int>(twoq);
    }
  }
}

TEST(NativeKernels, ScalarAndNativeChannelKernelsAgree) {
  if (!kern::native_kernels_active()) {
    GTEST_SKIP() << "native kernels not compiled/supported on this machine";
  }
  // Noise-channel superket passes (depolarizing 1q/2q, thermal
  // relaxation): the AVX2 bodies pre-fold c2 * inv_ldim into one
  // fill_scale, so agreement is pinned at <= 1e-10 rather than bitwise.
  // Qubit 0 operands exercise the packed-lane (pc == 0) code paths; higher
  // qubits the full-width two-quad bodies.
  struct NativeReset {
    ~NativeReset() { kern::set_native_kernels(true); }
  } reset;
  Rng rng(9911);
  for (int n = 2; n <= 6; ++n) {
    Circuit c(n);
    for (int step = 0; step < 20; ++step) {
      c.append(random_1q_gate(
          rng, static_cast<int>(rng.index(static_cast<std::size_t>(n)))));
      if (rng.bernoulli(0.3)) {
        const int x = static_cast<int>(rng.index(static_cast<std::size_t>(n)));
        int y = static_cast<int>(rng.index(static_cast<std::size_t>(n) - 1));
        if (y >= x) ++y;
        c.cx(x, y);
      }
    }
    const CompiledProgram prog = CompiledProgram::compile(c);
    const auto run_channels = [&](bool native) {
      kern::set_native_kernels(native);
      DensityMatrix dm(n);
      dm.run(prog);  // non-trivial state so every superket element matters
      for (int q = 0; q < n; ++q) {
        const int one[] = {q};
        dm.apply_depolarizing(0.015 + 0.004 * q, one);
        dm.apply_relaxation(q, 120.0 + 15.0 * q, 85.0, 70.0);
      }
      for (int q = 0; q + 1 < n; ++q) {
        const int two[] = {q, q + 1};
        dm.apply_depolarizing(0.02, two);
      }
      std::vector<cx> snapshot(dm.data().begin(), dm.data().end());
      return snapshot;
    };
    const std::vector<cx> scalar = run_channels(false);
    const std::vector<cx> native = run_channels(true);
    EXPECT_LT(state_diff(scalar, native), kTol) << "n=" << n;
  }
}

TEST(NativeKernels, ScalarAndNativeMaterializeAgree) {
  if (!kern::native_kernels_active()) {
    GTEST_SKIP() << "native kernels not compiled/supported on this machine";
  }
  // FusionPlan::materialize's per-angle product chain (mul4 / lift1+mul4 /
  // operand-reorder+mul4 / absorb) dispatches to AVX2 FMA kernels when
  // native kernels are active. FMA contraction reassociates the complex
  // products, so agreement is pinned at <= 1e-10 rather than bitwise —
  // and a cancellation that lands on an exact 0.0 in scalar arithmetic
  // can leave ~1e-17 residue under FMA, flipping compile_unitary's
  // exact-zero monomial classification to dense (always correct, just a
  // different encoding). Compare the *decoded* matrices, not the raw
  // per-tag coefficient layouts. compile() shares the same dispatch, so
  // compile == materialize stays exact on either path (pinned in
  // test_parametric.cpp).
  struct NativeReset {
    ~NativeReset() { kern::set_native_kernels(true); }
  } reset;
  const auto decode = [](const kern::CompiledUnitary& cu) {
    const int dim = cu.k == 1 ? 2 : 4;
    std::vector<cx> m(static_cast<std::size_t>(dim * dim), cx{0.0, 0.0});
    using Tag = kern::CompiledUnitary::Tag;
    switch (cu.tag) {
      case Tag::kDiag1:
        for (int r = 0; r < 2; ++r) m[3 * r] = cx{cu.re[r], cu.im[r]};
        break;
      case Tag::kAnti1:
        for (int r = 0; r < 2; ++r) m[2 * r + (1 - r)] = cx{cu.re[r], cu.im[r]};
        break;
      case Tag::kDense1:
        for (int i = 0; i < 4; ++i) m[i] = cx{cu.re[i], cu.im[i]};
        break;
      case Tag::kCxPerm: {
        static constexpr int src[4] = {0, 1, 3, 2};
        for (int r = 0; r < 4; ++r) m[4 * r + src[r]] = cx{1.0, 0.0};
        break;
      }
      case Tag::kSwapPerm: {
        static constexpr int src[4] = {0, 2, 1, 3};
        for (int r = 0; r < 4; ++r) m[4 * r + src[r]] = cx{1.0, 0.0};
        break;
      }
      case Tag::kDiag2:
        for (int r = 0; r < 4; ++r) m[5 * r] = cx{cu.re[r], cu.im[r]};
        break;
      case Tag::kPerm2:
        for (int r = 0; r < 4; ++r) m[4 * r + cu.src[r]] = cx{cu.re[r], cu.im[r]};
        break;
      case Tag::kDense2:
        for (int i = 0; i < 16; ++i) m[i] = cx{cu.re[i], cu.im[i]};
        break;
    }
    return m;
  };
  const auto coeff_diff = [&](const CompiledProgram& a,
                              const CompiledProgram& b) {
    EXPECT_EQ(a.ops().size(), b.ops().size());
    double worst = 0.0;
    for (std::size_t i = 0; i < a.ops().size(); ++i) {
      for (const auto& pr :
           {std::pair{&a.ops()[i].sv, &b.ops()[i].sv},
            std::pair{&a.ops()[i].dm, &b.ops()[i].dm}}) {
        EXPECT_EQ(pr.first->k, pr.second->k) << "op " << i;
        const std::vector<cx> ma = decode(*pr.first);
        const std::vector<cx> mb = decode(*pr.second);
        for (std::size_t e = 0; e < ma.size(); ++e) {
          worst = std::max(worst, std::abs(ma[e] - mb[e]));
        }
      }
    }
    return worst;
  };
  Rng rng(20220212);
  for (int n = 2; n <= 6; ++n) {
    for (int trial = 0; trial < 4; ++trial) {
      // 2q-heavy so fused blocks chain 4x4 products (kMul2 / kAbsorb) and
      // lift 1q rotations into them (kLift1Mul) — the AVX2-dispatched steps.
      Circuit c(n);
      for (int q = 0; q < n; ++q) c.h(q);
      for (int step = 0; step < 30; ++step) {
        if (rng.bernoulli(0.45)) {
          const int x = static_cast<int>(rng.index(static_cast<std::size_t>(n)));
          int y = static_cast<int>(rng.index(static_cast<std::size_t>(n) - 1));
          if (y >= x) ++y;
          c.cx(x, y);
        }
        c.append(random_1q_gate(
            rng, static_cast<int>(rng.index(static_cast<std::size_t>(n)))));
      }
      const FusionPlan plan = FusionPlan::build(c);
      kern::set_native_kernels(false);
      const CompiledProgram scalar_mat = CompiledProgram::materialize(plan, c);
      const CompiledProgram scalar_cmp = CompiledProgram::compile(c);
      kern::set_native_kernels(true);
      const CompiledProgram native_mat = CompiledProgram::materialize(plan, c);
      const CompiledProgram native_cmp = CompiledProgram::compile(c);
      EXPECT_LT(coeff_diff(scalar_mat, native_mat), kTol)
          << "n=" << n << " trial=" << trial;
      EXPECT_LT(coeff_diff(scalar_cmp, native_cmp), kTol)
          << "n=" << n << " trial=" << trial;
    }
  }
}

}  // namespace
}  // namespace qucp
