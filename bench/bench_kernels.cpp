// Kernel microbenchmark: ns/gate for the density-matrix and statevector
// simulation kernels by kernel type and qubit count, ns per noisy density
// walk of one vqe_sweep-shaped program (full sweeps against live-subspace
// sweeps), plus ns per 1024-shot sample_counts call (the per-job sampling
// cost). The artifact writes
// BENCH_kernels.json (schema qucp-bench-kernels-v1) so the perf trajectory
// of the simulator hot path is pinned across PRs; CI runs it in smoke mode
// (QUCP_BENCH_SMOKE=1, reduced repetitions) so regressions show up in PR
// logs without minutes of timer budget.
//
// Only public simulator API is used, so the same binary measures any
// kernel implementation generation.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "circuit/gate.hpp"
#include "common/strings.hpp"
#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "hardware/device.hpp"
#include "sim/counts.hpp"
#include "sim/density.hpp"
#include "sim/fusion.hpp"
#include "sim/kernels.hpp"
#include "sim/noise.hpp"
#include "sim/statevector.hpp"
#include "vqe/ansatz.hpp"

namespace {

using namespace qucp;

bool smoke_mode() {
  const char* env = std::getenv("QUCP_BENCH_SMOKE");
  return env != nullptr && *env != '\0' && *env != '0';
}

struct KernelResult {
  std::string kernel;
  int qubits = 0;
  double ns_per_op = 0.0;
  /// density_noisy_op rows: gate of the bundle; density_noisy_program
  /// rows: the program.
  std::string bundle;
  /// density_noisy_op rows: "sweep"; density_noisy_program
  /// rows: "full" or "live".
  std::string form;
  int shots = 0;       ///< sample_counts rows: shots per call
};

/// Time `body` over enough repetitions to amortize clock overhead. The
/// repetition count scales inversely with the state size so every cell
/// costs roughly the same wall-clock budget.
template <typename F>
double time_ns_per_op(int reps, F&& body) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) body();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         std::max(1, reps);
}

int reps_for(std::size_t state_elems) {
  const std::size_t budget = smoke_mode() ? (std::size_t{1} << 19)
                                          : (std::size_t{1} << 25);
  const std::size_t reps = budget / std::max<std::size_t>(1, state_elems);
  return static_cast<int>(std::clamp<std::size_t>(reps, 4, 200000));
}

/// The compiled kernel of `g` on an n-qubit register.
FusedOp gate_op(int n, const Gate& g) {
  Circuit c(n);
  c.append(g);
  return CompiledProgram::compile(c).ops().front();
}

/// An n-qubit density matrix with an H applied to every qubit: every
/// qubit is touched, so a walk over it visits all 4^n entries, as an
/// executor walk does once a program has touched its whole partition.
DensityMatrix all_touched(int n) {
  DensityMatrix dm(n);
  for (int q = 0; q < n; ++q) {
    dm.apply_noisy_gate(gate_op(n, {GateKind::H, {q}, {}}),
                        std::vector<int>{q}, {}, 0.0);
  }
  return dm;
}

/// Density rows through the entry points the executor runs: a gate-only
/// DensityMatrix::apply_noisy_gate (compiled op, no idle window, no
/// depolarizing) and apply_relaxation, each on an all_touched() state.
std::vector<KernelResult> run_density_suite(int n) {
  std::vector<KernelResult> out;
  const std::size_t dim2 = (std::size_t{1} << n) * (std::size_t{1} << n);
  const int reps = reps_for(dim2);

  const std::vector<int> q1{n / 2};
  const std::vector<int> q2{0, n - 1};
  const FusedOp h = gate_op(n, {GateKind::H, {n / 2}, {}});
  const DensityMatrix prepared = all_touched(n);

  {
    DensityMatrix dm = prepared;
    out.push_back({"density_gate_1q", n, time_ns_per_op(reps, [&] {
                     dm.apply_noisy_gate(h, q1, {}, 0.0);
                   })});
  }
  if (n >= 2) {
    const FusedOp cxop = gate_op(n, {GateKind::CX, {0, n - 1}, {}});
    DensityMatrix dm = prepared;
    out.push_back({"density_gate_2q", n, time_ns_per_op(reps, [&] {
                     dm.apply_noisy_gate(cxop, q2, {}, 0.0);
                   })});
  }
  {
    DensityMatrix dm = prepared;
    out.push_back({"density_relaxation", n, time_ns_per_op(reps, [&] {
                     dm.apply_relaxation(n / 2, 35.0, 80.0, 70.0);
                   })});
  }
  return out;
}

/// One noisy executor op — idle relaxation on each operand, the gate,
/// depolarizing — as one kern::apply_noisy_gate sweep over the full
/// superket. Operands sit on local qubit 0 and n - 1, as in the executor's
/// compacted partitions.
std::vector<KernelResult> run_noisy_op_suite(int n) {
  std::vector<KernelResult> out;
  const std::size_t dim2 = (std::size_t{1} << n) * (std::size_t{1} << n);
  const int reps = reps_for(dim2);
  // Weak channels: up to 2e5 repetitions on one state must not decay the
  // coherences into subnormals, which would time the FPU's slow path.
  const kern::RelaxCoeffs relax{1e-5, 0.99999, 0.99999};
  struct Bundle {
    const char* name;
    Circuit circuit;
  };
  std::vector<Bundle> bundles;
  bundles.push_back({"1q_dense", Circuit(n)});
  bundles.back().circuit.ry(0.7, 0);
  bundles.push_back({"1q_diag", Circuit(n)});
  bundles.back().circuit.rz(0.7, 0);
  if (n >= 2) {
    bundles.push_back({"cx", Circuit(n)});
    bundles.back().circuit.cx(0, n - 1);
  }
  for (const Bundle& b : bundles) {
    const FusedOp op = CompiledProgram::compile(b.circuit).ops().front();
    const std::vector<int> q(op.q, op.q + op.k());
    const double c2 = 1e-5;
    const kern::DepolCoeffs depol{1.0 - c2, c2, op.k() == 1 ? 0.5 : 0.25};
    kern::NoisyGate g;
    g.qubits = q;
    g.col = &op.dm;
    g.row = op.k() == 2 ? &op.sv : nullptr;
    g.relax[0] = &relax;
    g.relax[1] = op.k() == 2 ? &relax : nullptr;
    g.depol = &depol;
    DensityMatrix init(n);
    init.apply_noisy_gate(fixed_kernel(GateKind::H), std::vector<int>{0}, {},
                          0.0);
    std::vector<cx> rho(init.data().begin(), init.data().end());
    out.push_back({"density_noisy_op", n, time_ns_per_op(reps, [&] {
                     kern::apply_noisy_gate(rho, n, g);
                   }),
                   b.name, "sweep"});
  }
  return out;
}

/// One program's noisy density walk as the executor runs it: a 6-qubit
/// RyRz ansatz (reps 2, CX chain) of vqe_sweep's shape, ALAP-scheduled on
/// a 6-qubit line, every op with its idle relaxation and depolarizing and
/// each measurement with its pre-measurement window. "live" is the
/// DensityMatrix walk, which skips untouched qubits' entries and settles
/// each qubit after its last gate; "full" sweeps the same ops over every
/// entry (kern::apply_noisy_gate with empty masks). The two must read the
/// same distribution bit for bit.
std::vector<KernelResult> run_noisy_program() {
  constexpr int kQubits = 6;
  const Device device = make_line_device(kQubits);
  const Calibration& cal = device.calibration();
  std::vector<double> angles(
      static_cast<std::size_t>(ansatz_parameter_count(kQubits, 2)));
  for (std::size_t i = 0; i < angles.size(); ++i) {
    angles[i] = 0.3 + 0.17 * static_cast<double>(i);
  }
  Circuit circuit = make_ryrz_ansatz(kQubits, 2, angles);
  for (int q = 0; q < kQubits; ++q) circuit.measure(q, q);
  const CompiledExecutable exe = CompiledExecutable::materialize(
      std::make_shared<const ExecutableStructure>(ExecutableStructure::build(
          circuit, device, SchedulePolicy::ALAP)),
      circuit);
  const ExecutableStructure& st = exe.structure();
  const Circuit& lowered = st.lowered();

  // The executor's op stream, with its idle windows and settle points.
  struct WalkOp {
    const FusedOp* op = nullptr;  // null: a measurement
    int q[2] = {};
    int k = 1;
    Relaxation idle[2];
    double depol_p = 0.0;
    bool last[2] = {};
  };
  std::vector<WalkOp> walk;
  std::vector<double> busy_until(kQubits, 0.0);
  std::vector<std::uint32_t> last_gate(kQubits, 0);
  for (std::uint32_t idx : st.time_order()) {
    const Gate& g = lowered.ops()[idx];
    if (g.kind == GateKind::Barrier || g.kind == GateKind::Measure) continue;
    for (int q : g.qubits) last_gate[static_cast<std::size_t>(q)] = idx;
  }
  for (std::uint32_t idx : st.time_order()) {
    const Gate& g = lowered.ops()[idx];
    const ScheduledOp& so = st.schedule().ops[idx];
    if (g.kind == GateKind::Barrier) continue;
    WalkOp w;
    w.k = static_cast<int>(g.qubits.size());
    for (int j = 0; j < w.k; ++j) {
      const int q = g.qubits[static_cast<std::size_t>(j)];
      const auto qi = static_cast<std::size_t>(q);
      w.q[j] = q;
      if (so.start_ns - busy_until[qi] > 1e-9) {
        w.idle[j] = {so.start_ns - busy_until[qi], cal.t1_us[qi],
                     cal.t2_us[qi]};
      }
      busy_until[qi] = so.end_ns;
      w.last[j] = last_gate[qi] == idx;
    }
    if (g.kind != GateKind::Measure) {
      w.op = &exe.channel(idx);
      w.depol_p = g.kind == GateKind::CX
                      ? depolarizing_param(cal.cx_error[static_cast<
                            std::size_t>(st.cx_edges()[idx])])
                      : depolarizing_param(
                            cal.q1_error[static_cast<std::size_t>(w.q[0])]);
    }
    walk.push_back(w);
  }

  std::vector<double> live_probs;
  const auto live = [&] {
    DensityMatrix dm(kQubits);
    for (const WalkOp& w : walk) {
      if (w.op == nullptr) {
        const Relaxation& r = w.idle[0];
        dm.apply_relaxation(w.q[0], r.duration_ns, r.t1_us, r.t2_us);
        continue;
      }
      const auto k = static_cast<std::size_t>(w.k);
      dm.apply_noisy_gate(*w.op, std::span<const int>(w.q, k),
                          std::span<const Relaxation>(w.idle, k), w.depol_p);
      for (std::size_t j = 0; j < k; ++j) {
        if (w.last[j]) dm.settle(w.q[j]);
      }
    }
    live_probs = dm.probabilities();
  };
  std::vector<double> full_probs;
  const auto full = [&] {
    std::vector<cx> rho(std::size_t{1} << (2 * kQubits), cx{0.0, 0.0});
    rho[0] = 1.0;
    for (const WalkOp& w : walk) {
      if (w.op == nullptr) {
        if (w.idle[0].duration_ns > 0.0) {
          const kern::RelaxCoeffs relax = relaxation_coeffs(w.idle[0]);
          kern::NoisyGate g;
          g.qubits = std::span<const int>(w.q, 1);
          g.relax[0] = &relax;
          kern::apply_noisy_gate(rho, kQubits, g);
        }
        continue;
      }
      const auto k = static_cast<std::size_t>(w.k);
      kern::NoisyGate g;
      g.qubits = std::span<const int>(w.q, k);
      g.col = &w.op->dm;
      g.row = w.k == 2 ? &w.op->sv : nullptr;
      kern::RelaxCoeffs relax[2];
      for (std::size_t j = 0; j < k; ++j) {
        if (w.idle[j].duration_ns <= 0.0) continue;
        relax[j] = relaxation_coeffs(w.idle[j]);
        g.relax[j] = &relax[j];
      }
      kern::DepolCoeffs depol;
      if (w.depol_p != 0.0) {
        depol = depolarizing_coeffs(w.depol_p, w.k);
        g.depol = &depol;
      }
      kern::apply_noisy_gate(rho, kQubits, g);
    }
    const std::size_t dim = std::size_t{1} << kQubits;
    full_probs.assign(dim, 0.0);
    for (std::size_t i = 0; i < dim; ++i) {
      full_probs[i] = std::max(0.0, rho[i * dim + i].real());
    }
  };
  // Alternating rounds, median per form: on a shared host one long loop
  // per form can land wholly in a slow or a fast stretch.
  full();
  live();
  const int reps = smoke_mode() ? 20 : 400;
  std::vector<double> full_ns;
  std::vector<double> live_ns;
  for (int round = 0; round < 5; ++round) {
    full_ns.push_back(time_ns_per_op(reps, full));
    live_ns.push_back(time_ns_per_op(reps, live));
  }
  std::sort(full_ns.begin(), full_ns.end());
  std::sort(live_ns.begin(), live_ns.end());
  std::vector<KernelResult> out;
  out.push_back({"density_noisy_program", kQubits, full_ns[2], "ryrz_reps2",
                 "full"});
  out.push_back({"density_noisy_program", kQubits, live_ns[2], "ryrz_reps2",
                 "live"});
  if (std::memcmp(live_probs.data(), full_probs.data(),
                  full_probs.size() * sizeof(double)) != 0) {
    std::fprintf(stderr,
                 "bench_kernels: live and full walks read different "
                 "distributions\n");
    std::abort();
  }
  return out;
}

/// Statevector rows: one precompiled gate through apply_compiled, as
/// Statevector::run replays a fused program.
std::vector<KernelResult> run_statevector_suite(int n) {
  std::vector<KernelResult> out;
  const int reps = reps_for(std::size_t{1} << n);
  const kern::CompiledUnitary h =
      kern::compile_unitary(gate_matrix(GateKind::H).data());
  const kern::CompiledUnitary cxm =
      kern::compile_unitary(gate_matrix(GateKind::CX).data());
  const std::vector<int> q1{n / 2};
  const std::vector<int> q2{0, n - 1};
  {
    Statevector sv(n);
    out.push_back({"statevector_gate_1q", n, time_ns_per_op(reps, [&] {
                     sv.apply_compiled(h, q1);
                   })});
  }
  if (n >= 2) {
    Statevector sv(n);
    out.push_back({"statevector_gate_2q", n, time_ns_per_op(reps, [&] {
                     sv.apply_compiled(cxm, q2);
                   })});
  }
  return out;
}

/// One 1024-shot sample_counts call over a lopsided distribution of all
/// 2^n outcomes of n clbits, from a freshly derived Rng per call — what
/// the executor pays per job, derivation included.
KernelResult run_sampling(int n) {
  constexpr int kShots = 1024;
  std::vector<Distribution::Entry> entries;
  for (std::uint64_t o = 0; o < (std::uint64_t{1} << n); ++o) {
    entries.push_back({o, 1.0 + static_cast<double>((o * 7) % 5)});
  }
  const Distribution dist(n, std::move(entries));
  const Rng root(2022);
  std::vector<std::string> tags;
  for (int t = 0; t < 64; ++t) tags.push_back("job#" + std::to_string(t));
  const int reps = smoke_mode() ? 200 : 20000;
  int total = 0;
  int r = 0;
  const double ns = time_ns_per_op(reps, [&] {
    Rng rng = root.derive(tags[static_cast<std::size_t>(r++ % 64)]);
    total += sample_counts(dist, kShots, rng).total();
  });
  if (total != reps * kShots) std::abort();  // keeps the calls live
  KernelResult result{"sample_counts", n, ns};
  result.shots = kShots;
  return result;
}

void write_json(const std::vector<KernelResult>& results) {
  const char* env = std::getenv("QUCP_BENCH_OUT");
  const std::string path = (env != nullptr && *env != '\0')
                               ? std::string(env)
                               : std::string("BENCH_kernels.json");
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_kernels: cannot open %s for writing\n",
                 path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"schema\": \"qucp-bench-kernels-v1\",\n");
  bench::write_meta_json(f);
  std::fprintf(f, "  \"smoke\": %s,\n", smoke_mode() ? "true" : "false");
  std::fprintf(f, "  \"unit\": \"ns_per_op\",\n  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const KernelResult& r = results[i];
    std::string variant;
    if (!r.bundle.empty()) {
      variant = ", \"bundle\": \"" + r.bundle + "\", \"form\": \"" +
                r.form + "\"";
    }
    if (r.shots > 0) variant = ", \"shots\": " + std::to_string(r.shots);
    std::fprintf(f,
                 "    {\"kernel\": \"%s\"%s, \"qubits\": %d, "
                 "\"ns_per_op\": %.1f}%s\n",
                 r.kernel.c_str(), variant.c_str(), r.qubits, r.ns_per_op,
                 i + 1 == results.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s (%zu kernel timings%s)\n", path.c_str(),
              results.size(), smoke_mode() ? ", smoke mode" : "");
}

void print_kernel_grid() {
  bench::heading("Simulation kernels: ns/op by kernel and qubit count");
  std::vector<KernelResult> all;
  const std::vector<int> density_sizes = smoke_mode()
                                             ? std::vector<int>{2, 4, 6}
                                             : std::vector<int>{2, 4, 6, 8, 10};
  const std::vector<int> sv_sizes = smoke_mode()
                                        ? std::vector<int>{2, 6, 10}
                                        : std::vector<int>{2, 4, 6, 8, 10, 12};
  for (int n : density_sizes) {
    const auto rs = run_density_suite(n);
    all.insert(all.end(), rs.begin(), rs.end());
  }
  for (int n : {2, 4, 6}) {
    const auto rs = run_noisy_op_suite(n);
    all.insert(all.end(), rs.begin(), rs.end());
  }
  {
    const auto rs = run_noisy_program();
    all.insert(all.end(), rs.begin(), rs.end());
  }
  for (int n : sv_sizes) {
    const auto rs = run_statevector_suite(n);
    all.insert(all.end(), rs.begin(), rs.end());
  }
  for (int n : {2, 4, 6}) all.push_back(run_sampling(n));

  bench::row({"kernel", "qubits", "ns/op"}, 40);
  bench::rule(3, 40);
  for (const KernelResult& r : all) {
    std::string name = r.kernel;
    if (!r.bundle.empty()) name += ":" + r.bundle + ":" + r.form;
    if (r.shots > 0) name += ":" + std::to_string(r.shots) + "shots";
    bench::row({name, std::to_string(r.qubits), fmt_double(r.ns_per_op, 1)},
               40);
  }
  write_json(all);
}

// Representative google-benchmark timers (the JSON artifact above is the
// canonical record; these give perf-diff-friendly console output).
void BM_DensityGate1q(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  DensityMatrix dm = all_touched(n);
  const std::vector<int> q{n / 2};
  const FusedOp h = gate_op(n, {GateKind::H, {n / 2}, {}});
  for (auto _ : state) dm.apply_noisy_gate(h, q, {}, 0.0);
}
BENCHMARK(BM_DensityGate1q)->Arg(4)->Arg(8);

void BM_DensityGate2q(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  DensityMatrix dm = all_touched(n);
  const std::vector<int> q{0, n - 1};
  const FusedOp cxop = gate_op(n, {GateKind::CX, {0, n - 1}, {}});
  for (auto _ : state) dm.apply_noisy_gate(cxop, q, {}, 0.0);
}
BENCHMARK(BM_DensityGate2q)->Arg(4)->Arg(8);

void BM_DensityRelaxation(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  DensityMatrix dm = all_touched(n);
  for (auto _ : state) dm.apply_relaxation(n / 2, 35.0, 80.0, 70.0);
}
BENCHMARK(BM_DensityRelaxation)->Arg(4)->Arg(8);

void BM_StatevectorGate2q(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Statevector sv(n);
  const kern::CompiledUnitary cxm =
      kern::compile_unitary(gate_matrix(GateKind::CX).data());
  const std::vector<int> q{0, n - 1};
  for (auto _ : state) sv.apply_compiled(cxm, q);
}
BENCHMARK(BM_StatevectorGate2q)->Arg(4)->Arg(12);

}  // namespace

QUCP_BENCH_MAIN(print_kernel_grid)
