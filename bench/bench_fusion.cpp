// Fusion + native-kernel microbenchmark: what the program-compilation
// layer (sim/fusion.hpp) and the AVX2/FMA dense kernels buy on the
// simulation pipeline. Sections:
//
//   ideal      — ns per ideal_distribution() call for every Table II
//                benchmark, gate-by-gate vs fused precompiled replay (the
//                Backend-cached path run_batch_pipeline uses), plus the
//                per-gate cost that dominates the smallest (3q) circuits;
//   dense_simd — ns per dense 1q/2q kernel sweep, scalar vs native
//                dispatch, on rotation-ladder statevector and superket
//                states (rows appear only when the native kernels are
//                compiled in and the CPU supports them);
//   parallel_split — ns per dense sweep at statevector sizes bracketing
//                the parallel_for engage threshold (2 * kParallelGrain
//                elements), 1 thread vs 2 forced threads. This is the
//                ROADMAP (h) evidence row: on a multi-core box it shows
//                the crossover the threshold should sit at; on a 1-core
//                box (see meta.hw_threads) forcing 2 threads timeshares
//                one core, so ratios <= 1 are expected and the threshold
//                is left alone.
//   channel_simd — ns per thermal-relaxation pass (apply_relaxation, the
//                noisy-gate sweep without a gate) over every qubit of the
//                superket, scalar vs AVX2 dispatch (rows appear only with
//                the native kernels compiled in);
//   plan_materialize — ns per CompiledProgram::compile (fusion walk +
//                matrix products) vs materialize() of a prebuilt
//                FusionPlan (products only): what the structural plan
//                cache saves per iteration of a parameter sweep.
//   materialize_simd — ns per materialize() of a 2q-heavy product chain,
//                scalar vs native dispatch: the AVX2 mul4 kernel family
//                (mul4 + lift/swap/absorb) in isolation, the per-job
//                compile cost the sweep_batched service path pays (rows
//                appear only with the native kernels compiled in).
//
// Writes BENCH_fusion.json (schema qucp-bench-fusion-v1, meta block with
// compiler/flags/CPU features/hw_threads) so the fusion trajectory is
// pinned across PRs like BENCH_kernels.json and BENCH_allocator.json; CI
// runs it in smoke mode. Fused-vs-unfused agreement is re-checked while
// warming.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "benchmarks/suite.hpp"
#include "common/strings.hpp"
#include "hardware/device.hpp"
#include "sim/density.hpp"
#include "sim/fusion.hpp"
#include "sim/statevector.hpp"

namespace {

using namespace qucp;

/// Gate-only replay of a fused program on a density matrix: each op through
/// apply_noisy_gate with no idle window and no depolarizing.
void run_density(DensityMatrix& dm, const CompiledProgram& prog) {
  for (const FusedOp& op : prog.ops()) {
    dm.apply_noisy_gate(op, std::span<const int>(op.q, op.sv.k), {}, 0.0);
  }
}

bool smoke_mode() {
  const char* env = std::getenv("QUCP_BENCH_SMOKE");
  return env != nullptr && *env != '\0' && *env != '0';
}

struct FusionRow {
  std::string section;
  std::string name;
  int qubits = 0;
  std::size_t gates = 0;
  std::size_t fused_gates = 0;
  double ns_baseline = 0.0;  ///< unfused / scalar
  double ns_new = 0.0;       ///< fused / native

  [[nodiscard]] double speedup() const {
    return ns_new > 0.0 ? ns_baseline / ns_new : 0.0;
  }
};

template <typename F>
double time_ns_per_call(int reps, F&& body) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) body();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         std::max(1, reps);
}

/// Interleaved best-of-K timing so one scheduler hiccup cannot skew a side.
template <typename A, typename B>
std::pair<double, double> interleaved_best_of(int rounds, int reps, A&& a,
                                              B&& b) {
  double best_a = 0.0;
  double best_b = 0.0;
  for (int round = 0; round < rounds; ++round) {
    const double ta = time_ns_per_call(reps, a);
    const double tb = time_ns_per_call(reps, b);
    if (round == 0 || ta < best_a) best_a = ta;
    if (round == 0 || tb < best_b) best_b = tb;
  }
  return {best_a, best_b};
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

std::vector<FusionRow> run_ideal_section() {
  const int rounds = smoke_mode() ? 3 : 10;
  const int reps = smoke_mode() ? 200 : 2000;
  std::vector<FusionRow> rows;
  for (const BenchmarkSpec& spec : benchmark_suite()) {
    const CompiledProgram prog = CompiledProgram::compile(spec.circuit);
    // Equivalence gate before any timing: the fused path is only a valid
    // optimization because it reproduces the unfused distribution.
    if (dist_diff(ideal_distribution(prog),
                  ideal_distribution(spec.circuit)) > 1e-10) {
      std::fprintf(stderr, "bench_fusion: fused/unfused disagree on %s\n",
                   spec.short_name.c_str());
      std::exit(1);
    }
    FusionRow row;
    row.section = "ideal";
    row.name = spec.short_name;
    row.qubits = spec.circuit.num_qubits();
    row.gates = prog.source_gate_count();
    row.fused_gates = prog.ops().size();
    const auto [ns_unfused, ns_fused] = interleaved_best_of(
        rounds, reps,
        [&] { benchmark::DoNotOptimize(ideal_distribution(spec.circuit)); },
        [&] { benchmark::DoNotOptimize(ideal_distribution(prog)); });
    row.ns_baseline = ns_unfused;
    row.ns_new = ns_fused;
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<FusionRow> run_dense_simd_section() {
  std::vector<FusionRow> rows;
  if (!kern::native_kernels_active()) return rows;
  const int rounds = smoke_mode() ? 3 : 10;

  struct NativeReset {
    ~NativeReset() { kern::set_native_kernels(true); }
  } reset;

  // Dense rotation ladder on every qubit: pure dense1 sweeps.
  auto sv_dense1 = [&](int n) {
    Circuit c(n);
    for (int q = 0; q < n; ++q) c.u3(0.4 + 0.1 * q, 0.2, -0.3, q);
    const CompiledProgram prog = CompiledProgram::compile(c);
    Statevector sv(n);
    const int reps = smoke_mode() ? 50 : 400;
    FusionRow row;
    row.section = "dense_simd";
    row.name = "sv_dense1_ladder";
    row.qubits = n;
    row.gates = prog.source_gate_count();
    row.fused_gates = prog.ops().size();
    const auto [scalar_ns, native_ns] = interleaved_best_of(
        rounds, reps,
        [&] {
          kern::set_native_kernels(false);
          sv.run(prog);
        },
        [&] {
          kern::set_native_kernels(true);
          sv.run(prog);
        });
    row.ns_baseline = scalar_ns;
    row.ns_new = native_ns;
    return row;
  };
  // CX with absorbed rotations on a qubit ring: fused dense2 sweeps.
  auto sv_dense2 = [&](int n) {
    Circuit c(n);
    for (int q = 0; q < n; ++q) {
      c.ry(0.3 + 0.07 * q, q);
      c.cx(q, (q + 1) % n);
      c.rz(0.9 - 0.05 * q, (q + 1) % n);
    }
    const CompiledProgram prog = CompiledProgram::compile(c);
    Statevector sv(n);
    const int reps = smoke_mode() ? 30 : 200;
    FusionRow row;
    row.section = "dense_simd";
    row.name = "sv_dense2_entangler";
    row.qubits = n;
    row.gates = prog.source_gate_count();
    row.fused_gates = prog.ops().size();
    const auto [scalar_ns, native_ns] = interleaved_best_of(
        rounds, reps,
        [&] {
          kern::set_native_kernels(false);
          sv.run(prog);
        },
        [&] {
          kern::set_native_kernels(true);
          sv.run(prog);
        });
    row.ns_baseline = scalar_ns;
    row.ns_new = native_ns;
    return row;
  };
  // Superket (density) rotation ladder: every 1q gate is a dense2 4x4 on
  // the 2n-bit superket.
  auto dm_dense = [&](int n) {
    Circuit c(n);
    for (int q = 0; q < n; ++q) c.u3(0.4 + 0.1 * q, 0.2, -0.3, q);
    const CompiledProgram prog = CompiledProgram::compile(c);
    DensityMatrix dm(n);
    const int reps = smoke_mode() ? 30 : 200;
    FusionRow row;
    row.section = "dense_simd";
    row.name = "dm_superket_ladder";
    row.qubits = n;
    row.gates = prog.source_gate_count();
    row.fused_gates = prog.ops().size();
    const auto [scalar_ns, native_ns] = interleaved_best_of(
        rounds, reps,
        [&] {
          kern::set_native_kernels(false);
          run_density(dm, prog);
        },
        [&] {
          kern::set_native_kernels(true);
          run_density(dm, prog);
        });
    row.ns_baseline = scalar_ns;
    row.ns_new = native_ns;
    return row;
  };

  // CZ with absorbed phase gates on a qubit ring: the fused blocks stay
  // diagonal (kDiag2 sweeps).
  auto sv_diag2 = [&](int n) {
    Circuit c(n);
    for (int q = 0; q < n; ++q) {
      c.u1(0.3 + 0.05 * q, q);
      c.cz(q, (q + 1) % n);
      c.u1(0.7 - 0.04 * q, (q + 1) % n);
    }
    const CompiledProgram prog = CompiledProgram::compile(c);
    Statevector sv(n);
    const int reps = smoke_mode() ? 30 : 200;
    FusionRow row;
    row.section = "dense_simd";
    row.name = "sv_diag2_phase_ring";
    row.qubits = n;
    row.gates = prog.source_gate_count();
    row.fused_gates = prog.ops().size();
    const auto [scalar_ns, native_ns] = interleaved_best_of(
        rounds, reps,
        [&] {
          kern::set_native_kernels(false);
          sv.run(prog);
        },
        [&] {
          kern::set_native_kernels(true);
          sv.run(prog);
        });
    row.ns_baseline = scalar_ns;
    row.ns_new = native_ns;
    return row;
  };
  // CX with absorbed phase gates: the fused blocks are generalized
  // permutations (kPerm2 sweeps).
  auto sv_perm2 = [&](int n) {
    Circuit c(n);
    for (int q = 0; q < n; ++q) {
      c.u1(0.3 + 0.05 * q, q);
      c.cx(q, (q + 1) % n);
      c.u1(0.7 - 0.04 * q, (q + 1) % n);
    }
    const CompiledProgram prog = CompiledProgram::compile(c);
    Statevector sv(n);
    const int reps = smoke_mode() ? 30 : 200;
    FusionRow row;
    row.section = "dense_simd";
    row.name = "sv_perm2_phased_cx_ring";
    row.qubits = n;
    row.gates = prog.source_gate_count();
    row.fused_gates = prog.ops().size();
    const auto [scalar_ns, native_ns] = interleaved_best_of(
        rounds, reps,
        [&] {
          kern::set_native_kernels(false);
          sv.run(prog);
        },
        [&] {
          kern::set_native_kernels(true);
          sv.run(prog);
        });
    row.ns_baseline = scalar_ns;
    row.ns_new = native_ns;
    return row;
  };

  rows.push_back(sv_dense1(10));
  rows.push_back(sv_dense1(smoke_mode() ? 12 : 14));
  rows.push_back(sv_dense2(10));
  rows.push_back(sv_dense2(smoke_mode() ? 12 : 14));
  rows.push_back(sv_diag2(10));
  rows.push_back(sv_diag2(smoke_mode() ? 12 : 14));
  rows.push_back(sv_perm2(10));
  rows.push_back(sv_perm2(smoke_mode() ? 12 : 14));
  rows.push_back(dm_dense(5));
  rows.push_back(dm_dense(smoke_mode() ? 6 : 7));
  return rows;
}

std::vector<FusionRow> run_channel_simd_section() {
  std::vector<FusionRow> rows;
  if (!kern::native_kernels_active()) return rows;
  const int rounds = smoke_mode() ? 3 : 10;
  const int reps = smoke_mode() ? 30 : 200;

  struct NativeReset {
    ~NativeReset() { kern::set_native_kernels(true); }
  } reset;

  // One superket pass per channel application; the state content does not
  // affect the arithmetic path, so an H ladder is enough to avoid
  // denormal-heavy all-zero sweeps. The executor's depolarizing rides in
  // the gate's sweep, so only relaxation has a pass of its own.
  const auto make_state = [](int n) {
    Circuit c(n);
    for (int q = 0; q < n; ++q) c.h(q);
    DensityMatrix dm(n);
    run_density(dm, CompiledProgram::compile(c));
    return dm;
  };
  const auto channel_row = [&](int n, const char* name, auto state,
                               auto&& apply) {
    FusionRow row;
    row.section = "channel_simd";
    row.name = name;
    row.qubits = n;
    const auto [scalar_ns, native_ns] = interleaved_best_of(
        rounds, reps,
        [&] {
          kern::set_native_kernels(false);
          apply(state);
        },
        [&] {
          kern::set_native_kernels(true);
          apply(state);
        });
    row.ns_baseline = scalar_ns;
    row.ns_new = native_ns;
    return row;
  };
  for (const int n : {5, smoke_mode() ? 6 : 7}) {
    const DensityMatrix dm = make_state(n);
    rows.push_back(channel_row(n, "dm_relax_all_qubits", dm,
                               [&](DensityMatrix& d) {
                                 for (int q = 0; q < n; ++q) {
                                   d.apply_relaxation(q, 120.0, 85.0, 70.0);
                                 }
                               }));
  }
  return rows;
}

std::vector<FusionRow> run_plan_materialize_section() {
  const int rounds = smoke_mode() ? 3 : 10;
  const int reps = smoke_mode() ? 100 : 1000;
  std::vector<FusionRow> rows;
  // The sweep-iteration cost model: compile() pays the fusion walk plus
  // the matrix products, materialize() replays a cached plan and pays the
  // products only. "var" is the paper's rotation-heavy VQE circuit —
  // exactly the shape a parameter sweep re-compiles each iteration.
  for (const char* name : {"var", "alu"}) {
    const Circuit& c = get_benchmark(name).circuit;
    const FusionPlan plan = FusionPlan::build(c);
    FusionRow row;
    row.section = "plan_materialize";
    row.name = name;
    row.qubits = c.num_qubits();
    row.gates = static_cast<std::size_t>(c.gate_count());
    row.fused_gates = plan.emitted();
    const auto [compile_ns, materialize_ns] = interleaved_best_of(
        rounds, reps,
        [&] { benchmark::DoNotOptimize(CompiledProgram::compile(c)); },
        [&] {
          benchmark::DoNotOptimize(CompiledProgram::materialize(plan, c));
        });
    row.ns_baseline = compile_ns;
    row.ns_new = materialize_ns;
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<FusionRow> run_materialize_simd_section() {
  std::vector<FusionRow> rows;
  if (!kern::native_kernels_active()) return rows;
  const int rounds = smoke_mode() ? 3 : 10;
  const int reps = smoke_mode() ? 100 : 1000;

  struct NativeReset {
    ~NativeReset() { kern::set_native_kernels(true); }
  } reset;

  // The mul4 micro row: materialize's product chain on a 2q-heavy ring
  // (rotations absorbed around every CX) is dominated by the 4x4
  // complex products — mul4 plus its lift/swap/absorb forms — so the
  // scalar-vs-native delta here is the mul4 kernel family in isolation
  // (the sweep_batched arm in BENCH_service.json buys this per job).
  auto mul4_row = [&](int n) {
    Circuit c(n);
    for (int layer = 0; layer < 3; ++layer) {
      for (int q = 0; q < n; ++q) {
        c.ry(0.3 + 0.07 * q + 0.11 * layer, q);
        c.cx(q, (q + 1) % n);
        c.rz(0.9 - 0.05 * q + 0.13 * layer, (q + 1) % n);
      }
    }
    const FusionPlan plan = FusionPlan::build(c);
    FusionRow row;
    row.section = "materialize_simd";
    row.name = "materialize_mul4_cx_ring";
    row.qubits = n;
    row.gates = static_cast<std::size_t>(c.gate_count());
    row.fused_gates = plan.emitted();
    const auto [scalar_ns, native_ns] = interleaved_best_of(
        rounds, reps,
        [&] {
          kern::set_native_kernels(false);
          benchmark::DoNotOptimize(CompiledProgram::materialize(plan, c));
        },
        [&] {
          kern::set_native_kernels(true);
          benchmark::DoNotOptimize(CompiledProgram::materialize(plan, c));
        });
    row.ns_baseline = scalar_ns;
    row.ns_new = native_ns;
    return row;
  };
  rows.push_back(mul4_row(8));
  rows.push_back(mul4_row(16));
  return rows;
}

std::vector<FusionRow> run_parallel_split_section() {
  const int rounds = smoke_mode() ? 3 : 10;
  const int reps = smoke_mode() ? 5 : 40;
  std::vector<FusionRow> rows;
  // 16q (65536 amps) sits below the 2 * kParallelGrain = 131072 engage
  // threshold, 17q is exactly at it, 18q above: the 2-thread column only
  // differs from the 1-thread column where parallel_for actually splits.
  for (const int n : {16, 17, 18}) {
    Circuit c(n);
    for (int q = 0; q < n; ++q) c.u3(0.4 + 0.1 * q, 0.2, -0.3, q);
    const CompiledProgram prog = CompiledProgram::compile(c);
    Statevector sv(n);
    FusionRow row;
    row.section = "parallel_split";
    row.name = "sv_dense1_ladder_2threads";
    row.qubits = n;
    row.gates = prog.source_gate_count();
    row.fused_gates = prog.ops().size();
    const auto [serial_ns, threaded_ns] = interleaved_best_of(
        rounds, reps,
        [&] {
          const kern::ParallelThreadsGuard one(1);
          sv.run(prog);
        },
        [&] {
          const kern::ParallelThreadsGuard two(2);
          sv.run(prog);
        });
    row.ns_baseline = serial_ns;
    row.ns_new = threaded_ns;
    rows.push_back(std::move(row));
  }
  return rows;
}

void write_json(const std::vector<FusionRow>& rows) {
  const char* env = std::getenv("QUCP_BENCH_OUT");
  const std::string path = (env != nullptr && *env != '\0')
                               ? std::string(env)
                               : std::string("BENCH_fusion.json");
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_fusion: cannot open %s for writing\n",
                 path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"schema\": \"qucp-bench-fusion-v1\",\n");
  bench::write_meta_json(f);
  std::fprintf(f, "  \"smoke\": %s,\n", smoke_mode() ? "true" : "false");
  std::fprintf(f,
               "  \"unit\": \"ns_per_call\",\n"
               "  \"baseline\": \"unfused (ideal) / scalar (dense_simd, "
               "channel_simd, materialize_simd) / compile (plan_materialize) "
               "/ 1-thread (parallel_split)\",\n"
               "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const FusionRow& r = rows[i];
    std::fprintf(
        f,
        "    {\"section\": \"%s\", \"name\": \"%s\", \"qubits\": %d, "
        "\"gates\": %zu, \"fused_gates\": %zu, \"ns_baseline\": %.1f, "
        "\"ns_new\": %.1f, \"speedup\": %.2f, \"ns_per_gate_baseline\": %.1f, "
        "\"ns_per_gate_new\": %.1f}%s\n",
        r.section.c_str(), r.name.c_str(), r.qubits, r.gates, r.fused_gates,
        r.ns_baseline, r.ns_new, r.speedup(),
        r.gates > 0 ? r.ns_baseline / static_cast<double>(r.gates) : 0.0,
        r.gates > 0 ? r.ns_new / static_cast<double>(r.gates) : 0.0,
        i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s (%zu fusion timings%s)\n", path.c_str(), rows.size(),
              smoke_mode() ? ", smoke mode" : "");
}

void print_fusion_tables() {
  bench::heading(
      "Program fusion: ideal_distribution ns/call, unfused vs fused");
  std::vector<FusionRow> rows = run_ideal_section();
  bench::row({"bench", "qubits", "gates", "fused", "unfused ns", "fused ns",
              "speedup", "ns/gate"},
             12);
  bench::rule(8, 12);
  for (const FusionRow& r : rows) {
    bench::row({r.name, std::to_string(r.qubits), std::to_string(r.gates),
                std::to_string(r.fused_gates), fmt_double(r.ns_baseline, 0),
                fmt_double(r.ns_new, 0), fmt_double(r.speedup(), 2) + "x",
                fmt_double(r.ns_new / static_cast<double>(r.gates), 1)},
               12);
  }

  const std::vector<FusionRow> simd = run_dense_simd_section();
  if (!simd.empty()) {
    bench::heading("Dense kernels: ns/sweep, scalar vs AVX2/FMA dispatch");
    bench::row({"kernel", "qubits", "scalar ns", "native ns", "speedup"}, 20);
    bench::rule(5, 20);
    for (const FusionRow& r : simd) {
      bench::row({r.name, std::to_string(r.qubits),
                  fmt_double(r.ns_baseline, 0), fmt_double(r.ns_new, 0),
                  fmt_double(r.speedup(), 2) + "x"},
                 20);
    }
    rows.insert(rows.end(), simd.begin(), simd.end());
  } else {
    std::printf("\n(native kernels not compiled/supported: dense_simd "
                "section omitted)\n");
  }

  const std::vector<FusionRow> channels = run_channel_simd_section();
  if (!channels.empty()) {
    bench::heading(
        "Noise channels: ns/pass over the superket, scalar vs AVX2 dispatch");
    bench::row({"channel", "qubits", "scalar ns", "native ns", "speedup"}, 20);
    bench::rule(5, 20);
    for (const FusionRow& r : channels) {
      bench::row({r.name, std::to_string(r.qubits),
                  fmt_double(r.ns_baseline, 0), fmt_double(r.ns_new, 0),
                  fmt_double(r.speedup(), 2) + "x"},
                 20);
    }
    rows.insert(rows.end(), channels.begin(), channels.end());
  }

  const std::vector<FusionRow> plans = run_plan_materialize_section();
  bench::heading(
      "Parametric fusion: compile (walk + products) vs materialize "
      "(products only)");
  bench::row({"bench", "qubits", "gates", "fused", "compile ns",
              "materialize ns", "speedup"},
             14);
  bench::rule(7, 14);
  for (const FusionRow& r : plans) {
    bench::row({r.name, std::to_string(r.qubits), std::to_string(r.gates),
                std::to_string(r.fused_gates), fmt_double(r.ns_baseline, 0),
                fmt_double(r.ns_new, 0), fmt_double(r.speedup(), 2) + "x"},
               14);
  }
  rows.insert(rows.end(), plans.begin(), plans.end());

  const std::vector<FusionRow> mul4 = run_materialize_simd_section();
  if (!mul4.empty()) {
    bench::heading(
        "materialize product chain: ns/call, scalar vs AVX2 mul4 family");
    bench::row({"bench", "qubits", "gates", "fused", "scalar ns", "native ns",
                "speedup"},
               14);
    bench::rule(7, 14);
    for (const FusionRow& r : mul4) {
      bench::row({r.name, std::to_string(r.qubits), std::to_string(r.gates),
                  std::to_string(r.fused_gates), fmt_double(r.ns_baseline, 0),
                  fmt_double(r.ns_new, 0), fmt_double(r.speedup(), 2) + "x"},
                 14);
    }
    rows.insert(rows.end(), mul4.begin(), mul4.end());
  }

  const std::vector<FusionRow> split = run_parallel_split_section();
  bench::heading(
      "parallel_for split point: dense sweep, 1 thread vs 2 forced threads");
  bench::row({"kernel", "qubits", "1-thread ns", "2-thread ns", "ratio"},
             20);
  bench::rule(5, 20);
  for (const FusionRow& r : split) {
    bench::row({r.name, std::to_string(r.qubits),
                fmt_double(r.ns_baseline, 0), fmt_double(r.ns_new, 0),
                fmt_double(r.speedup(), 2) + "x"},
               20);
  }
  std::printf(
      "\n16q is below the 2*kParallelGrain engage threshold (columns must\n"
      "match); 17q/18q engage parallel_for under the forced 2-thread cap.\n"
      "On a 1-core box (meta.hw_threads = 1) ratios <= 1 are expected and\n"
      "the threshold stays put; re-run on a multi-core box to tune it.\n");
  rows.insert(rows.end(), split.begin(), split.end());
  write_json(rows);
}

// google-benchmark timers over the same hot paths for perf-diff output.
void BM_IdealUnfused(benchmark::State& state) {
  const BenchmarkSpec& spec =
      benchmark_suite()[static_cast<std::size_t>(state.range(0))];
  for (auto _ : state) {
    benchmark::DoNotOptimize(ideal_distribution(spec.circuit));
  }
  state.SetLabel(spec.name);
}
BENCHMARK(BM_IdealUnfused)->Arg(1)->Arg(7);  // lin (3q), var (rotation-heavy)

void BM_IdealFused(benchmark::State& state) {
  const BenchmarkSpec& spec =
      benchmark_suite()[static_cast<std::size_t>(state.range(0))];
  const CompiledProgram prog = CompiledProgram::compile(spec.circuit);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ideal_distribution(prog));
  }
  state.SetLabel(spec.name);
}
BENCHMARK(BM_IdealFused)->Arg(1)->Arg(7);

}  // namespace

QUCP_BENCH_MAIN(print_fusion_tables)
