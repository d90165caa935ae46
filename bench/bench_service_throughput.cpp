// Service throughput: the million-job intake path plus the batch packer /
// worker pool artifact (§II-A's motivation, operationalized). Sections:
//
//   intake    — sustained submission rate through the sharded MPSC intake
//               for 1/2/4/8 producer threads, measured over waves of
//               submit + cancel_pending() (the drain discards jobs before
//               dispatch, so the timer isolates the intake path from the
//               simulator). The artifact enforces the >= 1e6 jobs/min
//               target the service is sized for.
//   overhead  — single-producer ns/job across queue depths: per-job intake
//               overhead must stay flat as the queue grows (ring publish is
//               O(1); no O(pending) rescans on the submit path).
//   submit_all— micro-timer for the single-block shard reservation vs a
//               loop of submit() calls over the same circuits.
//   capacity  — the original end-to-end artifact: batch capacity sweep
//               over a 24-job queue on toronto27, modeled total runtime
//               (waiting + execution), fidelity, spill and cache behavior.
//   parametric— amortized transpile+compile ns/job over a VQE-shaped
//               angle-sweep stream (8 ansatz structures x 100 iterations,
//               every job a fresh binding) through the epoch's structural
//               caches vs direct from-scratch transpile + compile calls.
//               The artifact enforces the >= 5x
//               amortization target for sweep-style traffic.
//
// Everything lands in BENCH_service.json (schema qucp-bench-service-v1)
// with the shared meta block, like the other BENCH_*.json artifacts.

#include <chrono>
#include <cinttypes>
#include <cstdlib>
#include <map>
#include <thread>

#include "bench_util.hpp"
#include "benchmarks/suite.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "core/runtime.hpp"
#include "mapping/transpiler.hpp"
#include "service/backend.hpp"
#include "service/service.hpp"
#include "sim/kernels.hpp"
#include "vqe/ansatz.hpp"

namespace {

using namespace qucp;

constexpr const char* kMix[] = {"adder", "fred", "lin", "4mod",
                                "bell",  "qec",  "alu", "var"};
constexpr int kQueueJobs = 24;
constexpr double kTargetJobsPerMin = 1e6;

bool smoke_mode() {
  const char* env = std::getenv("QUCP_BENCH_SMOKE");
  return env != nullptr && *env != '\0' && *env != '0';
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// A service configured so nothing dispatches on its own: the intake
/// sections submit, measure, and cancel_pending() before any flush.
ExecutionService make_intake_service(std::size_t shard_capacity) {
  ServiceOptions opts;
  opts.exec.shots = 1;
  opts.num_workers = 1;
  opts.submit_shard_capacity = shard_capacity;
  return ExecutionService(make_toronto27(), opts);
}

struct IntakeRow {
  int producers = 0;
  std::size_t jobs = 0;
  double submit_s = 0.0;  ///< submission phase only (threads joined)
  double cycle_s = 0.0;   ///< submission + cancel drain (sustained basis)

  [[nodiscard]] double ns_per_job() const {
    return jobs > 0 ? 1e9 * submit_s / static_cast<double>(jobs) : 0.0;
  }
  [[nodiscard]] double jobs_per_min() const {
    return cycle_s > 0.0 ? 60.0 * static_cast<double>(jobs) / cycle_s : 0.0;
  }
};

/// Submit `jobs_total` tiny jobs from `producers` threads in waves sized to
/// the shard capacity, draining with cancel_pending() between waves so the
/// rings never backpressure into a real dispatch. The cycle timer includes
/// the drain: "sustained" means the service keeps absorbing jobs at this
/// rate indefinitely, not just until the rings fill.
IntakeRow run_intake_config(int producers, std::size_t jobs_total,
                            std::size_t wave_per_producer) {
  ExecutionService service = make_intake_service(wave_per_producer);
  const Circuit circuit = get_benchmark("bell").circuit;
  // Untimed warmup wave shaped exactly like a timed one (same thread
  // fan-out): first-touch of the rings, the per-thread malloc arenas and
  // the allocator's steady-state happen here, not inside the first timed
  // wave.
  {
    std::vector<std::thread> warmup;
    warmup.reserve(static_cast<std::size_t>(producers));
    for (int p = 0; p < producers; ++p) {
      warmup.emplace_back([&service, &circuit, wave_per_producer] {
        for (std::size_t i = 0; i < wave_per_producer; ++i) {
          (void)service.submit(circuit);
        }
      });
    }
    for (std::thread& t : warmup) t.join();
    (void)service.cancel_pending();
  }
  IntakeRow row;
  row.producers = producers;
  while (row.jobs < jobs_total) {
    const std::size_t per_thread =
        std::min(wave_per_producer,
                 (jobs_total - row.jobs) / static_cast<std::size_t>(producers) +
                     1);
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(producers));
    for (int p = 0; p < producers; ++p) {
      threads.emplace_back([&service, &circuit, per_thread] {
        for (std::size_t i = 0; i < per_thread; ++i) {
          (void)service.submit(circuit);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    row.submit_s += seconds_since(t0);
    (void)service.cancel_pending();
    row.cycle_s += seconds_since(t0);
    row.jobs += per_thread * static_cast<std::size_t>(producers);
  }
  return row;
}

std::vector<IntakeRow> run_intake_section() {
  const std::size_t total = smoke_mode() ? 16384 : 262144;
  const std::size_t wave = smoke_mode() ? 2048 : 16384;
  std::vector<IntakeRow> rows;
  bench::heading("Intake: sustained submission rate, sharded MPSC rings");
  bench::row({"producers", "jobs", "ns/job", "jobs/s", "jobs/min", "target"});
  bench::rule(6);
  for (const int producers : {1, 2, 4, 8}) {
    rows.push_back(run_intake_config(producers, total, wave));
    const IntakeRow& r = rows.back();
    bench::row({std::to_string(r.producers), std::to_string(r.jobs),
                fmt_double(r.ns_per_job(), 0),
                fmt_double(r.jobs_per_min() / 60.0, 0),
                fmt_double(r.jobs_per_min(), 0),
                r.jobs_per_min() >= kTargetJobsPerMin ? "PASS" : "FAIL"});
  }
  std::printf(
      "\ntarget: >= %.0f submitted jobs/min sustained (submission + drain);\n"
      "producers home on distinct shards, so the rates above are contention-\n"
      "free up to submit_shards threads.\n",
      kTargetJobsPerMin);
  return rows;
}

std::vector<IntakeRow> run_overhead_section() {
  std::vector<IntakeRow> rows;
  bench::heading("Intake: per-job overhead vs queue depth (1 producer)");
  bench::row({"queue_depth", "ns/job"});
  bench::rule(2);
  const std::vector<std::size_t> depths =
      smoke_mode() ? std::vector<std::size_t>{1024, 4096}
                   : std::vector<std::size_t>{4096, 16384, 65536};
  for (const std::size_t depth : depths) {
    // One wave fills the queue to `depth` before the drain: a flat ns/job
    // column is the evidence that submit() does no O(pending) work.
    rows.push_back(run_intake_config(1, depth, depth));
    bench::row({std::to_string(rows.back().jobs),
                fmt_double(rows.back().ns_per_job(), 0)});
  }
  return rows;
}

struct SubmitAllRow {
  std::size_t jobs = 0;
  double loop_ns_per_job = 0.0;   ///< submit() in a loop
  double block_ns_per_job = 0.0;  ///< submit_all() single reservation

  [[nodiscard]] double speedup() const {
    return block_ns_per_job > 0.0 ? loop_ns_per_job / block_ns_per_job : 0.0;
  }
};

SubmitAllRow run_submit_all_section() {
  const std::size_t batch = smoke_mode() ? 1024 : 4096;
  const int rounds = smoke_mode() ? 3 : 8;
  ExecutionService service = make_intake_service(batch);
  const std::vector<Circuit> circuits(
      batch, get_benchmark("bell").circuit);
  SubmitAllRow row;
  row.jobs = batch;
  double best_loop = 0.0;
  double best_block = 0.0;
  // Interleaved best-of: both sides copy each circuit once per job, so the
  // difference is the intake path (per-job ticket vs one block
  // reservation). Single-threaded the two are near parity — per-job cost
  // is dominated by state construction, not ring traffic; the block
  // reservation buys atomicity (no same-shard interleaving) and one
  // position CAS per chunk instead of one per job under contention.
  for (int round = 0; round < rounds; ++round) {
    auto t0 = std::chrono::steady_clock::now();
    for (const Circuit& c : circuits) (void)service.submit(c);
    const double loop_s = seconds_since(t0);
    (void)service.cancel_pending();
    t0 = std::chrono::steady_clock::now();
    (void)service.submit_all(circuits);
    const double block_s = seconds_since(t0);
    (void)service.cancel_pending();
    if (round == 0 || loop_s < best_loop) best_loop = loop_s;
    if (round == 0 || block_s < best_block) best_block = block_s;
  }
  row.loop_ns_per_job = 1e9 * best_loop / static_cast<double>(batch);
  row.block_ns_per_job = 1e9 * best_block / static_cast<double>(batch);
  bench::heading("Intake: submit() loop vs submit_all() block reservation");
  bench::row({"jobs", "loop ns/job", "block ns/job", "speedup"});
  bench::rule(4);
  bench::row({std::to_string(row.jobs), fmt_double(row.loop_ns_per_job, 0),
              fmt_double(row.block_ns_per_job, 0),
              fmt_double(row.speedup(), 2) + "x"});
  return row;
}

struct CapacityRow {
  int batch_cap = 0;
  std::uint64_t batches = 0;
  std::uint64_t spills = 0;
  double cache_hit_pct = 0.0;
  double avg_pst = 0.0;
  double runtime_s = 0.0;
  double speedup = 0.0;
};

std::vector<JobHandle> submit_queue(ExecutionService& service, int jobs) {
  std::vector<JobHandle> handles;
  handles.reserve(static_cast<std::size_t>(jobs));
  for (int i = 0; i < jobs; ++i) {
    JobOptions jopts;
    jopts.name = std::string(kMix[i % std::size(kMix)]) + "#" +
                 std::to_string(i);
    handles.push_back(
        service.submit(get_benchmark(kMix[i % std::size(kMix)]).circuit,
                       jopts));
  }
  return handles;
}

std::vector<CapacityRow> run_capacity_sweep() {
  bench::heading(
      "Service throughput: 24-job queue on toronto27 (shots 256)");
  bench::row({"batch_cap", "batches", "spills", "cache_hit%", "avg_PST",
              "runtime_s", "speedup"});
  bench::rule(7);

  RuntimeModel model;
  model.shots = 4096;
  model.queue_depth = 5;

  std::vector<CapacityRow> rows;
  double serial_runtime = 0.0;
  for (int cap : {1, 2, 4, 6, 8}) {
    ServiceOptions opts;
    opts.exec.shots = 256;
    opts.max_batch_size = cap;
    opts.num_workers = 4;
    ExecutionService service(make_toronto27(), opts);
    const std::vector<JobHandle> handles =
        submit_queue(service, kQueueJobs);
    service.flush();

    double pst_sum = 0.0;
    std::map<std::uint64_t, double> batch_makespans;
    for (const JobHandle& h : handles) {
      const JobResult& r = h.result();
      pst_sum += r.report.pst_value;
      batch_makespans[r.batch.batch_index] = r.batch.makespan_ns;
    }
    double runtime = 0.0;
    for (const auto& [index, makespan] : batch_makespans) {
      runtime += parallel_runtime_s(model, makespan);
    }
    if (cap == 1) serial_runtime = runtime;

    const ServiceStats stats = service.stats();
    const double hit_rate =
        100.0 * static_cast<double>(stats.transpile_cache.hits) /
        static_cast<double>(std::max<std::uint64_t>(
            1, stats.transpile_cache.hits + stats.transpile_cache.misses));
    CapacityRow row;
    row.batch_cap = cap;
    row.batches = stats.batches_executed;
    row.spills = stats.spill_events;
    row.cache_hit_pct = hit_rate;
    row.avg_pst = pst_sum / kQueueJobs;
    row.runtime_s = runtime;
    row.speedup = serial_runtime / runtime;
    rows.push_back(row);
    bench::row({std::to_string(cap),
                std::to_string(stats.batches_executed),
                std::to_string(stats.spill_events),
                fmt_double(hit_rate, 0),
                fmt_double(pst_sum / kQueueJobs, 3),
                fmt_double(runtime, 1),
                fmt_double(serial_runtime / runtime, 2) + "x"});
  }
  std::printf(
      "\nBatching converts per-job queue waits into one shared wait: the\n"
      "runtime drop tracks the batch count, while avg PST pays the\n"
      "paper's fidelity cost of denser packing.\n");
  return rows;
}

struct ParametricRow {
  std::size_t jobs = 0;
  double total_s = 0.0;
  TranspileCacheStats cache;
  std::uint64_t plan_builds = 0;
  std::uint64_t plan_hits = 0;

  [[nodiscard]] double ns_per_job() const {
    return jobs > 0 ? 1e9 * total_s / static_cast<double>(jobs) : 0.0;
  }
  [[nodiscard]] double bind_ns_per_hit() const {
    return cache.structural_hits > 0
               ? static_cast<double>(cache.bind_ns) /
                     static_cast<double>(cache.structural_hits)
               : 0.0;
  }
};

struct ParametricSection {
  ParametricRow on;
  ParametricRow on_scalar;  ///< per-job bind path, scalar materialize
  ParametricRow off;
  ParametricRow batched;  ///< transpile_sweep: one probe + batched binds

  [[nodiscard]] double speedup() const {
    return on.ns_per_job() > 0.0 ? off.ns_per_job() / on.ns_per_job() : 0.0;
  }
  /// The sweep fast path's target: the full batched path (group-probed
  /// cache + bind_many + plan-direct materialize on the AVX2 kernels) vs
  /// the per-job bind path it replaces as previously shipped — per-job
  /// cache round-trips and scalar materialize (`on_scalar`). In a build
  /// without native kernels both arms run the same scalar products and
  /// this reduces to the pure batching win.
  [[nodiscard]] double batched_speedup() const {
    return batched.ns_per_job() > 0.0
               ? on_scalar.ns_per_job() / batched.ns_per_job()
               : 0.0;
  }
};

constexpr int kSweepQubits = 8;

/// First `want` qubits of a BFS over the device topology from qubit 0: a
/// deterministic connected partition, independent of qubit numbering
/// quirks in the coupling map.
std::vector<int> bfs_partition(const Device& device, int want) {
  std::vector<int> region{0};
  while (static_cast<int>(region.size()) < want) {
    int next = -1;
    for (const Edge& e : device.topology().edges()) {
      const bool has_a = std::count(region.begin(), region.end(), e.a) > 0;
      const bool has_b = std::count(region.begin(), region.end(), e.b) > 0;
      if (has_a != has_b) {
        const int candidate = has_a ? e.b : e.a;
        if (next < 0 || candidate < next) next = candidate;
      }
    }
    if (next < 0) break;
    region.push_back(next);
  }
  return region;
}

/// The VQE-shaped sweep stream: 8 structural groups (an 8-qubit 3-rep RyRz
/// ansatz — molecule-scale, with real routing pressure on toronto27 —
/// under group-distinct Hadamard prefixes) x `iters` optimizer
/// iterations, every job carrying a fresh angle binding. Circuits are
/// prebuilt so the timer covers exactly the per-job transpile+compile
/// path a service worker pays. Each arm builds its own copy of the stream
/// so neither benefits from fingerprints memoized by the other.
std::vector<Circuit> build_sweep_stream(int iters) {
  constexpr int kGroups = 8;
  constexpr int kQubits = kSweepQubits;
  constexpr int kReps = 3;
  Rng rng(20220212);
  std::vector<Circuit> stream;
  stream.reserve(static_cast<std::size_t>(iters * kGroups));
  const int params = ansatz_parameter_count(kQubits, kReps);
  for (int iter = 0; iter < iters; ++iter) {
    for (int g = 0; g < kGroups; ++g) {
      Circuit c(kQubits);
      for (int q = 0; q < kQubits; ++q) {
        if (((g >> (q % 3)) & 1) != 0) c.h(q);
      }
      std::vector<double> angles(static_cast<std::size_t>(params));
      // Away from 0 / 2pi: a sweep should exercise the bind fast path,
      // not the identity-flip fallback (the golden tests cover that).
      for (double& a : angles) a = rng.uniform(0.05, 6.2);
      c.compose(make_ryrz_ansatz(kQubits, kReps, angles));
      c.measure_all();
      stream.push_back(std::move(c));
    }
  }
  return stream;
}

/// The off arm: no caches at all. Every job transpiles from scratch and
/// runs its own fusion walk, which is what an uncached service pays.
ParametricRow run_parametric_off(int iters) {
  const Device device = make_toronto27();
  const std::vector<int> partition = bfs_partition(device, kSweepQubits);
  const TranspileOptions topts = hardware_aware_options();
  const std::vector<Circuit> stream = build_sweep_stream(iters);
  ParametricRow row;
  row.jobs = stream.size();
  const auto t0 = std::chrono::steady_clock::now();
  for (const Circuit& c : stream) {
    const TranspiledProgram tp =
        transpile_to_partition(c, device, partition, topts);
    benchmark::DoNotOptimize(&tp);
    const CompiledProgram prog = CompiledProgram::compile(c);
    benchmark::DoNotOptimize(&prog);
  }
  row.total_s = seconds_since(t0);
  // Reported in cache terms: every job was a full transpile (a miss) and
  // a full fusion walk (a plan build).
  row.cache.misses = row.jobs;
  row.plan_builds = row.jobs;
  return row;
}

/// The per-job cached arm: one epoch-cache transpile (template bind after
/// the first binding per structure) and one program-cache compile per job.
ParametricRow run_parametric_on(int iters, bool scalar_kernels = false) {
  // scalar_kernels reproduces the pre-AVX2 per-job bind path (the
  // baseline the sweep fast path is measured against); restore whatever
  // dispatch state the process started with on the way out.
  const bool native_before = kern::native_kernels_active();
  if (scalar_kernels) kern::set_native_kernels(false);
  const Device device = make_toronto27();
  const CalibrationEpoch epoch(0, device, /*transpile_cache_capacity=*/1024);
  const std::vector<int> partition = bfs_partition(device, kSweepQubits);
  const TranspileOptions topts = hardware_aware_options();
  const std::vector<Circuit> stream = build_sweep_stream(iters);
  ParametricRow row;
  row.jobs = stream.size();
  const auto t0 = std::chrono::steady_clock::now();
  for (const Circuit& c : stream) {
    const TranspiledProgram tp =
        epoch.transpile(c, partition, topts, /*options_fp=*/1);
    benchmark::DoNotOptimize(&tp);
    // The scoring pass compiles the logical circuit per job (the service's
    // ideal-distribution reference), which is where the fusion-plan cache
    // earns its keep on a sweep.
    const auto prog = epoch.compiled_program(c);
    benchmark::DoNotOptimize(prog.get());
  }
  row.total_s = seconds_since(t0);
  row.cache = epoch.cache_stats();
  row.plan_builds = epoch.program_cache().plan_builds();
  row.plan_hits = epoch.program_cache().plan_hits();
  if (scalar_kernels) kern::set_native_kernels(native_before);
  return row;
}

/// The sweep_batched arm: the same stream, but grouped by structure and
/// pushed through the submit_all() sweep fast path's two batched legs:
/// CalibrationEpoch::transpile_sweep (one epoch pin and one cache probe
/// per group, templates bound batch-at-a-time via bind_many) plus one
/// fusion-plan fetch per group with the ideal-reference program
/// materialized directly per job (what run_batch_pipeline does for
/// prebound sweep jobs, skipping the per-job fingerprint + cache lock).
ParametricRow run_parametric_batched(int iters) {
  const Device device = make_toronto27();
  const CalibrationEpoch epoch(0, device, /*transpile_cache_capacity=*/1024);
  const std::vector<int> partition = bfs_partition(device, kSweepQubits);
  const TranspileOptions topts = hardware_aware_options();
  const std::vector<Circuit> stream = build_sweep_stream(iters);
  // Group per structural fingerprint, submission order kept within groups.
  std::map<std::uint64_t, std::vector<const Circuit*>> groups;
  for (const Circuit& c : stream) {
    groups[structural_fingerprint(c)].push_back(&c);
  }
  ParametricRow row;
  row.jobs = stream.size();
  std::vector<TranspiledProgram> bound;
  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& [fp, circuits] : groups) {
    epoch.transpile_sweep(circuits, partition, topts, /*options_fp=*/1,
                          bound);
    benchmark::DoNotOptimize(bound.data());
    const auto fusion_plan = epoch.program_cache().plan(*circuits.front());
    for (const Circuit* c : circuits) {
      const CompiledProgram prog =
          CompiledProgram::materialize(*fusion_plan, *c);
      benchmark::DoNotOptimize(&prog);
    }
  }
  row.total_s = seconds_since(t0);
  row.cache = epoch.cache_stats();
  row.plan_builds = epoch.program_cache().plan_builds();
  row.plan_hits = epoch.program_cache().plan_hits();
  return row;
}

ParametricSection run_parametric_section() {
  // Even the smoke run needs enough bindings per structure to amortize the
  // 8 one-time template builds, or the speedup column reads as noise.
  const int iters = smoke_mode() ? 50 : 100;
  bench::heading(
      "Parametric compilation: VQE angle sweep, 8 structures (8q 3-rep) x " +
      std::to_string(iters) + " iterations (toronto27, transpile+compile)");
  bench::row({"cache", "jobs", "ns/job", "hits", "struct_hits", "misses",
              "fallbacks", "bind ns/hit", "plan builds"});
  bench::rule(9);
  ParametricSection section;
  // Every arm is deterministic (fresh backend + identical stream per
  // round), so cache stats are round-invariant and best-of-rounds only
  // strips scheduler noise from the timings — the arms are compared at
  // their capability, not at whatever the machine was doing that second.
  const int rounds = smoke_mode() ? 2 : 3;
  const auto best_of = [&](auto&& run) {
    auto best = run();
    for (int r = 1; r < rounds; ++r) {
      auto next = run();
      if (next.total_s < best.total_s) best = std::move(next);
    }
    return best;
  };
  // Off first so the on-arm's speedup column can print in its row.
  section.off = best_of([&] { return run_parametric_off(iters); });
  section.on = best_of([&] { return run_parametric_on(iters); });
  section.on_scalar =
      best_of([&] { return run_parametric_on(iters, /*scalar=*/true); });
  section.batched = best_of([&] { return run_parametric_batched(iters); });
  const auto mode_name = [&](const ParametricRow* r) {
    if (r == &section.batched) return "sweep_batched";
    if (r == &section.on_scalar) return "on_scalar";
    return r == &section.on ? "on" : "off";
  };
  for (const ParametricRow* r : {&section.off, &section.on,
                                 &section.on_scalar, &section.batched}) {
    bench::row({mode_name(r), std::to_string(r->jobs),
                fmt_double(r->ns_per_job(), 0),
                std::to_string(r->cache.hits),
                std::to_string(r->cache.structural_hits),
                std::to_string(r->cache.misses),
                std::to_string(r->cache.bind_fallbacks),
                fmt_double(r->bind_ns_per_hit(), 0),
                std::to_string(r->plan_builds)});
  }
  std::printf(
      "\namortized transpile+compile speedup: %.2fx (target >= 5x)\n"
      "sweep_batched vs per-job bind + scalar kernels: %.2fx "
      "(target >= 1.8x)\n"
      "every job is a fresh binding: the off arm re-places and re-routes\n"
      "per job, the on/on_scalar arms bind the structural template per job\n"
      "(native vs scalar materialize), and the sweep_batched arm probes\n"
      "the cache + fusion plan once per structure group, binds the group\n"
      "through bind_many and materializes each ideal reference straight\n"
      "off the plan's AVX2 product chain (the submit_all sweep path).\n",
      section.speedup(), section.batched_speedup());
  return section;
}

void write_json(const std::vector<IntakeRow>& intake,
                const std::vector<IntakeRow>& overhead,
                const SubmitAllRow& submit_all,
                const std::vector<CapacityRow>& capacity,
                const ParametricSection& parametric) {
  const char* env = std::getenv("QUCP_BENCH_OUT");
  const std::string path = env != nullptr && *env != '\0'
                               ? std::string(env)
                               : std::string("BENCH_service.json");
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr,
                 "bench_service_throughput: cannot open %s for writing\n",
                 path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"schema\": \"qucp-bench-service-v1\",\n");
  bench::write_meta_json(f);
  std::fprintf(f, "  \"smoke\": %s,\n", smoke_mode() ? "true" : "false");
  std::fprintf(f, "  \"target_jobs_per_min\": %.0f,\n", kTargetJobsPerMin);
  std::fprintf(f, "  \"results\": [\n");
  bool first = true;
  auto sep = [&]() -> const char* {
    if (first) {
      first = false;
      return "";
    }
    return ",\n";
  };
  for (const IntakeRow& r : intake) {
    std::fprintf(f,
                 "%s    {\"section\": \"intake\", \"producers\": %d, "
                 "\"jobs\": %zu, \"ns_per_job\": %.1f, "
                 "\"jobs_per_min\": %.0f, \"meets_target\": %s}",
                 sep(), r.producers, r.jobs, r.ns_per_job(), r.jobs_per_min(),
                 r.jobs_per_min() >= kTargetJobsPerMin ? "true" : "false");
  }
  for (const IntakeRow& r : overhead) {
    std::fprintf(f,
                 "%s    {\"section\": \"overhead\", \"queue_depth\": %zu, "
                 "\"ns_per_job\": %.1f}",
                 sep(), r.jobs, r.ns_per_job());
  }
  std::fprintf(f,
               "%s    {\"section\": \"submit_all\", \"jobs\": %zu, "
               "\"loop_ns_per_job\": %.1f, \"block_ns_per_job\": %.1f, "
               "\"speedup\": %.2f}",
               sep(), submit_all.jobs, submit_all.loop_ns_per_job,
               submit_all.block_ns_per_job, submit_all.speedup());
  for (const CapacityRow& r : capacity) {
    std::fprintf(f,
                 "%s    {\"section\": \"capacity\", \"batch_cap\": %d, "
                 "\"batches\": %" PRIu64 ", \"spills\": %" PRIu64 ", "
                 "\"cache_hit_pct\": %.0f, \"avg_pst\": %.3f, "
                 "\"runtime_s\": %.1f, \"speedup\": %.2f}",
                 sep(), r.batch_cap, r.batches, r.spills, r.cache_hit_pct,
                 r.avg_pst, r.runtime_s, r.speedup);
  }
  const auto parametric_mode = [&](const ParametricRow* r) {
    if (r == &parametric.batched) return "sweep_batched";
    if (r == &parametric.on_scalar) return "on_scalar";
    return r == &parametric.on ? "on" : "off";
  };
  for (const ParametricRow* r : {&parametric.off, &parametric.on,
                                 &parametric.on_scalar, &parametric.batched}) {
    std::fprintf(f,
                 "%s    {\"section\": \"parametric\", \"mode\": \"%s\", "
                 "\"jobs\": %zu, \"ns_per_job\": %.1f, \"hits\": %" PRIu64
                 ", \"structural_hits\": %" PRIu64 ", \"misses\": %" PRIu64
                 ", \"bind_fallbacks\": %" PRIu64
                 ", \"bind_ns_per_hit\": %.1f, \"plan_builds\": %" PRIu64
                 ", \"plan_hits\": %" PRIu64 "}",
                 sep(), parametric_mode(r), r->jobs, r->ns_per_job(),
                 r->cache.hits, r->cache.structural_hits, r->cache.misses,
                 r->cache.bind_fallbacks, r->bind_ns_per_hit(), r->plan_builds,
                 r->plan_hits);
  }
  std::fprintf(f,
               "%s    {\"section\": \"parametric_summary\", "
               "\"speedup\": %.2f, \"meets_target\": %s, "
               "\"sweep_batched_speedup\": %.2f, "
               "\"sweep_batched_meets_target\": %s}",
               sep(), parametric.speedup(),
               parametric.speedup() >= 5.0 ? "true" : "false",
               parametric.batched_speedup(),
               parametric.batched_speedup() >= 1.8 ? "true" : "false");
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s (%zu rows%s)\n", path.c_str(),
              intake.size() + overhead.size() + 1 + capacity.size() + 5,
              smoke_mode() ? ", smoke mode" : "");
}

void print_service_tables() {
  const std::vector<IntakeRow> intake = run_intake_section();
  const std::vector<IntakeRow> overhead = run_overhead_section();
  const SubmitAllRow submit_all = run_submit_all_section();
  const std::vector<CapacityRow> capacity = run_capacity_sweep();
  const ParametricSection parametric = run_parametric_section();
  write_json(intake, overhead, submit_all, capacity, parametric);
}

void drain_queue(benchmark::State& state, int workers) {
  for (auto _ : state) {
    ServiceOptions opts;
    opts.exec.shots = 64;
    opts.max_batch_size = 4;
    opts.num_workers = workers;
    ExecutionService service(make_toronto27(), opts);
    const auto handles = submit_queue(service, 16);
    service.flush();
    benchmark::DoNotOptimize(handles.front().result().report.pst_value);
  }
}

void BM_DrainWorkers1(benchmark::State& state) { drain_queue(state, 1); }
void BM_DrainWorkers2(benchmark::State& state) { drain_queue(state, 2); }
void BM_DrainWorkers4(benchmark::State& state) { drain_queue(state, 4); }
BENCHMARK(BM_DrainWorkers1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DrainWorkers2)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DrainWorkers4)->Unit(benchmark::kMillisecond);

void transpile_cache(benchmark::State& state, std::size_t capacity) {
  for (auto _ : state) {
    ServiceOptions opts;
    opts.exec.shots = 64;
    opts.max_batch_size = 4;
    opts.num_workers = 2;
    opts.transpile_cache_capacity = capacity;
    ExecutionService service(make_toronto27(), opts);
    const auto handles = submit_queue(service, 16);
    service.flush();
    benchmark::DoNotOptimize(handles.front().result().report.pst_value);
  }
}

void BM_TranspileCacheOff(benchmark::State& state) {
  transpile_cache(state, 0);
}
void BM_TranspileCacheOn(benchmark::State& state) {
  transpile_cache(state, 1024);
}
BENCHMARK(BM_TranspileCacheOff)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TranspileCacheOn)->Unit(benchmark::kMillisecond);

// Intake-only timer: publish + cancel of one 1024-job wave.
void BM_IntakeWave(benchmark::State& state) {
  ExecutionService service = make_intake_service(1024);
  const Circuit circuit = get_benchmark("bell").circuit;
  for (auto _ : state) {
    for (int i = 0; i < 1024; ++i) (void)service.submit(circuit);
    benchmark::DoNotOptimize(service.cancel_pending());
  }
}
BENCHMARK(BM_IntakeWave)->Unit(benchmark::kMicrosecond);

}  // namespace

QUCP_BENCH_MAIN(print_service_tables)
