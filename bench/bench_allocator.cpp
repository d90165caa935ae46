// Allocator microbenchmark: per-batch partition-allocation time with and
// without a persistent CandidateIndex, per device. This is the
// ExecutionService's per-batch floor (candidate generation + EFS scoring
// runs before any transpilation cache or simulation kernel can help), so
// the artifact pins the allocator's perf trajectory across PRs the same
// way BENCH_kernels.json pins the simulator's. Writes BENCH_allocator.json
// (schema qucp-bench-allocator-v4); CI runs it in smoke mode.
//
// Three arms per case, all through the one indexed allocator:
//   zero_budget — no index passed: the call walks a zero-budget index of
//                 its own (built inside the timed call), which memoizes
//                 nothing, so every state is built from
//                 partition_candidates (run_parallel, the threshold walk);
//   memo_cold   — a fresh default-budget index per call (construction not
//                 timed): every state misses the memo, as on the first
//                 batch of a width after a recalibration;
//   memo_warm   — one index reused across calls, so every state is a memo
//                 hit (the steady state of admission probes and lanes).
//
// Each arm runs as several interleaved timed loops (12; 5 in smoke mode),
// and a row reports the median and the min of its loops' per-call means,
// so a single scheduler hiccup moves neither figure.
//
// tests/test_allocator_golden.cpp pins all three against the index-less
// reference loops; this binary re-checks that the zero-budget and warm
// arms produce the same partitions while warming up.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/strings.hpp"
#include "partition/candidate_index.hpp"
#include "partition/partitioners.hpp"

namespace {

using namespace qucp;

bool smoke_mode() {
  const char* env = std::getenv("QUCP_BENCH_SMOKE");
  return env != nullptr && *env != '\0' && *env != '0';
}

/// Timed loops per arm and row.
int timed_loops() { return smoke_mode() ? 5 : 12; }

/// Representative service batch: four programs, largest-first (the order
/// run_batch_pipeline feeds the partitioner).
std::vector<ProgramShape> batch_shapes() {
  return {{5, 10, 10}, {4, 7, 8}, {3, 4, 6}, {2, 3, 3}};
}

/// Median and min over an arm's timed loops (each a per-call mean).
struct LoopStats {
  double median = 0.0;
  double min = 0.0;

  static LoopStats of(std::vector<double> loops) {
    std::sort(loops.begin(), loops.end());
    const std::size_t n = loops.size();
    const double median =
        n % 2 == 1 ? loops[n / 2] : 0.5 * (loops[n / 2 - 1] + loops[n / 2]);
    return {median, loops.front()};
  }
};

struct AllocatorResult {
  std::string device;
  std::string scenario;
  LoopStats zero_budget;
  LoopStats memo_cold;
  LoopStats memo_warm;
};

double speedup(double base, double other) {
  return other > 0.0 ? base / other : 0.0;
}

using Clock = std::chrono::steady_clock;

double elapsed_us(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

template <typename F>
double time_us_per_call(int reps, F&& body) {
  const auto t0 = Clock::now();
  for (int r = 0; r < reps; ++r) body();
  return elapsed_us(t0, Clock::now()) / std::max(1, reps);
}

/// Memo-cold allocation: a fresh index per call, so every allocation
/// state misses and is built from scratch (index construction and
/// teardown are not timed).
double time_memo_cold_us(int reps, const Device& device,
                         const Partitioner& partitioner,
                         std::span<const ProgramShape> shapes) {
  double total = 0.0;
  for (int r = 0; r < reps; ++r) {
    const CandidateIndex index(device);
    const auto t0 = Clock::now();
    benchmark::DoNotOptimize(partitioner.allocate(device, shapes, &index));
    total += elapsed_us(t0, Clock::now());
  }
  return total / std::max(1, reps);
}

AllocatorResult run_batch_case(const Device& device,
                               const Partitioner& partitioner,
                               std::span<const ProgramShape> shapes,
                               const std::string& scenario) {
  // Warm the index and verify the two arms agree before timing.
  const CandidateIndex index(device);
  const auto zero_budget = partitioner.allocate(device, shapes);
  const auto indexed = partitioner.allocate(device, shapes, &index);
  if (zero_budget.has_value() != indexed.has_value()) {
    std::fprintf(stderr, "bench_allocator: paths disagree on %s/%s\n",
                 device.name().c_str(), scenario.c_str());
    std::exit(1);
  }
  if (zero_budget) {
    for (std::size_t i = 0; i < zero_budget->size(); ++i) {
      if ((*zero_budget)[i].qubits != (*indexed)[i].qubits ||
          (*zero_budget)[i].efs.score != (*indexed)[i].efs.score) {
        std::fprintf(stderr,
                     "bench_allocator: allocation mismatch on %s/%s[%zu]\n",
                     device.name().c_str(), scenario.c_str(), i);
        std::exit(1);
      }
    }
  }

  // Interleaved rounds so a slow spell on the host hits every arm alike.
  const int rounds = timed_loops();
  const int reps = smoke_mode() ? 40 : 400;
  std::vector<double> zero;
  std::vector<double> cold;
  std::vector<double> warm;
  for (int round = 0; round < rounds; ++round) {
    zero.push_back(time_us_per_call(reps, [&] {
      benchmark::DoNotOptimize(partitioner.allocate(device, shapes));
    }));
    cold.push_back(time_memo_cold_us(reps, device, partitioner, shapes));
    warm.push_back(time_us_per_call(reps, [&] {
      benchmark::DoNotOptimize(partitioner.allocate(device, shapes, &index));
    }));
  }
  return {device.name(), scenario, LoopStats::of(std::move(zero)),
          LoopStats::of(std::move(cold)), LoopStats::of(std::move(warm))};
}

void write_json(const std::vector<AllocatorResult>& results) {
  const char* env = std::getenv("QUCP_BENCH_OUT");
  const std::string path = (env != nullptr && *env != '\0')
                               ? std::string(env)
                               : std::string("BENCH_allocator.json");
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_allocator: cannot open %s for writing\n",
                 path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"schema\": \"qucp-bench-allocator-v4\",\n");
  bench::write_meta_json(f);
  std::fprintf(f, "  \"smoke\": %s,\n", smoke_mode() ? "true" : "false");
  std::fprintf(f,
               "  \"unit\": \"us_per_batch\",\n"
               "  \"stat\": \"median and min of the per-call means of "
               "%d timed loops; speedups from medians\",\n"
               "  \"results\": [\n",
               timed_loops());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const AllocatorResult& r = results[i];
    std::fprintf(f,
                 "    {\"device\": \"%s\", \"scenario\": \"%s\", "
                 "\"us_zero_budget\": %.2f, \"us_zero_budget_min\": %.2f, "
                 "\"us_memo_cold\": %.2f, \"us_memo_cold_min\": %.2f, "
                 "\"us_memo_warm\": %.2f, \"us_memo_warm_min\": %.2f, "
                 "\"speedup_cold\": %.1f, \"speedup_warm\": %.1f}%s\n",
                 r.device.c_str(), r.scenario.c_str(), r.zero_budget.median,
                 r.zero_budget.min, r.memo_cold.median, r.memo_cold.min,
                 r.memo_warm.median, r.memo_warm.min,
                 speedup(r.zero_budget.median, r.memo_cold.median),
                 speedup(r.zero_budget.median, r.memo_warm.median),
                 i + 1 == results.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s (%zu allocator timings%s)\n", path.c_str(),
              results.size(), smoke_mode() ? ", smoke mode" : "");
}

void print_allocator_table() {
  bench::heading(
      "Partition allocation: us/batch, zero-budget index vs CandidateIndex "
      "memo cold/warm");
  std::vector<Device> devices;
  devices.push_back(make_melbourne16());
  devices.push_back(make_toronto27());
  if (!smoke_mode()) devices.push_back(make_manhattan65());

  std::vector<AllocatorResult> results;
  for (const Device& device : devices) {
    const auto qucp = make_partitioner(Method::QuCP, 4.0, std::nullopt);
    const std::vector<ProgramShape> shapes = batch_shapes();
    const std::vector<std::size_t> order = allocation_order(shapes);
    std::vector<ProgramShape> ordered;
    for (std::size_t idx : order) ordered.push_back(shapes[idx]);

    results.push_back(run_batch_case(device, *qucp, ordered, "qucp_batch4"));
    const std::vector<ProgramShape> solo{ordered.front()};
    results.push_back(run_batch_case(device, *qucp, solo, "qucp_solo"));
    const auto multiqc = make_partitioner(Method::MultiQC, 4.0, std::nullopt);
    results.push_back(
        run_batch_case(device, *multiqc, ordered, "multiqc_batch4"));
  }

  // Each time column: median (min) of the arm's timed loops.
  const auto cell = [](const LoopStats& t) {
    return fmt_double(t.median, 2) + " (" + fmt_double(t.min, 2) + ")";
  };
  bench::row({"device", "scenario", "zero-budget us", "memo cold us",
              "memo warm us", "cold x", "warm x"},
             18);
  bench::rule(7, 18);
  for (const AllocatorResult& r : results) {
    const double zero = r.zero_budget.median;
    bench::row({r.device, r.scenario, cell(r.zero_budget), cell(r.memo_cold),
                cell(r.memo_warm),
                fmt_double(speedup(zero, r.memo_cold.median), 1),
                fmt_double(speedup(zero, r.memo_warm.median), 1)},
               18);
  }
  write_json(results);
}

// google-benchmark timers over the same hot path for perf-diff output.
void BM_AllocateBatchZeroBudget(benchmark::State& state) {
  const Device device = make_toronto27();
  const auto qucp = make_partitioner(Method::QuCP, 4.0, std::nullopt);
  const std::vector<ProgramShape> shapes = batch_shapes();
  for (auto _ : state) {
    benchmark::DoNotOptimize(qucp->allocate(device, shapes));
  }
}
BENCHMARK(BM_AllocateBatchZeroBudget);

void BM_AllocateBatchMemoWarm(benchmark::State& state) {
  const Device device = make_toronto27();
  const CandidateIndex index(device);
  const auto qucp = make_partitioner(Method::QuCP, 4.0, std::nullopt);
  const std::vector<ProgramShape> shapes = batch_shapes();
  for (auto _ : state) {
    benchmark::DoNotOptimize(qucp->allocate(device, shapes, &index));
  }
}
BENCHMARK(BM_AllocateBatchMemoWarm);

void BM_AllocateBatchMemoCold(benchmark::State& state) {
  const Device device = make_toronto27();
  const auto qucp = make_partitioner(Method::QuCP, 4.0, std::nullopt);
  const std::vector<ProgramShape> shapes = batch_shapes();
  for (auto _ : state) {
    state.PauseTiming();
    auto index = std::make_unique<CandidateIndex>(device);
    state.ResumeTiming();
    benchmark::DoNotOptimize(qucp->allocate(device, shapes, index.get()));
    state.PauseTiming();
    index.reset();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_AllocateBatchMemoCold);

}  // namespace

QUCP_BENCH_MAIN(print_allocator_table)
