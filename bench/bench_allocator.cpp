// Allocator microbenchmark: per-batch partition-allocation time with and
// without a persistent CandidateIndex, per device. This is the
// ExecutionService's per-batch floor (candidate generation + EFS scoring
// runs before any transpilation cache or simulation kernel can help), so
// the artifact pins the allocator's perf trajectory across PRs the same
// way BENCH_kernels.json pins the simulator's. Writes BENCH_allocator.json
// (schema qucp-bench-allocator-v3); CI runs it in smoke mode.
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

/// Representative service batch: four programs, largest-first (the order
/// run_batch_pipeline feeds the partitioner).
std::vector<ProgramShape> batch_shapes() {
  return {{5, 10, 10}, {4, 7, 8}, {3, 4, 6}, {2, 3, 3}};
}

struct AllocatorResult {
  std::string device;
  std::string scenario;
  double us_zero_budget = 0.0;
  double us_memo_cold = 0.0;
  double us_memo_warm = 0.0;
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

  // Interleaved best-of-rounds so one scheduler hiccup cannot skew an arm.
  const int rounds = smoke_mode() ? 3 : 12;
  const int reps = smoke_mode() ? 40 : 400;
  AllocatorResult result;
  result.device = device.name();
  result.scenario = scenario;
  for (int round = 0; round < rounds; ++round) {
    const double zero = time_us_per_call(reps, [&] {
      benchmark::DoNotOptimize(partitioner.allocate(device, shapes));
    });
    const double cold = time_memo_cold_us(reps, device, partitioner, shapes);
    const double warm = time_us_per_call(reps, [&] {
      benchmark::DoNotOptimize(partitioner.allocate(device, shapes, &index));
    });
    if (round == 0 || zero < result.us_zero_budget) {
      result.us_zero_budget = zero;
    }
    if (round == 0 || cold < result.us_memo_cold) result.us_memo_cold = cold;
    if (round == 0 || warm < result.us_memo_warm) result.us_memo_warm = warm;
  }
  return result;
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
  std::fprintf(f, "{\n  \"schema\": \"qucp-bench-allocator-v3\",\n");
  bench::write_meta_json(f);
  std::fprintf(f, "  \"smoke\": %s,\n", smoke_mode() ? "true" : "false");
  std::fprintf(f, "  \"unit\": \"us_per_batch\",\n  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const AllocatorResult& r = results[i];
    std::fprintf(f,
                 "    {\"device\": \"%s\", \"scenario\": \"%s\", "
                 "\"us_zero_budget\": %.2f, \"us_memo_cold\": %.2f, "
                 "\"us_memo_warm\": %.2f, \"speedup_cold\": %.1f, "
                 "\"speedup_warm\": %.1f}%s\n",
                 r.device.c_str(), r.scenario.c_str(), r.us_zero_budget,
                 r.us_memo_cold, r.us_memo_warm,
                 speedup(r.us_zero_budget, r.us_memo_cold),
                 speedup(r.us_zero_budget, r.us_memo_warm),
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
    const QucpPartitioner qucp(4.0);
    const std::vector<ProgramShape> shapes = batch_shapes();
    const std::vector<std::size_t> order = allocation_order(shapes);
    std::vector<ProgramShape> ordered;
    for (std::size_t idx : order) ordered.push_back(shapes[idx]);

    results.push_back(run_batch_case(device, qucp, ordered, "qucp_batch4"));
    const std::vector<ProgramShape> solo{ordered.front()};
    results.push_back(run_batch_case(device, qucp, solo, "qucp_solo"));
    const MultiqcPartitioner multiqc;
    results.push_back(
        run_batch_case(device, multiqc, ordered, "multiqc_batch4"));
  }

  bench::row({"device", "scenario", "zero-budget us", "memo cold us",
              "memo warm us",
              "cold x", "warm x"},
             16);
  bench::rule(7, 16);
  for (const AllocatorResult& r : results) {
    bench::row({r.device, r.scenario, fmt_double(r.us_zero_budget, 2),
                fmt_double(r.us_memo_cold, 2), fmt_double(r.us_memo_warm, 2),
                fmt_double(speedup(r.us_zero_budget, r.us_memo_cold), 1),
                fmt_double(speedup(r.us_zero_budget, r.us_memo_warm), 1)},
               16);
  }
  write_json(results);
}

// google-benchmark timers over the same hot path for perf-diff output.
void BM_AllocateBatchZeroBudget(benchmark::State& state) {
  const Device device = make_toronto27();
  const QucpPartitioner qucp(4.0);
  const std::vector<ProgramShape> shapes = batch_shapes();
  for (auto _ : state) {
    benchmark::DoNotOptimize(qucp.allocate(device, shapes));
  }
}
BENCHMARK(BM_AllocateBatchZeroBudget);

void BM_AllocateBatchMemoWarm(benchmark::State& state) {
  const Device device = make_toronto27();
  const CandidateIndex index(device);
  const QucpPartitioner qucp(4.0);
  const std::vector<ProgramShape> shapes = batch_shapes();
  for (auto _ : state) {
    benchmark::DoNotOptimize(qucp.allocate(device, shapes, &index));
  }
}
BENCHMARK(BM_AllocateBatchMemoWarm);

void BM_AllocateBatchMemoCold(benchmark::State& state) {
  const Device device = make_toronto27();
  const QucpPartitioner qucp(4.0);
  const std::vector<ProgramShape> shapes = batch_shapes();
  for (auto _ : state) {
    state.PauseTiming();
    auto index = std::make_unique<CandidateIndex>(device);
    state.ResumeTiming();
    benchmark::DoNotOptimize(qucp.allocate(device, shapes, index.get()));
    state.PauseTiming();
    index.reset();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_AllocateBatchMemoCold);

}  // namespace

QUCP_BENCH_MAIN(print_allocator_table)
