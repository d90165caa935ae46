// Fleet throughput: what scheduling one job stream across N device
// endpoints buys over saturating a single chip (§II-A's waiting+execution
// framing, lifted to the fleet level). Two artifact sections:
//
//   scaling — the same 64-job queue drained by 1..4 toronto27 backends
//             under LeastLoaded routing. Throughput is modeled device
//             occupancy: each chip runs its batches back to back
//             (parallel_runtime_s per batch, core/runtime.hpp) and the
//             fleet finishes when its busiest chip does — the metric that
//             matters on real clouds, where chips are the scarce resource
//             (this box's wall clock measures simulator cores instead;
//             it is reported alongside for reference).
//   recalibration — the same streamed queue absorbing 4 mid-stream
//             calibration updates, once live (epoch swap, lane never
//             drains: service/backend.hpp) and once drain-the-world
//             (flush before every update). Records the off-lane epoch
//             build (swap) latency, both wall clocks, the drain/live
//             ratio, and how many in-flight batches completed against a
//             superseded epoch.
//   policy  — RoundRobin / LeastLoaded / BestEfs / ExpectedLatency on a
//             heterogeneous toronto27 + manhattan65 fleet: jobs routed per
//             device, cross-device spills, fidelity (avg PST), modeled
//             drain, and per-job route divergence vs LeastLoaded. Two
//             streams: the uniform benchmark mix (3-5 qubit circuits, so
//             near-uniform load leaves policies little to disagree about
//             — equal routed *totals* there are expected, and the
//             divergence count is what shows whether the per-job maps
//             differ), and a width-skewed GHZ stream (2..16 qubits) where
//             load imbalance, batch-fit limits on the 27-qubit chip and
//             calibration differences actually separate the policies.
//             (The scaling section above routes over N identical
//             toronto27s, where every sane policy is equivalent by
//             symmetry — that sweep pins throughput, not routing.)
//
// Writes BENCH_fleet.json (schema qucp-bench-fleet-v3, shared meta block)
// so the 1->4-device scaling trajectory is pinned across PRs like the
// kernel/allocator/fusion artifacts; CI runs it in smoke mode. The
// acceptance bar (4 backends >= 2.5x single-backend throughput on the
// same stream) is re-checked here while the artifact is produced, and
// pinned deterministically by tests/test_service.cpp.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "benchmarks/suite.hpp"
#include "common/strings.hpp"
#include "core/runtime.hpp"
#include "service/service.hpp"

namespace {

using namespace qucp;

bool smoke_mode() {
  const char* env = std::getenv("QUCP_BENCH_SMOKE");
  return env != nullptr && *env != '\0' && *env != '0';
}

constexpr const char* kMix[] = {"adder", "fred", "lin", "4mod",
                                "bell",  "qec",  "alu", "var"};

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

// Width-skewed stream: GHZ chains cycling 2..12 qubits (the noisy
// executor's density-matrix cap), weighted toward small. The 10-12 qubit
// jobs cannot co-run 3+ wide on toronto27 (27 qubits), LeastLoaded's
// qubit-weighted load actually varies 6x, and the two chips' calibrations
// price the wide chains differently — the three levers that make routing
// policies disagree per job.
constexpr int kSkewWidths[] = {2, 3, 4, 4, 6, 8, 10, 12};

std::vector<JobHandle> submit_skewed_queue(ExecutionService& service,
                                           int jobs) {
  std::vector<JobHandle> handles;
  handles.reserve(static_cast<std::size_t>(jobs));
  for (int i = 0; i < jobs; ++i) {
    const int width = kSkewWidths[i % std::size(kSkewWidths)];
    Circuit ghz(width, width,
                "ghz" + std::to_string(width) + "#" + std::to_string(i));
    ghz.h(0);
    for (int q = 1; q < width; ++q) ghz.cx(q - 1, q);
    ghz.measure_all();
    handles.push_back(service.submit(std::move(ghz)));
  }
  return handles;
}

struct DrainResult {
  std::string scenario = "scaling";
  std::size_t backends = 0;
  std::string policy;
  int jobs = 0;
  std::uint64_t batches = 0;
  std::uint64_t cross_device_spills = 0;
  std::vector<std::uint64_t> routed;  ///< jobs per backend
  /// Backend id per submitted job (submission order; -1 = failed) — the
  /// actual routing map, so policies with equal routed totals can still be
  /// told apart per job.
  std::vector<int> job_backend;
  /// Jobs this policy routed to a different backend than LeastLoaded did
  /// on the identical stream (the divergence count the policy table is
  /// about; LeastLoaded rows read 0 by definition).
  std::uint64_t diverged_vs_leastloaded = 0;
  double modeled_drain_s = 0.0;       ///< busiest chip's occupancy
  double wall_ms = 0.0;
  double avg_pst = 0.0;
  double speedup_vs_single = 1.0;
};

using SubmitFn = std::vector<JobHandle> (*)(ExecutionService&, int);

DrainResult drain_queue(std::vector<Device> devices, RoutePolicy policy,
                        int jobs, int shots,
                        SubmitFn submit = submit_queue) {
  RuntimeModel model;
  model.shots = 4096;
  model.queue_depth = 5;

  DrainResult result;
  result.backends = devices.size();
  result.policy = std::string(route_policy_name(policy));
  result.jobs = jobs;

  ServiceOptions opts;
  opts.exec.shots = shots;
  opts.max_batch_size = 4;
  opts.num_workers = 2;
  opts.route_policy = policy;
  ExecutionService service(BackendRegistry(std::move(devices)), opts);

  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<JobHandle> handles = submit(service, jobs);
  service.flush();
  const auto t1 = std::chrono::steady_clock::now();
  result.wall_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();

  double pst_sum = 0.0;
  for (const JobHandle& h : handles) {
    pst_sum += h.result().report.pst_value;
    result.job_backend.push_back(h.status() == JobStatus::Done
                                     ? h.result().batch.backend_id
                                     : -1);
  }
  result.avg_pst = pst_sum / jobs;
  result.modeled_drain_s =
      modeled_fleet_drain_s(handles, result.backends, model);

  const ServiceStats stats = service.stats();
  result.batches = stats.batches_executed;
  result.cross_device_spills = stats.cross_device_spills;
  for (const BackendStats& bs : stats.backends) {
    result.routed.push_back(bs.jobs_routed);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Recalibration: stream a queue through a single backend while its
// calibration updates 4 times mid-stream. "live" swaps epochs without
// draining (in-flight batches finish on their pack-time epoch); "drain"
// flushes the lane before every update — the design the epoch refactor
// replaces. The dip ratio (drain / live wall clock) is what not draining
// buys on this box.

struct RecalSection {
  int jobs = 0;
  std::uint64_t recalibrations = 0;
  double avg_build_ms = 0.0;        ///< mean off-lane epoch build (swap) cost
  double live_wall_ms = 0.0;
  double drain_wall_ms = 0.0;
  double dip_ratio = 1.0;           ///< drain / live
  std::uint64_t stale_epoch_batches = 0;  ///< live run: batches that rode
                                          ///< out a swap on the old epoch
};

RecalSection run_recalibration(int jobs, int shots) {
  RecalSection section;
  section.jobs = jobs;
  const int step = jobs / 5 > 0 ? jobs / 5 : 1;
  for (const bool drain_first : {false, true}) {
    ServiceOptions opts;
    opts.exec.shots = shots;
    opts.max_batch_size = 4;
    opts.num_workers = 2;
    opts.auto_flush_batch_size = 4;  // work streams while we submit
    ExecutionService service(make_toronto27(), opts);
    const Calibration base = service.backend().epoch()->device().calibration();

    double build_s = 0.0;
    std::uint64_t recals = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < jobs; ++i) {
      if (i > 0 && i % step == 0) {
        if (drain_first) service.flush();
        // Mild deterministic drift: CX errors wander a few percent.
        Calibration cal = base;
        const double factor = 1.0 + 0.05 * static_cast<double>(recals % 4);
        for (double& e : cal.cx_error) e = std::min(0.95, e * factor);
        build_s += service.backend().recalibrate(std::move(cal));
        ++recals;
      }
      JobOptions jopts;
      jopts.name = std::string(kMix[i % std::size(kMix)]) + "#" +
                   std::to_string(i);
      (void)service.submit(get_benchmark(kMix[i % std::size(kMix)]).circuit,
                           jopts);
    }
    service.flush();
    const auto t1 = std::chrono::steady_clock::now();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();

    if (drain_first) {
      section.drain_wall_ms = wall_ms;
    } else {
      section.live_wall_ms = wall_ms;
      section.recalibrations = recals;
      section.avg_build_ms =
          recals > 0 ? build_s * 1e3 / static_cast<double>(recals) : 0.0;
      section.stale_epoch_batches = service.stats().stale_epoch_batches;
    }
  }
  section.dip_ratio = section.live_wall_ms > 0.0
                          ? section.drain_wall_ms / section.live_wall_ms
                          : 1.0;
  return section;
}

std::string routed_str(const DrainResult& r) {
  std::string out;
  for (std::size_t i = 0; i < r.routed.size(); ++i) {
    if (i > 0) out += "/";
    out += std::to_string(r.routed[i]);
  }
  return out;
}

void write_json(const std::vector<DrainResult>& results,
                const RecalSection& recal) {
  const char* env = std::getenv("QUCP_BENCH_OUT");
  const std::string path = (env != nullptr && *env != '\0')
                               ? std::string(env)
                               : std::string("BENCH_fleet.json");
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_fleet: cannot open %s for writing\n",
                 path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"schema\": \"qucp-bench-fleet-v3\",\n");
  bench::write_meta_json(f);
  std::fprintf(f, "  \"smoke\": %s,\n", smoke_mode() ? "true" : "false");
  std::fprintf(
      f,
      "  \"recalibration\": {\"jobs\": %d, \"recalibrations\": %llu, "
      "\"avg_build_ms\": %.3f, \"live_wall_ms\": %.1f, "
      "\"drain_wall_ms\": %.1f, \"dip_ratio\": %.3f, "
      "\"stale_epoch_batches\": %llu},\n",
      recal.jobs, static_cast<unsigned long long>(recal.recalibrations),
      recal.avg_build_ms, recal.live_wall_ms, recal.drain_wall_ms,
      recal.dip_ratio,
      static_cast<unsigned long long>(recal.stale_epoch_batches));
  std::fprintf(f,
               "  \"unit\": \"modeled_drain_s (busiest chip occupancy, "
               "waiting+execution)\",\n  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const DrainResult& r = results[i];
    std::fprintf(
        f,
        "    {\"scenario\": \"%s\", \"backends\": %zu, \"policy\": \"%s\", "
        "\"jobs\": %d, "
        "\"batches\": %llu, \"routed\": \"%s\", "
        "\"cross_device_spills\": %llu, "
        "\"diverged_vs_leastloaded\": %llu, \"modeled_drain_s\": %.3f, "
        "\"speedup_vs_single\": %.2f, \"avg_pst\": %.4f, "
        "\"wall_ms\": %.1f}%s\n",
        bench::json_escape(r.scenario).c_str(), r.backends,
        bench::json_escape(r.policy).c_str(), r.jobs,
        static_cast<unsigned long long>(r.batches), routed_str(r).c_str(),
        static_cast<unsigned long long>(r.cross_device_spills),
        static_cast<unsigned long long>(r.diverged_vs_leastloaded),
        r.modeled_drain_s, r.speedup_vs_single, r.avg_pst, r.wall_ms,
        i + 1 == results.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s (%zu fleet timings%s)\n", path.c_str(),
              results.size(), smoke_mode() ? ", smoke mode" : "");
}

void print_fleet_tables() {
  const int jobs = smoke_mode() ? 24 : 64;
  const int shots = smoke_mode() ? 64 : 256;
  std::vector<DrainResult> results;

  bench::heading("Fleet scaling: " + std::to_string(jobs) +
                 "-job queue, N x toronto27, LeastLoaded routing");
  bench::row({"backends", "batches", "routed", "drain_s", "speedup",
              "avg_PST", "wall_ms"});
  bench::rule(7);
  std::vector<std::size_t> sizes{1, 2, 4};
  if (!smoke_mode()) sizes = {1, 2, 3, 4};
  double single_drain = 0.0;
  for (const std::size_t n : sizes) {
    std::vector<Device> devices;
    for (std::size_t i = 0; i < n; ++i) devices.push_back(make_toronto27());
    DrainResult r =
        drain_queue(std::move(devices), RoutePolicy::LeastLoaded, jobs,
                    shots);
    if (n == 1) single_drain = r.modeled_drain_s;
    r.speedup_vs_single = single_drain / r.modeled_drain_s;
    bench::row({std::to_string(n), std::to_string(r.batches),
                routed_str(r), fmt_double(r.modeled_drain_s, 1),
                fmt_double(r.speedup_vs_single, 2) + "x",
                fmt_double(r.avg_pst, 3), fmt_double(r.wall_ms, 0)});
    results.push_back(std::move(r));
  }
  const DrainResult& widest = results.back();
  if (widest.backends == 4 && widest.speedup_vs_single < 2.5) {
    std::fprintf(stderr,
                 "bench_fleet: 4-backend speedup %.2fx below the 2.5x "
                 "acceptance bar\n",
                 widest.speedup_vs_single);
    std::exit(1);
  }
  std::printf(
      "\nEach chip drains its batches back to back; the fleet finishes\n"
      "when its busiest chip does. Wall clock on this box measures\n"
      "simulator cores, not devices — the modeled column is the cloud\n"
      "metric.\n");

  constexpr RoutePolicy kPolicies[] = {
      RoutePolicy::RoundRobin, RoutePolicy::LeastLoaded, RoutePolicy::BestEfs,
      RoutePolicy::ExpectedLatency};
  const struct {
    const char* name;
    SubmitFn submit;
    const char* heading;
  } kScenarios[] = {
      {"uniform", submit_queue,
       "Routing policies: toronto27 + manhattan65, uniform benchmark mix"},
      {"ghz_skew", submit_skewed_queue,
       "Routing policies: toronto27 + manhattan65, width-skewed GHZ 2..12"},
  };
  for (const auto& scenario : kScenarios) {
    bench::heading(scenario.heading + (" (" + std::to_string(jobs) +
                                       " jobs)"));
    bench::row({"policy", "routed", "x_spills", "diverged", "drain_s",
                "avg_PST"});
    bench::rule(6);
    std::vector<int> leastloaded_map;
    for (const RoutePolicy policy : kPolicies) {
      std::vector<Device> devices;
      devices.push_back(make_toronto27());
      devices.push_back(make_manhattan65());
      DrainResult r = drain_queue(std::move(devices), policy, jobs, shots,
                                  scenario.submit);
      r.scenario = scenario.name;
      r.speedup_vs_single = single_drain / r.modeled_drain_s;
      if (policy == RoutePolicy::LeastLoaded) leastloaded_map = r.job_backend;
      results.push_back(std::move(r));
    }
    // Divergence vs LeastLoaded on the identical stream: equal routed
    // totals can hide per-job disagreement, and this count is what shows
    // it. Submission order is the comparison key (each policy run is a
    // fresh deterministic service over the same circuits).
    for (std::size_t i = results.size() - std::size(kPolicies);
         i < results.size(); ++i) {
      DrainResult& r = results[i];
      for (std::size_t j = 0; j < r.job_backend.size(); ++j) {
        if (r.job_backend[j] != leastloaded_map[j]) {
          ++r.diverged_vs_leastloaded;
        }
      }
      bench::row({r.policy, routed_str(r),
                  std::to_string(r.cross_device_spills),
                  std::to_string(r.diverged_vs_leastloaded),
                  fmt_double(r.modeled_drain_s, 1),
                  fmt_double(r.avg_pst, 3)});
    }
  }
  std::printf(
      "\nBestEfs routes each job to the chip where its solo EFS is lowest\n"
      "(x_spills counts placements that followed a fit/threshold rejection\n"
      "on a preferred chip); EFS is a heuristic, so the PST column can\n"
      "move either way on a given mix while the routing itself stays\n"
      "deterministic. 'diverged' counts jobs routed to a different chip\n"
      "than LeastLoaded chose on the same stream: the uniform 3-5 qubit\n"
      "mix gives policies little reason to disagree, while the GHZ width\n"
      "skew (load imbalance, wide-batch fit limits on the 27-qubit chip,\n"
      "calibration-dependent makespans) separates them.\n");

  bench::heading("Live recalibration vs drain-the-world (" +
                 std::to_string(jobs) + " jobs, 4 mid-stream updates)");
  bench::row({"mode", "wall_ms", "build_ms", "stale_batches"});
  bench::rule(4);
  const RecalSection recal = run_recalibration(jobs, shots);
  bench::row({"live", fmt_double(recal.live_wall_ms, 0),
              fmt_double(recal.avg_build_ms, 2),
              std::to_string(recal.stale_epoch_batches)});
  bench::row({"drain", fmt_double(recal.drain_wall_ms, 0), "-", "-"});
  std::printf(
      "\nLive swaps the calibration epoch while batches are in flight\n"
      "(they complete on their pack-time epoch); drain flushes the lane\n"
      "before every update. drain/live wall ratio: %.2fx. build_ms is the\n"
      "off-lane epoch construction the swap pays on the recalibrating\n"
      "thread, not the lane.\n",
      recal.dip_ratio);

  write_json(results, recal);
}

// google-benchmark timers: real wall-clock drain of the worker lanes.
void drain_wall_clock(benchmark::State& state) {
  const std::size_t backends = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    ServiceOptions opts;
    opts.exec.shots = 64;
    opts.max_batch_size = 4;
    opts.num_workers = 2;
    opts.route_policy = RoutePolicy::LeastLoaded;
    std::vector<Device> devices;
    for (std::size_t i = 0; i < backends; ++i) {
      devices.push_back(make_toronto27());
    }
    ExecutionService service(BackendRegistry(std::move(devices)), opts);
    const auto handles = submit_queue(service, 16);
    service.flush();
    benchmark::DoNotOptimize(handles.front().result().report.pst_value);
  }
}
BENCHMARK(drain_wall_clock)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

QUCP_BENCH_MAIN(print_fleet_tables)
