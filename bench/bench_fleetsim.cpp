// Policy evaluation at cloud scale: replay up to one million jobs of
// modeled traffic through the discrete-event fleet simulator
// (src/fleetsim/) and compare routing policies where it matters — the
// latency tail. The online service can drain dozens of jobs per run;
// "millions of users" (§I) is a statement about the arrival stream, and
// only an offline model can afford to ask what RoundRobin vs
// ExpectedLatency does to p99 under a week of bursty traffic.
//
// The fleet is heterogeneous (2x toronto27 + 2x manhattan65) and the job
// classes are the benchmark suite circuits with *real* per-device
// footprints: each class is partitioned (QuCP), transpiled onto its
// partition, and ALAP-scheduled on every device, so the simulator's
// makespans carry the same topology and calibration signal the online
// path sees. The simulator plans every dispatch cycle with the service's
// FleetScheduler over these devices, so batching, routing and each job's
// EFS are the service's. Three arrival shapes (Poisson / bursty MMPP-2 /
// diurnal) cross four routing policies; every run is a pure function of
// the seed, and the determinism contract (same seed => identical trace
// hash) is re-checked here while the artifact is produced.
//
// Writes BENCH_fleetsim.json (schema qucp-bench-fleetsim-v1, shared meta
// block). The acceptance bar — ExpectedLatency beats both LeastLoaded and
// BestEfs on modeled p95 latency under at least one arrival shape — is
// enforced at exit like bench_fleet's throughput bar. CI runs smoke mode (~10k jobs);
// the committed artifact is the full 1M-job sweep.

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "benchmarks/suite.hpp"
#include "common/strings.hpp"
#include "core/parallel.hpp"
#include "fleetsim/arrivals.hpp"
#include "fleetsim/simulator.hpp"
#include "fleetsim/stats.hpp"
#include "mapping/transpiler.hpp"
#include "partition/partitioners.hpp"
#include "schedule/schedule.hpp"
#include "service/backend.hpp"
#include "service/fleet.hpp"

namespace {

using namespace qucp;
using namespace qucp::fleetsim;

bool smoke_mode() {
  const char* env = std::getenv("QUCP_BENCH_SMOKE");
  return env != nullptr && *env != '\0' && *env != '0';
}

constexpr std::uint64_t kSeed = 20260807;

// The traffic mix: every benchmark circuit, weighted toward the small
// ones (real queues are mostly shallow jobs with a heavy-ish tail).
constexpr const char* kClasses[] = {"bell", "4mod", "lin",   "alu",
                                    "var",  "qec",  "adder", "fred"};
constexpr double kWeights[] = {4.0, 3.0, 3.0, 2.0, 2.0, 2.0, 1.0, 1.0};

BackendRegistry make_fleet() {
  return BackendRegistry({make_toronto27(), make_toronto27(),
                          make_manhattan65(), make_manhattan65()});
}

/// Real per-device footprints: partition with QuCP, transpile onto the
/// chosen partition, ALAP-schedule on the device. The simulator then
/// replays these exact makespans — no shape heuristics in the artifact.
std::vector<SimJobClass> build_classes(const BackendRegistry& fleet) {
  const auto partitioner = make_partitioner(Method::QuCP, 4.0, std::nullopt);
  std::vector<SimJobClass> classes;
  for (const char* name : kClasses) {
    const BenchmarkSpec& spec = get_benchmark(name);
    SimJobClass cls{name, shape_of(spec.circuit),
                    circuit_fingerprint(spec.circuit), {}};
    for (std::size_t d = 0; d < fleet.size(); ++d) {
      const auto epoch = fleet.at(d).epoch();
      const Device& device = epoch->device();
      const ProgramShape shapes[] = {cls.shape};
      const auto alloc = partitioner->allocate(device, shapes,
                                               &epoch->candidate_index());
      if (!alloc) {
        cls.makespan_ns.push_back(-1.0);
        continue;
      }
      const TranspiledProgram tp = epoch->transpile(
          spec.circuit, (*alloc)[0].qubits, hardware_aware_options(), 0);
      cls.makespan_ns.push_back(
          schedule_circuit(tp.physical, device, SchedulePolicy::ALAP)
              .makespan_ns);
    }
    classes.push_back(std::move(cls));
  }
  return classes;
}

ArrivalConfig make_scenario(std::string_view name) {
  // The 4-device fleet drains roughly 2 jobs/s of this mix (batch of 4 in
  // ~8s of modeled device time), so the rates below put Poisson at ~75%
  // load, bursts well past saturation, and the diurnal peak just past it.
  ArrivalConfig config;
  config.class_weights.assign(std::begin(kWeights), std::end(kWeights));
  if (name == "poisson") {
    config.kind = ArrivalKind::Poisson;
    config.rate_per_s = 1.5;
  } else if (name == "bursty") {
    config.kind = ArrivalKind::Bursty;
    config.rate_per_s = 0.9;
    config.burst_factor = 8.0;
    config.calm_mean_s = 240.0;
    config.burst_mean_s = 30.0;
  } else {
    config.kind = ArrivalKind::Diurnal;
    config.rate_per_s = 1.5;
    config.diurnal_period_s = 14400.0;  // 4h "days": cycles even in smoke
    config.diurnal_depth = 0.8;
  }
  return config;
}

struct SimRow {
  std::string scenario;
  std::string policy;
  TraceSummary summary;
  double wall_ms = 0.0;
};

std::string slash_join(std::span<const std::uint64_t> v) {
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += "/";
    out += std::to_string(v[i]);
  }
  return out;
}

std::string util_join(std::span<const double> v) {
  char buf[32];
  std::string out;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += "/";
    std::snprintf(buf, sizeof buf, "%.2f", v[i]);
    out += buf;
  }
  return out;
}

void write_json(const std::vector<SimRow>& rows,
                const std::vector<SimJobClass>& classes, std::size_t jobs) {
  const char* env = std::getenv("QUCP_BENCH_OUT");
  const std::string path = (env != nullptr && *env != '\0')
                               ? std::string(env)
                               : std::string("BENCH_fleetsim.json");
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_fleetsim: cannot open %s for writing\n",
                 path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"schema\": \"qucp-bench-fleetsim-v1\",\n");
  bench::write_meta_json(f);
  std::fprintf(f, "  \"smoke\": %s,\n", smoke_mode() ? "true" : "false");
  std::fprintf(f,
               "  \"fleet\": \"2x toronto27 + 2x manhattan65\",\n"
               "  \"jobs_per_run\": %zu,\n  \"seed\": %" PRIu64 ",\n",
               jobs, kSeed);
  std::fprintf(f, "  \"classes\": [\n");
  for (std::size_t i = 0; i < classes.size(); ++i) {
    const SimJobClass& c = classes[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"qubits\": %d, \"weight\": %.1f, "
                 "\"makespan_ns\": [",
                 bench::json_escape(c.name).c_str(), c.shape.num_qubits,
                 kWeights[i]);
    for (std::size_t d = 0; d < c.makespan_ns.size(); ++d) {
      std::fprintf(f, "%s%.1f", d > 0 ? ", " : "", c.makespan_ns[d]);
    }
    std::fprintf(f, "]}%s\n", i + 1 == classes.size() ? "" : ",");
  }
  std::fprintf(f,
               "  ],\n  \"unit\": \"modeled seconds (latency = waiting + "
               "execution, \\u00a7II-A)\",\n  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SimRow& r = rows[i];
    const TraceSummary& s = r.summary;
    std::fprintf(
        f,
        "    {\"scenario\": \"%s\", \"policy\": \"%s\", \"jobs\": %zu, "
        "\"horizon_s\": %.1f, \"mean_latency_s\": %.3f, "
        "\"p50_latency_s\": %.3f, \"p95_latency_s\": %.3f, "
        "\"p99_latency_s\": %.3f, \"max_latency_s\": %.3f, "
        "\"mean_wait_s\": %.3f, \"mean_efs\": %.4f, "
        "\"utilization\": \"%s\", \"routed\": \"%s\", \"batches\": \"%s\", "
        "\"trace_hash\": \"%016" PRIx64 "\", \"wall_ms\": %.1f}%s\n",
        bench::json_escape(r.scenario).c_str(),
        bench::json_escape(r.policy).c_str(), s.jobs, s.horizon_s,
        s.mean_latency_s, s.p50_latency_s, s.p95_latency_s, s.p99_latency_s,
        s.max_latency_s, s.mean_wait_s, s.mean_efs,
        util_join(s.utilization).c_str(), slash_join(s.routed).c_str(),
        slash_join(s.batches).c_str(), s.trace_hash, r.wall_ms,
        i + 1 == rows.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s (%zu simulations%s)\n", path.c_str(), rows.size(),
              smoke_mode() ? ", smoke mode" : "");
}

constexpr RoutePolicy kPolicies[] = {
    RoutePolicy::RoundRobin, RoutePolicy::LeastLoaded, RoutePolicy::BestEfs,
    RoutePolicy::ExpectedLatency};

void print_fleetsim_tables() {
  const std::size_t jobs = smoke_mode() ? 10'000 : 1'000'000;
  const BackendRegistry fleet = make_fleet();
  const std::vector<SimJobClass> classes = build_classes(fleet);

  std::vector<SimRow> rows;
  bool el_wins_somewhere = false;

  for (const char* scenario : {"poisson", "bursty", "diurnal"}) {
    const ArrivalConfig config = make_scenario(scenario);
    const std::vector<Arrival> arrivals =
        generate_arrivals(config, jobs, kSeed);

    bench::heading(std::string("fleetsim: ") + scenario + " arrivals, " +
                   std::to_string(jobs) + " jobs, 2x toronto27 + 2x "
                   "manhattan65");
    bench::row({"policy", "p50_s", "p95_s", "p99_s", "mean_wait_s",
                "mean_efs", "util_pct", "wall_ms"},
               16);
    bench::rule(8, 16);

    double p95[4] = {};
    for (const RoutePolicy policy : kPolicies) {
      SimOptions sopts;
      sopts.policy = policy;
      sopts.max_batch_size = 4;
      sopts.model.shots = 4096;
      const FleetSimulator sim(classes, fleet, sopts);

      const auto t0 = std::chrono::steady_clock::now();
      const SimTrace trace = sim.run(arrivals);
      const auto t1 = std::chrono::steady_clock::now();

      SimRow row;
      row.scenario = scenario;
      row.policy = std::string(route_policy_name(policy));
      row.summary = summarize(trace);
      row.wall_ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();

      // Determinism contract, re-checked while the artifact is produced:
      // the same arrivals replayed through a fresh simulator must give a
      // bit-identical trace.
      if (policy == RoutePolicy::ExpectedLatency) {
        const SimTrace replay = sim.run(arrivals);
        if (replay.hash() != trace.hash()) {
          std::fprintf(stderr,
                       "bench_fleetsim: %s/%s trace not reproducible\n",
                       scenario, row.policy.c_str());
          std::exit(1);
        }
      }

      std::string util_pct;
      for (std::size_t d = 0; d < row.summary.utilization.size(); ++d) {
        if (d > 0) util_pct += "/";
        util_pct += std::to_string(
            static_cast<int>(row.summary.utilization[d] * 100.0 + 0.5));
      }
      bench::row({row.policy, fmt_double(row.summary.p50_latency_s, 1),
                  fmt_double(row.summary.p95_latency_s, 1),
                  fmt_double(row.summary.p99_latency_s, 1),
                  fmt_double(row.summary.mean_wait_s, 1),
                  fmt_double(row.summary.mean_efs, 3), util_pct,
                  fmt_double(row.wall_ms, 0)},
                 16);

      p95[static_cast<int>(policy)] = row.summary.p95_latency_s;
      rows.push_back(std::move(row));
    }
    // The acceptance claim: queue-aware routing beats both the load
    // balancer and the fidelity-first router on the modeled latency tail
    // for at least one traffic shape on this heterogeneous fleet. Past
    // saturation every work-conserving policy converges (the queue, not
    // the routing, dominates), so one clear win is the honest bar.
    const double el = p95[static_cast<int>(RoutePolicy::ExpectedLatency)];
    if (el < p95[static_cast<int>(RoutePolicy::LeastLoaded)] &&
        el < p95[static_cast<int>(RoutePolicy::BestEfs)]) {
      el_wins_somewhere = true;
    }
  }
  std::printf(
      "\nLatency is modeled waiting + execution per job. Below saturation\n"
      "the tail percentiles separate the policies — queue-blind routing\n"
      "parks the tail behind whichever chip it overloads, and\n"
      "ExpectedLatency's modeled-wait scoring avoids that; past it the\n"
      "queue, not the routing, dominates.\n");

  if (!el_wins_somewhere) {
    std::fprintf(stderr,
                 "bench_fleetsim: ExpectedLatency p95 not below both "
                 "LeastLoaded and BestEfs on any scenario\n");
    std::exit(1);
  }

  write_json(rows, classes, jobs);
}

// google-benchmark timer: simulator throughput (jobs simulated per second
// of wall clock) on a 10k-job Poisson stream per policy.
void sim_throughput(benchmark::State& state) {
  const auto policy = static_cast<RoutePolicy>(state.range(0));
  const BackendRegistry fleet = make_fleet();
  const std::vector<SimJobClass> classes = build_classes(fleet);
  const std::vector<Arrival> arrivals =
      generate_arrivals(make_scenario("poisson"), 10'000, kSeed);
  SimOptions sopts;
  sopts.policy = policy;
  sopts.model.shots = 4096;
  const FleetSimulator sim(classes, fleet, sopts);
  for (auto _ : state) {
    const SimTrace trace = sim.run(arrivals);
    benchmark::DoNotOptimize(trace.horizon_s);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10'000);
}
BENCHMARK(sim_throughput)
    ->Arg(static_cast<int>(RoutePolicy::RoundRobin))
    ->Arg(static_cast<int>(RoutePolicy::ExpectedLatency))
    ->Unit(benchmark::kMillisecond);

}  // namespace

QUCP_BENCH_MAIN(print_fleetsim_tables)
