// e2e_bench: one workload through the ExecutionService, end to end.
//
//   e2e_bench --workload <cloud_poisson|unique_burst|vqe_sweep>
//             --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the service and reports the end-to-end metrics.
// --trace 1 runs the same service pass, then replays its batches through
// each layer with one span per call and reports the per-layer metrics.
// Either way the outputs are checked; on a violation the workload and job
// are named on stderr and the exit code is 1. The last stdout line is
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <set>
#include <string>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/runtime.hpp"
#include "e2e.hpp"

namespace {

using namespace e2e;

struct Args {
  Workload workload = Workload::CloudPoisson;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload "
               "<cloud_poisson|unique_burst|vqe_sweep> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  int seen = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        const auto w = parse_workload(value);
        if (!w) usage("unknown workload");
        a.workload = *w;
      } else if (key == "--seed") {
        a.seed = std::stoull(value);
      } else if (key == "--seconds") {
        a.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
      } else {
        usage("unknown argument");
      }
    } catch (const std::logic_error&) {
      usage("malformed number");
    }
    ++seen;
  }
  if (seen != 4 || argc != 9) usage("all four arguments are required");
  if (!(a.seconds > 0.0) || a.seconds > 120.0) {
    usage("--seconds must be in (0, 120]");
  }
  return a;
}

/// Nearest-rank percentile (p in [0, 1]); 0 for an empty sample.
double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const std::size_t idx = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size())));
  return values[idx - 1];
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  bool in_json = true;  ///< false: printed for reading only
};

std::string job_name(const Traffic& traffic, const JobRecord& r) {
  return r.warmup ? Traffic::warmup_job(r.index).name
                  : traffic.job(r.index).name;
}

/// Service-run checks: terminal states, counter conservation, per-job
/// report consistency (done in the waiter) and batch composition.
std::vector<std::string> check_service_run(const Traffic& traffic,
                                           const ServiceRun& run) {
  std::vector<std::string> bad;
  const auto name = [&](const JobRecord& r) { return job_name(traffic, r); };
  std::map<std::pair<int, std::uint64_t>, std::vector<const JobRecord*>>
      batches;
  for (const JobRecord& r : run.jobs) {
    if (!r.done && r.error.empty()) {
      bad.push_back("job '" + name(r) + "' never reached Done or Failed");
    } else if (r.done && !r.error.empty()) {
      bad.push_back("job '" + name(r) + "': " + r.error);
    }
    if (r.done) batches[{r.batch.backend_id, r.batch.batch_index}].push_back(&r);
  }
  const qucp::ServiceStats& s = run.stats_final;
  if (s.jobs_submitted != run.jobs.size() ||
      s.jobs_submitted != s.jobs_completed + s.jobs_failed ||
      run.pending_after_flush != 0) {
    bad.push_back("ServiceStats do not conserve: submitted " +
                  std::to_string(s.jobs_submitted) + " (benchmark " +
                  std::to_string(run.jobs.size()) + "), completed " +
                  std::to_string(s.jobs_completed) + ", failed " +
                  std::to_string(s.jobs_failed) + ", pending " +
                  std::to_string(run.pending_after_flush));
  }
  for (const auto& [key, members] : batches) {
    std::set<int> used;
    std::size_t qubits = 0;
    for (const JobRecord* r : members) {
      used.insert(r->result.partition.begin(), r->result.partition.end());
      qubits += r->result.partition.size();
      if (r->exclusive && members.size() != 1) {
        bad.push_back("exclusive job '" + name(*r) + "' shared a batch");
      }
    }
    const JobRecord& first = *members.front();
    if (used.size() != qubits || members.size() != first.batch.batch_size ||
        members.size() > static_cast<std::size_t>(kMaxBatchSize)) {
      bad.push_back("batch " + std::to_string(key.second) + " (job '" +
                    name(first) +
                    "') has overlapping partitions or a wrong size");
    }
  }
  return bad;
}

/// Folded over every measured job's partition and counts, in submission
/// order.
std::uint64_t results_hash(const ServiceRun& run) {
  std::uint64_t h = qucp::kFnv1aBasis;
  for (const JobRecord& r : run.jobs) {
    if (r.warmup) continue;
    for (int q : r.result.partition) {
      h = qucp::fnv1a_mix(h, static_cast<std::uint64_t>(q));
    }
    h = qucp::fnv1a_mix(h, r.result.counts_fp);
  }
  return h;
}

std::vector<Metric> end_to_end(const ServiceRun& run, std::size_t measured,
                               std::size_t completed) {
  double pst_sum = 0.0;
  double jsd_sum = 0.0;
  std::map<std::pair<int, std::uint64_t>, const BatchFacts*> batches;
  for (const JobRecord& r : run.jobs) {
    if (r.warmup || !r.done) continue;
    pst_sum += r.result.pst;
    jsd_sum += r.result.jsd;
    batches[{r.batch.backend_id, r.batch.batch_index}] = &r.batch;
  }
  // hw_throughput: mean over batches of BatchStats::throughput.
  // modeled_drain_s: modeled_fleet_drain_s's rule (each chip runs its
  // batches back to back; the fleet drains when its busiest chip does)
  // under RuntimeModel{} with shots = kShots.
  qucp::RuntimeModel model;
  model.shots = kShots;
  double throughput_sum = 0.0;
  std::vector<double> occupancy(fleet_devices().size(), 0.0);
  for (const auto& [key, b] : batches) {
    throughput_sum += b->throughput;
    occupancy.at(static_cast<std::size_t>(key.first)) +=
        qucp::parallel_runtime_s(model, b->makespan_ns);
  }
  const double done = static_cast<double>(completed);
  return {
      {"setup_s", median(run.setup_cpu_s), "s"},
      {"cpu_us_per_job", run.service_cpu_s * 1e6 / done, "us"},
      {"peak_rss_mb", run.peak_rss_mb, "MB"},
      {"mean_pst", pst_sum / done, "frac"},
      {"mean_jsd", jsd_sum / done, "frac"},
      {"hw_throughput",
       throughput_sum / static_cast<double>(batches.size()), "frac"},
      {"modeled_drain_s",
       *std::max_element(occupancy.begin(), occupancy.end()), "s"},
      // Printed only: a bounded metric may not read 0, and the JSON
      // carries failures as attempted/failed.
      {"failed_frac",
       static_cast<double>(measured - completed) /
           static_cast<double>(measured),
       "frac", false},
  };
}

/// The service run's wall-clock view: whole-run latency percentiles over
/// every request and completed jobs per second of the measured span. Not
/// bounded — on a shared host they follow the capacity the host grants —
/// so --trace 0 only prints them and --trace 1 records them unbounded.
std::vector<Metric> wall_clock(const ServiceRun& run, std::size_t completed,
                               bool in_json) {
  std::vector<double> latency;
  for (const Request& r : run.requests) {
    latency.push_back((r.end_s - r.start_s) * 1e3);
  }
  return {
      {"jobs_per_s",
       static_cast<double>(completed) /
           (run.measure_end_s - run.measure_start_s),
       "1/s", in_json},
      {"latency_p50_ms", percentile(latency, 0.50), "ms", in_json},
      {"latency_p90_ms", percentile(latency, 0.90), "ms", in_json},
      {"latency_p99_ms", percentile(latency, 0.99), "ms", in_json},
      {"setup_wall_s", median(run.setup_wall_s), "s", in_json},
  };
}

/// The replay's transpile-cache and sweep counters must equal the
/// service's own ServiceStats over the measured traffic.
std::vector<std::string> check_counters(const ServiceRun& run,
                                        const ReplayReport& rep) {
  std::vector<std::string> bad;
  const auto fields = [](const qucp::TranspileCacheStats& c) {
    return std::array<std::uint64_t, 4>{c.hits, c.structural_hits, c.misses,
                                        c.bind_fallbacks};
  };
  for (std::size_t b = 0; b < run.stats_final.backends.size(); ++b) {
    const qucp::BackendStats& end = run.stats_final.backends[b];
    const qucp::BackendStats& start = run.stats_after_setup.backends[b];
    std::array<std::uint64_t, 4> service = fields(end.transpile_cache);
    if (end.calibration_epoch == start.calibration_epoch) {
      const std::array<std::uint64_t, 4> before = fields(start.transpile_cache);
      for (std::size_t i = 0; i < service.size(); ++i) service[i] -= before[i];
    }
    const std::array<std::uint64_t, 4> replayed = fields(rep.backend_cache.at(b));
    if (service != replayed) {
      const auto list = [](const std::array<std::uint64_t, 4>& v) {
        return std::to_string(v[0]) + "/" + std::to_string(v[1]) + "/" +
               std::to_string(v[2]) + "/" + std::to_string(v[3]);
      };
      bad.push_back("backend " + std::to_string(b) +
                    " transpile cache (hits/structural/misses/fallbacks): "
                    "service " + list(service) + ", replay " + list(replayed));
    }
  }
  const std::uint64_t groups = run.stats_final.sweep_groups -
                               run.stats_after_setup.sweep_groups;
  const std::uint64_t binds = run.stats_final.batched_binds -
                              run.stats_after_setup.batched_binds;
  if (groups != rep.sweep_groups || binds != rep.batched_binds) {
    bad.push_back("sweep groups/batched binds: service " +
                  std::to_string(groups) + "/" + std::to_string(binds) +
                  ", replay " + std::to_string(rep.sweep_groups) + "/" +
                  std::to_string(rep.batched_binds));
  }
  return bad;
}

/// `traced` replays every cycle; `overhead_pct` compares replays of the
/// same cycles with and without spans.
std::vector<Metric> per_layer(const ServiceRun& run,
                              const ReplayReport& traced, double overhead_pct,
                              std::size_t completed) {
  const double jobs = static_cast<double>(traced.measured_jobs);
  const auto layer = [&](const char* name) { return traced.layer_s.at(name); };
  const auto us_per_job = [&](const char* name) {
    return layer(name) * 1e6 / jobs;
  };

  std::vector<double> intake_us;
  std::vector<double> cycle_us;
  for (const CallRecord& c : run.calls) {
    (c.dispatched ? cycle_us : intake_us)
        .push_back((c.end_s - c.start_s) * 1e6);
  }
  std::vector<double> formation_ms;
  std::vector<double> lag_ms;
  std::vector<double> queue_ms;
  for (const JobRecord& r : run.jobs) {
    if (r.warmup) continue;
    const double formation = run.cycles[r.cycle].start_s - r.due_s;
    formation_ms.push_back(formation * 1e3);
    lag_ms.push_back((r.sent_s - r.due_s) * 1e3);
    if (!r.done) continue;
    const auto it =
        traced.batch_s.find({r.batch.backend_id, r.batch.batch_index});
    const double pipeline = it == traced.batch_s.end() ? 0.0 : it->second;
    queue_ms.push_back((r.done_s - r.due_s - formation - pipeline) * 1e3);
  }

  const auto delta = [&](auto field) {
    return static_cast<double>(field(run.stats_final) -
                               field(run.stats_after_setup));
  };
  const double batches =
      delta([](const qucp::ServiceStats& s) { return s.batches_executed; });
  std::size_t active_lanes = 0;
  for (std::size_t b = 0; b < run.stats_final.backends.size(); ++b) {
    if (run.stats_final.backends[b].batches_executed >
        run.stats_after_setup.backends[b].batches_executed) {
      ++active_lanes;
    }
  }
  const qucp::TranspileCacheStats& c = traced.cache;
  const double lookups = static_cast<double>(c.hits + c.structural_hits +
                                             c.misses + c.bind_fallbacks);
  double replay_self_s = 0.0;
  for (const auto& [name, s] : traced.layer_s) {
    if (name != "backend.recalibrate") replay_self_s += s;
  }
  const double wall = run.measure_end_s - run.measure_start_s;
  const double busy_per_job =
      wall * static_cast<double>(active_lanes) / static_cast<double>(completed);
  std::size_t done_jobs = 0;  // warm-up included: the replay checks those too
  for (const JobRecord& r : run.jobs) done_jobs += r.done;
  const double match = static_cast<double>(traced.matched_jobs) /
                       static_cast<double>(done_jobs);

  return {
      {"intake.submit_us_p50", percentile(intake_us, 0.50), "us"},
      {"intake.submit_us_p99", percentile(intake_us, 0.99), "us"},
      {"dispatch.cycle_us_p50", percentile(cycle_us, 0.50), "us"},
      {"dispatch.cycle_us_p99", percentile(cycle_us, 0.99), "us"},
      {"dispatch.jobs_per_cycle",
       jobs / static_cast<double>(traced.measured_cycles), "jobs"},
      {"fleet.plan_us_per_job", us_per_job("fleet.plan"), "us"},
      {"fleet.batches", batches, "count"},
      {"fleet.mean_batch_size", static_cast<double>(completed) / batches,
       "jobs"},
      {"fleet.spill_events",
       delta([](const qucp::ServiceStats& s) { return s.spill_events; }),
       "count"},
      {"fleet.cross_device_spills",
       delta([](const qucp::ServiceStats& s) { return s.cross_device_spills; }),
       "count"},
      {"fleet.reservation_jobs",
       delta([](const qucp::ServiceStats& s) { return s.reservation_jobs; }),
       "count"},
      {"partition.allocate_us_per_batch",
       layer("partition") * 1e6 /
           static_cast<double>(traced.measured_batches),
       "us"},
      {"partition.replay_match", match, "frac"},
      {"mapping.transpile_us_per_job", us_per_job("mapping"), "us"},
      {"mapping.exact_hits", static_cast<double>(c.hits), "count"},
      {"mapping.structural_hits", static_cast<double>(c.structural_hits),
       "count"},
      {"mapping.misses", static_cast<double>(c.misses), "count"},
      {"mapping.bind_fallbacks", static_cast<double>(c.bind_fallbacks),
       "count"},
      {"mapping.hit_ratio",
       static_cast<double>(c.hits + c.structural_hits) / lookups, "frac"},
      {"mapping.swaps_per_job", traced.swaps / jobs, "count"},
      {"sim.execute_us_per_job", us_per_job("sim.execute"), "us"},
      {"sim.ops_per_job", traced.physical_ops / jobs, "count"},
      {"sim.qubits_per_batch",
       traced.qubits_used / static_cast<double>(traced.measured_batches),
       "count"},
      {"sim.crosstalk_events", traced.crosstalk_events, "count"},
      {"sim.ideal_us_per_job", us_per_job("sim.ideal"), "us"},
      {"fusion.plan_builds", static_cast<double>(traced.plan_builds), "count"},
      {"fusion.plan_hits", static_cast<double>(traced.plan_hits), "count"},
      {"metrics.score_us_per_job", us_per_job("metrics"), "us"},
      {"schedule.us_per_job", us_per_job("schedule"), "us"},
      {"backend.recalibrate_ms", traced.recalibrate_ms, "ms"},
      {"backend.stale_epoch_batches",
       delta([](const qucp::ServiceStats& s) { return s.stale_epoch_batches; }),
       "count"},
      {"lanes.queue_wait_ms_p50", percentile(queue_ms, 0.50), "ms"},
      {"loadgen.formation_wait_ms_p50", percentile(formation_ms, 0.50), "ms"},
      {"loadgen.lag_p99_ms", percentile(lag_ms, 0.99), "ms"},
      {"trace.overhead_pct", overhead_pct, "%"},
      {"trace.reconcile_ratio", replay_self_s / jobs / busy_per_job, "ratio"},
  };
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const std::string_view wname = workload_name(args.workload);
  try {
    const Traffic traffic(args.workload, args.seed, args.seconds);
    const ServiceRun run = run_service(traffic);

    std::vector<std::string> violations = check_service_run(traffic, run);
    const std::size_t measured = traffic.size();
    std::size_t completed = 0;
    for (const JobRecord& r : run.jobs) completed += !r.warmup && r.done;

    std::printf("e2e_bench workload=%.*s seed=%llu seconds=%g trace=%d\n",
                static_cast<int>(wname.size()), wname.data(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    qucp::bench::write_meta_json(stdout);
    const std::size_t n = run.requests.size();
    const auto beyond = [n](double p) {
      return n - static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
    };
    std::size_t cycles = 0;
    for (const CycleRecord& c : run.cycles) cycles += !c.warmup;
    std::printf(
        "  jobs=%zu completed=%zu cycles=%zu requests=%zu (beyond p90: %zu, "
        "beyond p99: %zu) results_hash=%016llx\n",
        measured, completed, cycles, n, beyond(0.90), beyond(0.99),
        static_cast<unsigned long long>(results_hash(run)));

    for (const JobRecord& r : run.jobs) {
      if (!r.done && !r.error.empty()) {
        std::printf("  first failed job: '%s': %s\n",
                    job_name(traffic, r).c_str(), r.error.c_str());
        break;
      }
    }

    const auto print = [](const std::vector<Metric>& list) {
      for (const Metric& m : list) {
        std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
      }
    };
    std::vector<Metric> metrics = end_to_end(run, measured, completed);
    const std::vector<Metric> wall = wall_clock(run, completed, args.trace);
    print(metrics);
    print(wall);
    if (args.trace) {
      const ReplayReport traced = replay(traffic, run, true);
      if (!traced.first_mismatch.empty()) {
        violations.push_back(traced.first_mismatch);
      }
      for (std::string& v : check_counters(run, traced)) {
        violations.push_back(std::move(v));
      }
      // Tracing overhead: four pairs of replays of the leading 1/32 of
      // the cycles, without and with spans, alternating which goes first;
      // the median pair ratio resists a drifting or noisy host. The full
      // pass above warmed the process.
      const std::size_t share = 1 + run.cycles.size() / 32;
      std::vector<double> ratios;
      for (int pair = 0; pair < 4; ++pair) {
        const bool spans_first = pair % 2 == 1;
        const double first = replay(traffic, run, spans_first, share).wall_s;
        const double second = replay(traffic, run, !spans_first, share).wall_s;
        ratios.push_back(spans_first ? first / second : second / first);
      }
      metrics = per_layer(run, traced, (median(ratios) - 1.0) * 100.0,
                          completed);
      print(metrics);
      metrics.insert(metrics.end(), wall.begin(), wall.end());
    }
    for (const std::string& v : violations) {
      std::fprintf(stderr, "e2e_bench: %.*s: %s\n",
                   static_cast<int>(wname.size()), wname.data(), v.c_str());
    }

    std::string json = "{\"correct\": ";
    json += violations.empty() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(measured);
    json += ", \"failed\": " + std::to_string(measured - completed);
    json += ", \"metrics\": {";
    const char* sep = "";
    for (const Metric& m : metrics) {
      if (!m.in_json) continue;
      json += sep;
      json += "\"" + m.name + "\": {\"value\": " + json_number(m.value) +
              ", \"unit\": \"" + m.unit + "\"}";
      sep = ", ";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return violations.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %.*s: %s\n",
                 static_cast<int>(wname.size()), wname.data(), e.what());
    return 1;
  }
}
