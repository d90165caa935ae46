// Cloud-queue scenario from the paper's introduction: many small jobs
// queued on one shared device. The ExecutionService owns the queueing,
// batch packing and bookkeeping this example used to hand-roll around
// run_parallel(): jobs are submitted as they "arrive", the packer groups
// them into parallel batches (partial tail batches included), and the
// worker pool drains them. Compares turnaround time of serial execution
// (one job each, re-queuing) against service batches, shows the fidelity
// cost of packing, and then scales out: the same queue on a TWO-DEVICE
// fleet (manhattan65 + toronto27) with calibration-aware BestEfs routing,
// where each job lands on the chip whose solo EFS is lowest and the two
// chips drain their batches concurrently — and finally with queue-aware
// ExpectedLatency routing, which trades a little per-job fidelity for
// modeled completion time and reports the wait accounting ServiceStats
// now carries.
//
//   build/examples/cloud_queue

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>
#include <vector>

#include "benchmarks/suite.hpp"
#include "core/runtime.hpp"
#include "service/service.hpp"

using namespace qucp;

int main() {
  const Device device = make_manhattan65();
  // A queue of 12 user jobs drawn from the benchmark suite.
  const char* mix[] = {"adder", "fred", "lin",  "4mod", "bell", "qec",
                       "alu",   "var",  "adder", "fred", "lin",  "4mod"};

  RuntimeModel model;
  model.shots = 4096;
  model.queue_depth = 5;  // five strangers' jobs ahead of each submission

  ServiceOptions base_opts;
  base_opts.exec.shots = 512;

  // Serial: every job is its own batch — it waits in the queue and runs
  // alone (max_batch_size = 1 models today's one-job-per-submission flow).
  ServiceOptions solo_opts = base_opts;
  solo_opts.max_batch_size = 1;
  ExecutionService solo(device, solo_opts);
  std::vector<JobHandle> solo_jobs;
  for (const char* name : mix) {
    solo_jobs.push_back(solo.submit(get_benchmark(name).circuit));
  }
  solo.flush();
  std::vector<double> solo_makespans;
  double solo_pst = 0.0;
  for (const JobHandle& job : solo_jobs) {
    solo_makespans.push_back(job.result().batch.makespan_ns);
    solo_pst += job.result().report.pst_value;
  }
  const double serial_s = serial_runtime_s(model, solo_makespans);

  // Batched: the service packs up to 4 jobs per parallel batch and the
  // worker pool executes independent batches concurrently.
  ServiceOptions packed_opts = base_opts;
  packed_opts.max_batch_size = 4;
  packed_opts.num_workers = 4;
  ExecutionService service(device, packed_opts);
  std::vector<JobHandle> jobs;
  for (const char* name : mix) {
    jobs.push_back(service.submit(get_benchmark(name).circuit));
  }
  service.flush();

  double packed_pst = 0.0;
  std::map<std::uint64_t, BatchStats> batches;  // dedup by batch index
  for (const JobHandle& job : jobs) {
    const JobResult& r = job.result();
    packed_pst += r.report.pst_value;
    batches[r.batch.batch_index] = r.batch;
  }
  double parallel_s = 0.0;
  for (const auto& [index, batch] : batches) {
    parallel_s += parallel_runtime_s(model, batch.makespan_ns);
    std::printf("batch %llu: %zu jobs, throughput %.1f%%, "
                "crosstalk overlaps %d\n",
                static_cast<unsigned long long>(index + 1), batch.batch_size,
                100.0 * batch.throughput, batch.crosstalk_events);
  }

  // Fleet: the same queue over two chips. BestEfs scores every job's best
  // solo EFS on each device (cached per chip) and routes it to the
  // lower-error one; each backend runs its own packer/worker lane, so the
  // two chips drain concurrently and the queue finishes when the busier
  // chip does.
  ServiceOptions fleet_opts = packed_opts;
  fleet_opts.route_policy = RoutePolicy::BestEfs;
  BackendRegistry registry;
  registry.add(make_manhattan65());
  registry.add(make_toronto27());
  ExecutionService fleet(std::move(registry), fleet_opts);
  std::vector<JobHandle> fleet_jobs;
  for (const char* name : mix) {
    fleet_jobs.push_back(fleet.submit(get_benchmark(name).circuit));
  }
  fleet.flush();

  double fleet_pst = 0.0;
  for (const JobHandle& job : fleet_jobs) {
    fleet_pst += job.result().report.pst_value;
  }
  // Per-chip occupancy: batches on one device run back to back, devices
  // run side by side; the queue finishes when the busier chip does.
  const double fleet_s =
      modeled_fleet_drain_s(fleet_jobs, fleet.num_backends(), model);

  // Fleet, queue-aware: ExpectedLatency scores each job's modeled
  // completion time (lane backlog + planned batches + the batch it would
  // join) instead of pure fidelity, so a burst of arrivals spreads by
  // queue pressure rather than piling onto the best-calibrated chip.
  ServiceOptions el_opts = packed_opts;
  el_opts.route_policy = RoutePolicy::ExpectedLatency;
  BackendRegistry el_registry;
  el_registry.add(make_manhattan65());
  el_registry.add(make_toronto27());
  ExecutionService el_fleet(std::move(el_registry), el_opts);
  std::vector<JobHandle> el_jobs;
  for (const char* name : mix) {
    el_jobs.push_back(el_fleet.submit(get_benchmark(name).circuit));
  }
  el_fleet.flush();
  double el_pst = 0.0;
  for (const JobHandle& job : el_jobs) {
    el_pst += job.result().report.pst_value;
  }
  const double el_s =
      modeled_fleet_drain_s(el_jobs, el_fleet.num_backends(), model);

  const std::size_t n = jobs.size();
  const ServiceStats stats = service.stats();
  std::printf("\n%zu jobs, queue depth %d:\n", n, model.queue_depth);
  std::printf("  serial   : %7.1f s total, avg PST %.3f\n", serial_s,
              solo_pst / n);
  std::printf("  batched  : %7.1f s total, avg PST %.3f\n", parallel_s,
              packed_pst / n);
  std::printf("  fleet x2 : %7.1f s total, avg PST %.3f  (BestEfs)\n",
              fleet_s, fleet_pst / n);
  std::printf("  fleet x2 : %7.1f s total, avg PST %.3f  (ExpectedLatency)\n",
              el_s, el_pst / n);
  std::printf("  speedup  : %.1fx batched, %.1fx fleet (avg PST delta\n"
              "             %+.3f batched; EFS is a heuristic, so\n"
              "             individual placements can win or lose a\n"
              "             little either way)\n",
              serial_s / parallel_s, serial_s / fleet_s,
              packed_pst / n - solo_pst / n);
  std::printf("  service  : %llu batches, %llu spills, transpile cache "
              "%llu/%llu hits\n",
              static_cast<unsigned long long>(stats.batches_executed),
              static_cast<unsigned long long>(stats.spill_events),
              static_cast<unsigned long long>(stats.transpile_cache.hits),
              static_cast<unsigned long long>(stats.transpile_cache.hits +
                                              stats.transpile_cache.misses));
  const ServiceStats fstats = fleet.stats();
  for (const BackendStats& bs : fstats.backends) {
    std::printf("  fleet[%d] : %-16s %llu jobs, %llu batches\n",
                bs.backend_id, bs.device.c_str(),
                static_cast<unsigned long long>(bs.jobs_completed),
                static_cast<unsigned long long>(bs.batches_executed));
  }
  // The queue-aware fleet also accounts each job's modeled wait at
  // admission (§II-A's waiting term) per backend.
  const ServiceStats el_stats = el_fleet.stats();
  for (const BackendStats& bs : el_stats.backends) {
    std::printf("  el[%d]    : %-16s %llu jobs, modeled wait sum %.1f s "
                "(max %.1f s)\n",
                bs.backend_id, bs.device.c_str(),
                static_cast<unsigned long long>(bs.jobs_completed),
                bs.modeled_wait_sum_s, bs.modeled_wait_max_s);
  }
  return 0;
}
