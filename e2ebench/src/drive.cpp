// Drives the ExecutionService with one workload's traffic.
//
// One generator thread (the caller) submits; one waiter thread polls the
// submitted handles, timestamps each completion and digests its result,
// then drops the handle so finished jobs do not accumulate in memory.
// Dispatch is by count (auto_flush_batch_size) plus a final flush(), so
// which jobs share a dispatch cycle is a function of the stream alone;
// the benchmark mirrors the service's pending count to record each cycle's
// job range and cross-checks it against pending_jobs() after every call.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common/rng.hpp"
#include "e2e.hpp"

namespace e2e {

namespace {

// One set-up takes a few ms, so many repetitions are cheap and their
// median holds steady.
constexpr int kSetups = 51;

std::uint64_t hash_distribution(const qucp::Distribution& d) {
  std::uint64_t h = qucp::fnv1a_mix(qucp::kFnv1aBasis,
                                    static_cast<std::uint64_t>(d.num_bits()));
  for (const auto& [outcome, p] : d.probs()) {
    h = qucp::fnv1a_mix(h, outcome);
    h = qucp::fnv1a_mix(h, std::bit_cast<std::uint64_t>(p));
  }
  return h;
}

std::uint64_t hash_counts(const qucp::Counts& c) {
  std::uint64_t h = qucp::fnv1a_mix(qucp::kFnv1aBasis,
                                    static_cast<std::uint64_t>(c.num_bits()));
  for (const auto& [outcome, n] : c.data()) {
    h = qucp::fnv1a_mix(h, outcome);
    h = qucp::fnv1a_mix(h, static_cast<std::uint64_t>(n));
  }
  return h;
}

/// Record a finished handle's outcome, check the report's internal
/// consistency, and release the handle.
void absorb(JobRecord& r) {
  if (r.handle.status() != qucp::JobStatus::Done) {
    r.error = r.handle.error();
    r.handle = {};
    return;
  }
  const qucp::JobResult& res = r.handle.result();
  const qucp::ProgramReport& p = res.report;
  r.done = true;
  r.batch = {res.batch.backend_id,       res.batch.batch_index,
             res.batch.batch_size,       res.batch.makespan_ns,
             res.batch.throughput,       res.batch.crosstalk_events,
             res.batch.runtime_reduction};
  r.result = digest(p);
  if (p.counts.total() != kShots) {
    r.error = "counts total " + std::to_string(p.counts.total()) + " != " +
              std::to_string(kShots) + " shots";
  } else if (static_cast<int>(p.partition.size()) != r.width) {
    r.error = "partition width " + std::to_string(p.partition.size()) +
              " != circuit width " + std::to_string(r.width);
  } else if (p.ideal.empty() || p.noisy.empty()) {
    r.error = "empty ideal or noisy distribution";
  } else if (qucp::pst(p.noisy, p.ideal.most_likely()) != p.pst_value ||
             qucp::jsd(p.noisy, p.ideal) != p.jsd_value) {
    r.error = "reported PST/JSD disagree with the reported distributions";
  }
  r.handle = {};
}

/// The completion side of the load generator: polls every published,
/// unfinished handle, stamps done_s when it first reads finished, and
/// digests the result. The poll interval stretches with the scan cost so
/// the waiter stays a small load next to the lanes; its CPU time is the
/// benchmark's, not the service's, and is reported for subtraction.
class Waiter {
 public:
  Waiter(std::vector<JobRecord>& jobs, std::size_t first)
      : jobs_(jobs), seen_(first), published_(first) {
    thread_ = std::thread([this] { loop(); });
  }
  ~Waiter() { close(); }
  Waiter(const Waiter&) = delete;
  Waiter& operator=(const Waiter&) = delete;

  /// Jobs [first, end) have handles and may be polled.
  void publish(std::size_t end) {
    published_.store(end, std::memory_order_release);
  }

  /// Stop once everything published is digested (give up on stragglers
  /// after a grace period; the output checks then name them).
  void close() {
    closing_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  /// The waiter thread's CPU seconds; valid after close().
  [[nodiscard]] double cpu_s() const noexcept { return cpu_s_; }

 private:
  void loop() {
    std::vector<std::size_t> pending;
    double closing_since = -1.0;
    for (;;) {
      const std::size_t pub = published_.load(std::memory_order_acquire);
      while (seen_ < pub) pending.push_back(seen_++);
      const double scan_start = now_s();
      for (std::size_t k = 0; k < pending.size();) {
        JobRecord& r = jobs_[pending[k]];
        if (r.handle.finished()) {
          r.done_s = now_s();
          absorb(r);
          pending[k] = pending.back();
          pending.pop_back();
        } else {
          ++k;
        }
      }
      const double scan_s = now_s() - scan_start;
      if (closing_.load(std::memory_order_acquire)) {
        if ((seen_ == published_.load(std::memory_order_acquire) &&
             pending.empty()) ||
            (closing_since >= 0.0 && now_s() - closing_since > 5.0)) {
          cpu_s_ = thread_cpu_s();
          return;
        }
        if (closing_since < 0.0) closing_since = now_s();
      }
      std::this_thread::sleep_for(std::chrono::duration<double>(
          std::max(100e-6, 4.0 * scan_s)));
    }
  }

  std::vector<JobRecord>& jobs_;
  std::size_t seen_;
  std::atomic<std::size_t> published_;
  std::atomic<bool> closing_{false};
  double cpu_s_ = 0.0;  ///< written by the thread, read after join
  std::thread thread_;  // last: started after the members it reads
};

/// Mirrors the service's pending count to attribute jobs to dispatch
/// cycles. Exact because a single thread submits and nothing else
/// dispatches: auto-flush fires inside the submit call that brings the
/// pending count to auto_flush_batch_size, and that cycle drains exactly
/// the jobs submitted since the previous one.
class CycleTracker {
 public:
  CycleTracker(ServiceRun& run, std::size_t auto_flush)
      : run_(run), auto_flush_(auto_flush) {}

  void mark_recalibration() { recalibrated_ = true; }

  /// After a submit call published `n` more jobs; true when it dispatched.
  bool after_submit(std::size_t n, double call_start, bool warmup,
                    const qucp::ExecutionService& svc) {
    open_ += n;
    const bool dispatched = auto_flush_ > 0 && open_ >= auto_flush_;
    if (dispatched) close(call_start, warmup);
    if (svc.pending_jobs() != open_) {
      throw std::logic_error("lost track of dispatch cycles (pending " +
                             std::to_string(svc.pending_jobs()) + ", expected " +
                             std::to_string(open_) + ")");
    }
    return dispatched;
  }

  void after_flush(double call_start, bool warmup) {
    if (open_ > 0) close(call_start, warmup);
  }

 private:
  void close(double start, bool warmup) {
    const std::size_t cycle = run_.cycles.size();
    run_.cycles.push_back({warmup, first_, open_, start, recalibrated_});
    for (std::size_t i = first_; i < first_ + open_; ++i) {
      run_.jobs[i].cycle = cycle;
    }
    first_ += open_;
    open_ = 0;
    recalibrated_ = false;
  }

  ServiceRun& run_;
  std::size_t auto_flush_;
  std::size_t first_ = 0;
  std::size_t open_ = 0;
  bool recalibrated_ = false;
};

/// CPU the generator thread spends inside service calls.
class CallerCpu {
 public:
  void begin() { started_ = thread_cpu_s(); }
  void end() { seconds_ += thread_cpu_s() - started_; }
  [[nodiscard]] double seconds() const noexcept { return seconds_; }

 private:
  double started_ = 0.0;
  double seconds_ = 0.0;
};

void sleep_until_s(double t) {
  const double wait = t - now_s();
  if (wait > 0.0) {
    std::this_thread::sleep_for(std::chrono::duration<double>(wait));
  }
}

/// Fill the bookkeeping fields of a record about to be submitted.
void prepare(JobRecord& r, const JobSpec& spec, std::size_t index,
             double due_s) {
  r.index = index;
  r.width = spec.circuit.num_qubits();
  r.exclusive = spec.exclusive;
  r.due_s = due_s;
}

void drive_cloud(const Traffic& traffic, qucp::ExecutionService& svc,
                 ServiceRun& run, CycleTracker& cycles, Waiter& waiter,
                 CallerCpu& cpu, std::size_t base) {
  const qucp::Calibration recal = midstream_calibration();
  const auto recal_job = traffic.recalibration_job();
  const double start = now_s() + 1e-3;
  run.measure_start_s = start;
  for (std::size_t i = 0; i < traffic.size(); ++i) {
    JobSpec spec = traffic.job(i);
    if (recal_job && i == *recal_job) {
      cpu.begin();
      (void)svc.backend(0).recalibrate(recal);
      cpu.end();
      cycles.mark_recalibration();
    }
    JobRecord& r = run.jobs[base + i];
    prepare(r, spec, i, start + traffic.arrival_s(i));
    sleep_until_s(r.due_s);
    r.sent_s = now_s();
    cpu.begin();
    r.handle = svc.submit(std::move(spec.circuit),
                          qucp::JobOptions{spec.name, spec.exclusive});
    cpu.end();
    const double end = now_s();
    r.id = r.handle.id();
    waiter.publish(base + i + 1);
    const bool dispatched = cycles.after_submit(1, r.sent_s, false, svc);
    run.calls.push_back({r.sent_s, end, dispatched});
  }
}

void drive_burst(const Traffic& traffic, qucp::ExecutionService& svc,
                 ServiceRun& run, CycleTracker& cycles, Waiter& waiter,
                 CallerCpu& cpu, std::size_t base) {
  const std::size_t group = traffic.group_size();
  std::vector<JobSpec> burst;
  run.measure_start_s = now_s();
  for (std::size_t first = 0; first < traffic.size(); first += group) {
    burst.clear();
    for (std::size_t i = first; i < first + group; ++i) {
      burst.push_back(traffic.job(i));
    }
    const double burst_start = now_s();
    for (std::size_t k = 0; k < group; ++k) {
      JobRecord& r = run.jobs[base + first + k];
      prepare(r, burst[k], first + k, burst_start);
      r.sent_s = now_s();
      cpu.begin();
      r.handle = svc.submit(std::move(burst[k].circuit),
                            qucp::JobOptions{burst[k].name, false});
      cpu.end();
      const double end = now_s();
      r.id = r.handle.id();
      waiter.publish(base + first + k + 1);
      const bool dispatched = cycles.after_submit(1, r.sent_s, false, svc);
      run.calls.push_back({r.sent_s, end, dispatched});
    }
    // flush() returns once the whole burst has run.
    const double t = now_s();
    cpu.begin();
    svc.flush();
    cpu.end();
    cycles.after_flush(t, false);
  }
}

void drive_vqe(const Traffic& traffic, qucp::ExecutionService& svc,
               ServiceRun& run, CycleTracker& cycles, Waiter& waiter,
               CallerCpu& cpu, std::size_t base) {
  const std::size_t group = traffic.group_size();
  const std::size_t split = traffic.first_call_jobs();
  run.measure_start_s = now_s();
  std::vector<qucp::JobHandle> iteration;
  for (std::size_t first = 0; first < traffic.size(); first += group) {
    std::vector<JobSpec> specs;
    for (std::size_t i = first; i < first + group; ++i) {
      specs.push_back(traffic.job(i));
    }
    iteration.clear();
    const double t0 = now_s();
    // Two submit_all() calls per iteration: the first only queues (intake),
    // the second reaches auto_flush_batch_size and dispatches all of it.
    for (const auto& [lo, hi] : {std::pair{std::size_t{0}, split},
                                std::pair{split, group}}) {
      std::vector<qucp::Circuit> circuits;
      for (std::size_t k = lo; k < hi; ++k) {
        JobRecord& r = run.jobs[base + first + k];
        prepare(r, specs[k], first + k, t0);
        r.sweep = true;
        circuits.push_back(std::move(specs[k].circuit));
      }
      const double call_start = now_s();
      cpu.begin();
      std::vector<qucp::JobHandle> handles =
          svc.submit_all(std::move(circuits));
      cpu.end();
      const double end = now_s();
      for (std::size_t k = lo; k < hi; ++k) {
        JobRecord& r = run.jobs[base + first + k];
        r.sent_s = call_start;
        r.handle = handles[k - lo];
        r.id = r.handle.id();
      }
      waiter.publish(base + first + hi);
      const bool dispatched =
          cycles.after_submit(hi - lo, call_start, false, svc);
      run.calls.push_back({call_start, end, dispatched});
      iteration.insert(iteration.end(), handles.begin(), handles.end());
    }
    for (const qucp::JobHandle& h : iteration) h.wait();
    run.requests.push_back({t0, now_s(), group});
  }
}

}  // namespace

ResultDigest digest(const qucp::ProgramReport& p) {
  ResultDigest d;
  d.partition = p.partition;
  d.noisy_fp = hash_distribution(p.noisy);
  d.counts_fp = hash_counts(p.counts);
  d.ideal_fp = hash_distribution(p.ideal);
  std::uint64_t h = qucp::kFnv1aBasis;
  for (int q : p.final_layout) h = qucp::fnv1a_mix(h, static_cast<std::uint64_t>(q));
  h = qucp::fnv1a_mix(h, static_cast<std::uint64_t>(p.swaps_added));
  d.layout_fp = qucp::fnv1a_mix(h, std::bit_cast<std::uint64_t>(p.efs));
  d.pst = p.pst_value;
  d.jsd = p.jsd_value;
  return d;
}

ServiceRun run_service(const Traffic& traffic) {
  const Workload w = traffic.workload();
  const qucp::ServiceOptions options = service_options(w);
  constexpr std::size_t kWarm = Traffic::kWarmupJobs;

  ServiceRun run;
  run.jobs.resize(kWarm + traffic.size());
  CycleTracker cycles(run, options.auto_flush_batch_size);

  // Set-up: fleet + service construction and the warm-up jobs, repeated
  // so setup_s can report a median. The last set-up serves the workload.
  std::unique_ptr<qucp::ExecutionService> svc;
  for (int rep = 0; rep < kSetups; ++rep) {
    svc.reset();
    const bool keep = rep == kSetups - 1;
    const double t0 = now_s();
    const double c0 = process_cpu_s();
    svc = std::make_unique<qucp::ExecutionService>(
        qucp::BackendRegistry(fleet_devices()), options);
    std::vector<qucp::JobHandle> warm;
    for (std::size_t i = 0; i < kWarm; ++i) {
      JobSpec spec = Traffic::warmup_job(i);
      const int width = spec.circuit.num_qubits();
      const double call_start = now_s();
      warm.push_back(
          svc->submit(std::move(spec.circuit), qucp::JobOptions{spec.name}));
      if (keep) {
        JobRecord& r = run.jobs[i];
        r.warmup = true;
        r.index = i;
        r.width = width;
        r.id = warm.back().id();
        r.handle = warm.back();
        (void)cycles.after_submit(1, call_start, true, *svc);
      }
    }
    const double flush_start = now_s();
    svc->flush();
    run.setup_wall_s.push_back(now_s() - t0);
    run.setup_cpu_s.push_back(process_cpu_s() - c0);
    if (keep) cycles.after_flush(flush_start, true);
  }
  for (std::size_t i = 0; i < kWarm; ++i) absorb(run.jobs[i]);
  run.stats_after_setup = svc->stats();

  // Service CPU = every thread's CPU over the measured traffic, less the
  // waiter's and less the generator's outside its service calls (traffic
  // generation, bookkeeping).
  const double process0 = process_cpu_s();
  const double caller0 = thread_cpu_s();
  CallerCpu service_calls;
  double waiter_cpu = 0.0;
  {
    Waiter waiter(run.jobs, kWarm);
    switch (w) {
      case Workload::CloudPoisson:
        drive_cloud(traffic, *svc, run, cycles, waiter, service_calls, kWarm);
        break;
      case Workload::UniqueBurst:
        drive_burst(traffic, *svc, run, cycles, waiter, service_calls, kWarm);
        break;
      case Workload::VqeSweep:
        drive_vqe(traffic, *svc, run, cycles, waiter, service_calls, kWarm);
        break;
    }
    const double t = now_s();
    service_calls.begin();
    svc->flush();
    service_calls.end();
    cycles.after_flush(t, false);
    waiter.close();
    waiter_cpu = waiter.cpu_s();
  }
  run.service_cpu_s = (process_cpu_s() - process0) - waiter_cpu -
                      (thread_cpu_s() - caller0) + service_calls.seconds();

  run.measure_end_s = run.measure_start_s;
  for (std::size_t i = kWarm; i < run.jobs.size(); ++i) {
    const JobRecord& r = run.jobs[i];
    run.measure_end_s = std::max(run.measure_end_s, r.done_s);
    if (w != Workload::VqeSweep) run.requests.push_back({r.due_s, r.done_s, 1});
  }
  run.stats_final = svc->stats();
  run.pending_after_flush = svc->pending_jobs();
  svc->shutdown();
  svc.reset();

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  run.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return run;
}

}  // namespace e2e
