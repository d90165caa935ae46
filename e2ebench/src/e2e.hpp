#pragma once
// End-to-end ExecutionService benchmark: shared types.
//
// One process runs one workload:
//   traffic.cpp  seeded job streams (circuits, names, due times);
//   drive.cpp    the fleet + service under that traffic, timing every
//                request and digesting every result as it completes;
//   replay.cpp   the same batches again through each layer's public
//                entry points on fresh backends, with one span per call;
//   main.cpp     arguments, output checks and the JSON result line.

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "service/service.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

/// Seconds since the first call in this process (monotonic).
double now_s();
/// CPU seconds of the whole process (all threads) and of the calling
/// thread. Unlike wall time these exclude time the host took the vCPUs
/// away, so they hold steady on a shared machine.
double process_cpu_s();
double thread_cpu_s();

enum class Workload { CloudPoisson, UniqueBurst, VqeSweep };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] std::string_view workload_name(Workload w);

// ---- Fleet and service configuration (traffic.cpp) -----------------------

constexpr int kShots = 1024;
constexpr int kMaxBatchSize = 4;

/// 2x toronto27 (calibration seeds 2022, 2023) + manhattan65.
[[nodiscard]] std::vector<qucp::Device> fleet_devices();
[[nodiscard]] qucp::ServiceOptions service_options(Workload w);
/// The calibration cloud_poisson gives toronto27 #0 mid-stream.
[[nodiscard]] qucp::Calibration midstream_calibration();

// ---- Traffic (traffic.cpp) -----------------------------------------------

struct JobSpec {
  qucp::Circuit circuit;
  std::string name;
  bool exclusive = false;
};

/// A workload's job stream as a pure function of (workload, seed,
/// seconds). Random access by job index, so the replay regenerates the
/// circuits instead of holding them for the whole run.
class Traffic {
 public:
  Traffic(Workload w, std::uint64_t seed, double seconds);

  [[nodiscard]] Workload workload() const noexcept { return workload_; }
  /// Measured jobs in the stream.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] JobSpec job(std::size_t i) const;
  /// cloud_poisson: arrival time of job i, seconds from stream start.
  [[nodiscard]] double arrival_s(std::size_t i) const { return arrivals_[i]; }
  /// cloud_poisson: index of the first job submitted after toronto27 #0's
  /// recalibration (a dispatch-cycle boundary); nullopt elsewhere.
  [[nodiscard]] std::optional<std::size_t> recalibration_job() const;
  /// unique_burst: jobs per burst; vqe_sweep: jobs per iteration.
  [[nodiscard]] std::size_t group_size() const noexcept { return group_; }
  /// vqe_sweep: jobs in the first submit_all() of an iteration.
  [[nodiscard]] std::size_t first_call_jobs() const noexcept {
    return group_ / 2;
  }

  /// Untimed warm-up jobs every set-up runs (same for every workload and
  /// seed; structurally distinct from every workload's circuits).
  static constexpr std::size_t kWarmupJobs = 12;
  [[nodiscard]] static JobSpec warmup_job(std::size_t i);

 private:
  Workload workload_;
  std::uint64_t seed_;
  std::size_t size_ = 0;
  std::size_t group_ = 0;
  std::vector<double> arrivals_;
};

// ---- Service run (drive.cpp) ---------------------------------------------

/// Batch context as the job's result reported it.
struct BatchFacts {
  int backend_id = -1;
  std::uint64_t batch_index = 0;
  std::size_t batch_size = 0;
  double makespan_ns = 0.0;
  double throughput = 0.0;
  int crosstalk_events = 0;
  double runtime_reduction = 0.0;
  bool operator==(const BatchFacts&) const = default;
};

/// Bit-exact digest of one job's ProgramReport.
struct ResultDigest {
  std::vector<int> partition;
  std::uint64_t noisy_fp = 0;   ///< noisy distribution (outcome, bits)
  std::uint64_t counts_fp = 0;  ///< sampled counts
  std::uint64_t ideal_fp = 0;   ///< ideal distribution
  std::uint64_t layout_fp = 0;  ///< final layout + swaps + EFS bits
  double pst = 0.0;
  double jsd = 0.0;
  bool operator==(const ResultDigest&) const = default;
};

[[nodiscard]] ResultDigest digest(const qucp::ProgramReport& report);

struct JobRecord {
  bool warmup = false;
  std::size_t index = 0;  ///< index into the warm-up or measured stream
  std::uint64_t id = 0;   ///< service job id (canonical tie-break)
  std::size_t cycle = 0;  ///< dispatch cycle the job was planned in
  bool sweep = false;     ///< arrived in a submit_all() sweep group
  bool exclusive = false;
  int width = 0;
  double due_s = 0.0;   ///< when the request was due (now_s clock)
  double sent_s = 0.0;  ///< when its submit call began
  double done_s = 0.0;  ///< when the waiter saw it finish
  qucp::JobHandle handle;  ///< released once digested
  bool done = false;       ///< Done (else Failed) once digested
  std::string error;
  BatchFacts batch;
  ResultDigest result;
};

struct CycleRecord {
  bool warmup = false;
  std::size_t first_job = 0;  ///< consecutive job range [first, first+n)
  std::size_t num_jobs = 0;
  double start_s = 0.0;  ///< start of the call that dispatched it
  /// toronto27 #0 was recalibrated right before this cycle.
  bool recalibrated_before = false;
};

struct CallRecord {
  double start_s = 0.0;
  double end_s = 0.0;
  bool dispatched = false;  ///< the call ran a dispatch cycle (auto-flush)
};

/// One request: a job (cloud_poisson, unique_burst) or an iteration
/// (vqe_sweep), from when it was due until its last job finished.
struct Request {
  double start_s = 0.0;
  double end_s = 0.0;
  std::size_t jobs = 1;
};

struct ServiceRun {
  std::vector<JobRecord> jobs;  ///< warm-up first, then submission order
  std::vector<CycleRecord> cycles;
  std::vector<CallRecord> calls;  ///< measured submit/submit_all calls
  std::vector<Request> requests;  ///< measured, in request order
  std::vector<double> setup_cpu_s;   ///< one per set-up repetition
  std::vector<double> setup_wall_s;  ///< one per set-up repetition
  /// CPU seconds the service spent on the measured traffic: every thread
  /// but the waiter, minus the generator's own work outside service calls.
  double service_cpu_s = 0.0;
  double measure_start_s = 0.0;
  double measure_end_s = 0.0;
  qucp::ServiceStats stats_after_setup;
  qucp::ServiceStats stats_final;
  std::size_t pending_after_flush = 0;
  double peak_rss_mb = 0.0;
};

[[nodiscard]] ServiceRun run_service(const Traffic& traffic);

// ---- Replay (replay.cpp) -------------------------------------------------

struct ReplayReport {
  /// Per-layer self seconds over measured cycles, by layer name.
  std::map<std::string, double> layer_s;
  /// Replayed pipeline seconds per batch, keyed (backend id, batch index).
  std::map<std::pair<int, std::uint64_t>, double> batch_s;
  double wall_s = 0.0;  ///< whole replay, including output checks
  std::size_t measured_jobs = 0;
  std::size_t measured_batches = 0;
  std::size_t measured_cycles = 0;
  std::size_t matched_jobs = 0;
  std::string first_mismatch;  ///< empty when everything matched
  double recalibrate_ms = 0.0;
  qucp::TranspileCacheStats cache;  ///< measured cycles only
  /// Per backend, counted as BackendStats does: the measured cycles'
  /// share of the current epoch's counters (all of them when the epoch
  /// changed mid-run).
  std::vector<qucp::TranspileCacheStats> backend_cache;
  std::uint64_t sweep_groups = 0;   ///< measured cycles only
  std::uint64_t batched_binds = 0;  ///< measured cycles only
  std::uint64_t plan_builds = 0;
  std::uint64_t plan_hits = 0;
  double swaps = 0.0;
  double physical_ops = 0.0;
  double qubits_used = 0.0;
  double crosstalk_events = 0.0;
};

/// Replay the batches of `run`'s first `cycles` dispatch cycles (all when
/// larger) on fresh backends. `traced` records one span per layer call;
/// untraced replays time only the whole pass.
[[nodiscard]] ReplayReport replay(const Traffic& traffic,
                                  const ServiceRun& run, bool traced,
                                  std::size_t cycles = SIZE_MAX);

}  // namespace e2e
