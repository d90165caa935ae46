#pragma once
// ExecutionService: the asynchronous job-queue front door of the library.
//
// The paper motivates multi-programming with cloud-queue pressure (overall
// runtime = waiting time + execution time, §II-A): batching N user jobs
// into one device job cuts total runtime by up to N. The service owns the
// logic every caller used to hand-roll around run_parallel(): a job queue,
// an online batch packer (EFS partitioning + the §IV-B fidelity-threshold
// spill), worker lanes that execute independent batches concurrently, and
// per-backend transpilation caches.
//
//   ExecutionService service(make_toronto27());
//   JobHandle job = service.submit(circuit);
//   service.flush();                       // pack + run everything queued
//   const JobResult& r = job.result();     // or poll job.status()
//
// The service also scales past one chip: construct it from a
// BackendRegistry and it becomes a fleet — a FleetScheduler
// (service/fleet.hpp) routes each pending job to a (backend, batch) slot
// by the RoutePolicy rule ServiceOptions::route_policy selects
// (RoundRobin / LeastLoaded / BestEfs / ExpectedLatency), and every
// backend gets its own packer/worker lane, so
// batches on different devices execute concurrently without sharing locks:
//
//   BackendRegistry fleet({make_toronto27(), make_manhattan65()});
//   ExecutionService service(std::move(fleet), options);  // BestEfs default
//
// Determinism: queued jobs are packed in (circuit fingerprint, name,
// submission id) order, so for a fixed seed the results — including
// routing decisions and per-backend batch assignments — are reproducible
// regardless of submission interleaving;
// jobs that share both circuit and name are mutually interchangeable, and
// every other handle is exactly reproducible. A batch with per-backend
// ordinal k on backend b (of B) executes with seed
// `exec.seed + (k * B + b) * golden_ratio`; for B = 1 that is the
// historical `seed + batch_index * golden_ratio`, which keeps the
// run_parallel() shim and the single-backend constructor bit-identical to
// their historical output.
//
// run_parallel() in core/parallel.hpp allocates one batch itself and runs
// it synchronously through run_batch_pipeline, the same pipeline the
// service workers execute planned batches with.

#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/parallel.hpp"
#include "core/runtime.hpp"
#include "service/backend.hpp"
#include "service/fleet.hpp"
#include "service/job.hpp"
#include "service/packer.hpp"
#include "service/registry.hpp"

namespace qucp {

/// ParallelOptions' method configuration, which every batch runs with
/// (`exec.seed` is the base seed), plus the service's own knobs.
struct ServiceOptions : ParallelOptions {
  int num_workers = 4;     ///< batch-executing threads per backend lane
  int max_batch_size = 4;  ///< jobs per batch; <= 0 means unbounded
  /// §IV-B fidelity threshold: max EFS degradation vs running solo before
  /// a co-placement is rejected and the job spills — on a fleet, first to
  /// another device's open batch, then to the next batch.
  /// 0 forces independent execution; infinity admits anything that fits.
  double efs_threshold = std::numeric_limits<double>::infinity();
  /// Fleet routing policy (see service/fleet.hpp). Ignored on a
  /// single-backend service, where routing is trivial.
  RoutePolicy route_policy = RoutePolicy::BestEfs;
  /// When > 0, submit() packs and dispatches as soon as this many jobs
  /// are pending, without waiting for flush(). Note: with concurrent
  /// submitters the batch boundaries then depend on arrival interleaving.
  std::size_t auto_flush_batch_size = 0;
  /// Bytes all caches of one calibration epoch may hold together
  /// (service/backend.hpp): transpile templates, allocation states, fused
  /// programs and executables. Applies to the backend the
  /// single-device constructor builds; a BackendRegistry's backends carry
  /// their own. With 0 the caches store nothing: every job builds its
  /// transpile template, allocation states and executable afresh through
  /// the same code a cached run uses, and submit_all() sweeps take the
  /// per-job path.
  std::size_t cache_budget_bytes = kDefaultCacheBudgetBytes;
  /// Jobs the intake queue holds before a submitter backpressure-
  /// dispatches: a submit() that finds the queue full runs a pack/dispatch
  /// cycle itself and retries. Nothing blocks indefinitely and nothing is
  /// dropped, but under overload batch boundaries follow drain timing
  /// rather than auto_flush_batch_size. Values below 1 act as 1.
  std::size_t intake_capacity = 32768;
};

/// Per-backend slice of the service counters, keyed by registry id.
struct BackendStats {
  int backend_id = 0;
  std::string device;  ///< device name of the backend
  std::uint64_t jobs_routed = 0;  ///< jobs packed into this backend's lane
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_failed = 0;
  std::uint64_t batches_executed = 0;
  /// §II-A modeled queue-wait accounting, captured at admission: for every
  /// job routed to this backend, the modeled drain (dispatched backlog +
  /// batches planned ahead of it in the same cycle) it was admitted
  /// behind. The sum and max are auditable against the FleetPlan that
  /// produced them — tests recompute the same numbers from batch order.
  double modeled_wait_sum_s = 0.0;
  double modeled_wait_max_s = 0.0;
  /// Modeled execution seconds dispatched to the lane and not yet
  /// finished — the backlog snapshot the next dispatch cycle's
  /// ExpectedLatency routing and wait accounting start from.
  double modeled_backlog_s = 0.0;
  /// Calibration epoch accounting (service/backend.hpp): the epoch the
  /// backend currently serves, how many live recalibrations published new
  /// epochs, and the total off-lane epoch build seconds those
  /// recalibrations spent — the stall a drain-the-world design would have
  /// charged to the lane, paid on the recalibrating thread instead.
  std::uint64_t calibration_epoch = 0;
  std::uint64_t recalibrations = 0;
  double recalibration_build_s = 0.0;
  /// Batches that completed against a pack-time epoch older than the
  /// backend's current one — in-flight work that rode out a live
  /// recalibration on its pinned snapshot.
  std::uint64_t stale_epoch_batches = 0;
  /// Sweep fast path (see ExecutionService::submit_all): groups of
  /// same-structure jobs in this lane's planned batches whose templates
  /// were probed once per group and bound at dispatch, and the
  /// number of jobs that received a prebound transpile that way.
  std::uint64_t sweep_groups = 0;
  std::uint64_t batched_binds = 0;
  TranspileCacheStats transpile_cache;
  /// Entries, bytes, hits, misses and evictions of each cache of the
  /// current epoch, and the byte budget they share.
  EpochCacheStats caches;
};

struct ServiceStats {
  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_failed = 0;
  /// Jobs failed by cancel_pending() before ever being dispatched
  /// (also counted in jobs_failed).
  std::uint64_t jobs_cancelled = 0;
  std::uint64_t batches_executed = 0;
  std::uint64_t spill_events = 0;  ///< EFS-threshold / fit rejections
  /// Jobs placed on a backend after a fit/threshold rejection on an
  /// earlier-preferred one (always 0 on a single-backend service).
  std::uint64_t cross_device_spills = 0;
  /// Reservation lane: exclusive jobs routed by the modeled-backlog
  /// reservation order (lowest drain first) instead of the policy's
  /// preference, and the modeled §II-A wait each one was admitted behind.
  std::uint64_t reservation_jobs = 0;
  double reservation_wait_sum_s = 0.0;
  double reservation_wait_max_s = 0.0;
  /// Fleet-wide calibration-epoch accounting: recalibrations published
  /// across every backend, their total off-lane build seconds, and the
  /// batches that completed against a superseded epoch (see the
  /// per-backend fields for the breakdown).
  std::uint64_t recalibrations = 0;
  double recalibration_build_s = 0.0;
  std::uint64_t stale_epoch_batches = 0;
  /// Fleet-wide sweep fast-path totals (see the BackendStats fields).
  std::uint64_t sweep_groups = 0;
  std::uint64_t batched_binds = 0;
  /// Aggregate over every backend's transpile cache (current epochs).
  TranspileCacheStats transpile_cache;
  /// Per-backend breakdown, indexed by registry id.
  std::vector<BackendStats> backends;
};

/// Thrown by submit() and submit_all() for a circuit whose register is
/// wider than the widest fleet device, so no plan could place it.
struct CircuitTooWide : std::invalid_argument {
  CircuitTooWide(const std::string& what, int width, std::string device,
                 int device_qubits, std::optional<std::size_t> index)
      : std::invalid_argument(what),
        width(width),
        device(std::move(device)),
        device_qubits(device_qubits),
        index(index) {}

  int width;                         ///< the circuit's register width
  std::string device;                ///< name of the widest fleet device
  int device_qubits;                 ///< its qubit count
  std::optional<std::size_t> index;  ///< position in submit_all's vector
};

class ExecutionService {
 public:
  /// Validates the configuration eagerly: QuMC without SRB estimates
  /// throws std::invalid_argument here, not at execution time.
  explicit ExecutionService(Device device, ServiceOptions options = {});
  ExecutionService(std::shared_ptr<Backend> backend, ServiceOptions options);
  /// Multi-backend fleet: one packer/worker lane per registered backend,
  /// jobs routed by `options.route_policy`. Throws std::invalid_argument
  /// on an empty registry.
  explicit ExecutionService(BackendRegistry fleet, ServiceOptions options = {});
  ~ExecutionService();

  ExecutionService(const ExecutionService&) = delete;
  ExecutionService& operator=(const ExecutionService&) = delete;

  /// Enqueue a circuit. Cheap and thread-safe: the job is appended to the
  /// intake queue under a short-held lock; nothing executes until a batch
  /// is dispatched (flush(), shutdown() or auto-flush).
  /// Throws std::invalid_argument for a circuit with a NaN or infinite
  /// angle or a gate after a measurement on the same qubit (naming the op
  /// index), with a register qubit no op acts on (naming the first), with
  /// no measurement, or with no active qubit at all;
  /// CircuitTooWide (a std::invalid_argument) for one wider than every
  /// fleet device; and std::runtime_error after shutdown().
  JobHandle submit(Circuit circuit, JobOptions options = {});

  /// Batch submission: one handle per circuit, in order. Validates every
  /// circuit as submit() does before enqueuing any: a malformed one
  /// throws std::invalid_argument naming its index (and, for a bad op,
  /// the op), and nothing is submitted. The jobs then take contiguous ids
  /// and are pushed one by one, in order, onto the intake queue — the
  /// same push as submit(). A drain may see the vector interleaved with
  /// other producers' jobs (a plan sorts its drained set, so this never
  /// changes one) or split across pack cycles. While the queue is full,
  /// as it is for any vector larger than intake_capacity, the call
  /// backpressure-dispatches its published prefix. If that dispatch
  /// throws, the exception propagates: the published prefix stays with
  /// the service (queued, or drained by the cycle that threw), the rest is
  /// never enqueued, and the queue stays usable.
  std::vector<JobHandle> submit_all(std::vector<Circuit> circuits);

  /// Fail every not-yet-dispatched job ("cancelled before dispatch") and
  /// return how many were cancelled. Dispatched/running jobs are
  /// untouched. Used by intake benchmarks to exercise the submission path
  /// at full rate without simulating millions of circuits.
  std::size_t cancel_pending();

  /// Pack every pending job into batches, dispatch them to the backend
  /// lanes, and block until all dispatched work has drained.
  void flush();

  /// flush() then stop and join the workers. Idempotent. Further
  /// submit() calls throw.
  void shutdown();

  [[nodiscard]] ServiceStats stats() const;
  [[nodiscard]] const BackendRegistry& registry() const noexcept {
    return fleet_;
  }
  [[nodiscard]] std::size_t num_backends() const noexcept {
    return fleet_.size();
  }
  /// Backend by registry id; throws std::out_of_range.
  [[nodiscard]] Backend& backend(std::size_t id = 0) { return fleet_.at(id); }
  [[nodiscard]] const Backend& backend(std::size_t id = 0) const {
    return fleet_.at(id);
  }
  [[nodiscard]] const ServiceOptions& options() const noexcept {
    return options_;
  }
  /// Jobs submitted but not yet dispatched into a batch.
  [[nodiscard]] std::size_t pending_jobs() const;

 private:
  using JobPtr = std::shared_ptr<detail::JobState>;
  struct Batch {
    std::uint64_t index = 0;  ///< fleet-unique: per-lane ordinal * B + lane
    /// Modeled runtime from the plan that created the batch; added to the
    /// lane backlog at dispatch, removed at completion.
    double modeled_exec_s = 0.0;
    /// The calibration epoch this batch was planned under. Execution goes
    /// through it — not through the backend's current epoch — so a
    /// recalibration between dispatch and execution cannot change the
    /// batch's results or invalidate its partition/EFS decisions.
    std::shared_ptr<const CalibrationEpoch> epoch;
    std::vector<JobPtr> jobs;
    /// Planned partition + EFS per job (parallel to `jobs`), moved from
    /// the plan's PackedBatch; the pipeline executes on them.
    std::vector<PartitionAssignment> assignments;
    /// Sweep fast path: transpiles already bound at dispatch, parallel to
    /// `jobs` (empty when the batch has none; a disengaged entry means
    /// "transpile normally").
    std::vector<std::optional<TranspiledProgram>> prebound;
  };
  /// Per-backend execution lane: its own batch queue, condition variable
  /// and worker threads, so devices drain concurrently without sharing
  /// locks on the hot path.
  struct Lane {
    Lane(std::shared_ptr<Backend> b, int lane_id)
        : backend(std::move(b)), id(lane_id) {}
    std::shared_ptr<Backend> backend;
    int id = 0;
    std::mutex mutex;  ///< guards queue / stop / execution-side counters
    std::condition_variable cv;
    std::deque<Batch> queue;
    bool stop = false;
    std::uint64_t next_ordinal = 0;  ///< batches dispatched (pack mutex)
    std::uint64_t jobs_routed = 0;
    std::uint64_t jobs_completed = 0;
    std::uint64_t jobs_failed = 0;
    std::uint64_t batches_executed = 0;
    /// Modeled dispatched-but-unfinished seconds (guarded by mutex):
    /// += Batch::modeled_exec_s at dispatch, -= at completion. Snapshotted
    /// per dispatch cycle as pack_fleet's initial_backlog_s.
    double backlog_s = 0.0;
    double wait_sum_s = 0.0;  ///< modeled wait at admission, summed
    double wait_max_s = 0.0;  ///< worst modeled wait at admission
    /// Batches that finished against an epoch the backend had already
    /// superseded (guarded by mutex) — the live-recalibration overlap.
    std::uint64_t stale_epoch_batches = 0;
    /// Sweep fast-path counters (written under pack_mutex_ at dispatch,
    /// read under mutex at stats()-time via the same lane lock the
    /// dispatch enqueue takes).
    std::uint64_t sweep_groups = 0;
    std::uint64_t batched_binds = 0;
    std::vector<std::thread> workers;
  };

  void start_workers();
  /// Throw, before anything is enqueued, for a circuit the batch pipeline
  /// cannot run (see submit()); `index` is its place in submit_all's
  /// vector.
  void validate(const Circuit& circuit,
                std::optional<std::size_t> index) const;
  /// The one intake path of submit() and submit_all(): pass the submit
  /// gate (std::runtime_error once shut down), give `states` contiguous
  /// ids, and push them in order onto the intake queue,
  /// backpressure-dispatching while it is full; then auto-flush once.
  void publish(std::span<const JobPtr> states);
  void maybe_auto_flush(std::size_t pending_now);
  /// Swap the whole intake queue out, leaving it empty.
  std::vector<JobPtr> take_pending();
  void worker_loop(Lane& lane);
  /// Pack current pending jobs through the fleet scheduler and enqueue
  /// the planned batches onto their lanes. Serialized by pack_mutex_.
  void dispatch_pending();
  /// `concurrency` is the fleet-wide batch parallelism observed at
  /// dequeue time (in-flight + queued, capped at the total pool size); it
  /// sizes the kernel-thread budget so a lone batch keeps the whole
  /// machine while N concurrent batches cannot oversubscribe it N-fold.
  void execute_batch(Lane& lane, Batch batch, int concurrency);
  void wait_for_drain();

  BackendRegistry fleet_;
  ServiceOptions options_;
  std::unique_ptr<Partitioner> partitioner_;    ///< drives the packer
  std::unique_ptr<FleetScheduler> scheduler_;  ///< guarded by pack_mutex_
  std::size_t widest_backend_ = 0;  ///< first backend of the most qubits
  int widest_qubits_ = 0;           ///< its qubit count

  /// Published, not yet drained jobs (guarded by intake_mutex_). Pack
  /// cycles and cancel_pending() take the whole vector (take_pending).
  mutable std::mutex intake_mutex_;
  std::vector<JobPtr> intake_;
  /// Submission-side state outside the queue, all atomic.
  std::atomic<std::uint64_t> next_job_id_{0};
  std::atomic<bool> accepting_{true};  ///< false in shutdown(); submit throws
  std::atomic<std::size_t> active_submits_{0};  ///< submits past the gate

  mutable std::mutex mutex_;            ///< fleet counters + drain state
  std::condition_variable drained_cv_;  ///< outstanding == 0 -> flush()
  std::size_t outstanding_jobs_ = 0;  ///< dispatched, not yet finished
  std::uint64_t jobs_completed_ = 0;
  std::uint64_t jobs_failed_ = 0;
  std::uint64_t jobs_cancelled_ = 0;
  std::uint64_t batches_executed_ = 0;
  std::uint64_t spill_events_ = 0;
  std::uint64_t cross_device_spills_ = 0;
  std::uint64_t reservation_jobs_ = 0;
  double reservation_wait_sum_s_ = 0.0;
  double reservation_wait_max_s_ = 0.0;

  /// Batches dispatched and not yet finished, fleet-wide (queued +
  /// executing); sizes the kernel-thread budget without taking any lock.
  std::atomic<std::size_t> inflight_batches_{0};

  std::mutex pack_mutex_;  ///< serializes pack/dispatch cycles

  std::vector<std::unique_ptr<Lane>> lanes_;  ///< one per registry backend
};

/// The one true batch pipeline (transpile-with-cache onto the given
/// partitions -> simultaneous execution -> fidelity metrics -> runtime
/// model), shared by the service workers and run_parallel(). It runs
/// entirely against one calibration epoch (device snapshot + caches +
/// derived noise constants): the service workers pass each batch's
/// pack-time epoch so execution matches planning even across a live
/// recalibration, and run_parallel() passes a throwaway capacity-0 epoch.
/// `assignments` (one per program, e.g. from allocate_batch() or the fleet
/// plan's PackedBatch) are the partitions the programs execute on; the
/// pipeline allocates nothing itself. `names` overrides per-program report
/// names; empty entries (or an empty vector) fall back to the circuit name
/// / "program<i>". `prebound` (optional, parallel to `programs`) carries
/// the sweep fast path's dispatch-time transpiles (ExecutionService::
/// dispatch_pending binds same-structure sweep jobs against one cache
/// probe per group and planned partition); each engaged entry is consumed
/// (moved from) in place of that program's epoch-cache transpile. Each was
/// bound against the partition the pipeline executes that program on, so
/// it equals the per-job result. Throws std::invalid_argument when there
/// are no programs or `assignments` does not have one entry per program.
[[nodiscard]] BatchReport run_batch_pipeline(
    const CalibrationEpoch& epoch, const std::vector<Circuit>& programs,
    const std::vector<PartitionAssignment>& assignments,
    const std::vector<std::string>& names, const ParallelOptions& options,
    std::vector<std::optional<TranspiledProgram>>* prebound = nullptr);

/// Modeled fleet drain time for a set of finished jobs: batches are
/// grouped by (backend id, batch index), each backend's occupancy is the
/// sum of parallel_runtime_s over its batches (a chip runs its batches
/// back to back), and the fleet finishes when its busiest chip does —
/// §II-A's waiting + execution framing at fleet level. `num_backends`
/// must cover every backend id in `handles`; handles that Failed are
/// skipped. This is the throughput metric bench_fleet records in
/// BENCH_fleet.json and tests/test_service.cpp pins at >= 2.5x for a
/// 4-backend fleet.
[[nodiscard]] double modeled_fleet_drain_s(std::span<const JobHandle> handles,
                                           std::size_t num_backends,
                                           const RuntimeModel& model);

}  // namespace qucp
