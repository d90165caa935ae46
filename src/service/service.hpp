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
// via a pluggable policy (RoundRobin / LeastLoaded / BestEfs /
// ExpectedLatency), and every backend gets its own packer/worker lane, so
// batches on different devices execute concurrently without sharing locks:
//
//   BackendRegistry fleet({make_toronto27(), make_manhattan65()});
//   ExecutionService service(std::move(fleet), options);  // BestEfs default
//
// Determinism: with JobOrder::Canonical (default) queued jobs are packed
// in (circuit fingerprint, name, submission id) order, so for a fixed seed
// the results — including routing decisions and per-backend batch
// assignments — are reproducible regardless of submission interleaving;
// jobs that share both circuit and name are mutually interchangeable, and
// every other handle is exactly reproducible. A batch with per-backend
// ordinal k on backend b (of B) executes with seed
// `exec.seed + (k * B + b) * golden_ratio`; for B = 1 that is the
// historical `seed + batch_index * golden_ratio`, which keeps the
// run_parallel() shim and the single-backend constructor bit-identical to
// their historical output.
//
// run_parallel() in core/parallel.hpp is a compatibility shim over this
// service (single backend, single batch, FIFO order, synchronous).

#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "core/parallel.hpp"
#include "core/runtime.hpp"
#include "service/backend.hpp"
#include "service/fleet.hpp"
#include "service/intake.hpp"
#include "service/job.hpp"
#include "service/packer.hpp"
#include "service/registry.hpp"

namespace qucp {

/// Order in which queued jobs are considered for packing.
enum class JobOrder {
  /// Submission order. Deterministic only for single-threaded submitters.
  Fifo,
  /// (circuit fingerprint, name, submission id): deterministic under
  /// concurrent submission up to jobs that are exact duplicates.
  Canonical,
};

struct ServiceOptions {
  Method method = Method::QuCP;
  double sigma = 4.0;  ///< QuCP crosstalk parameter (paper: sigma = 4)
  ExecOptions exec;    ///< shots, noise toggles, base seed
  /// SRB crosstalk estimates; required by QuMC, used by CNA when present.
  std::optional<CrosstalkModel> srb_estimates;
  bool optimize_circuits = true;

  int num_workers = 4;     ///< batch-executing threads per backend lane
  int max_batch_size = 4;  ///< jobs per batch; <= 0 means unbounded
  /// §IV-B fidelity threshold: max EFS degradation vs running solo before
  /// a co-placement is rejected and the job spills — on a fleet, first to
  /// another device's open batch, then to the next batch.
  /// 0 forces independent execution; infinity admits anything that fits.
  double efs_threshold = std::numeric_limits<double>::infinity();
  JobOrder order = JobOrder::Canonical;
  /// Fleet routing policy (see service/fleet.hpp). Ignored on a
  /// single-backend service, where routing is trivial.
  RoutePolicy route_policy = RoutePolicy::BestEfs;
  /// Pack all queued jobs into exactly one batch and let the pipeline
  /// fail the whole batch when it does not fit (run_parallel semantics).
  bool single_batch = false;
  /// When > 0, submit() packs and dispatches as soon as this many jobs
  /// are pending, without waiting for flush(). Note: with concurrent
  /// submitters the batch boundaries then depend on arrival interleaving.
  std::size_t auto_flush_batch_size = 0;
  /// Per-epoch transpile cache entries (service/backend.hpp); 0 disables
  /// caching, so every job transpiles from scratch and submit_all() sweeps
  /// take the per-job path.
  std::size_t transpile_cache_capacity = 1024;
  /// Sharded MPSC intake (service/intake.hpp): number of submission
  /// shards. Each submitter thread homes on shard (thread ordinal mod
  /// shards), so up to this many producers publish without touching the
  /// same ring. 0 (the default) sizes the shard count from the machine:
  /// hardware_concurrency rounded up to a power of two, clamped to
  /// [8, 64] — at least 8 so an 8-producer burst never shares a ring even
  /// on small boxes, capped so shard memory stays bounded. An explicit
  /// value overrides. Shard count no longer affects plans: Canonical
  /// packing totally orders the drained set, so batch boundaries are
  /// drain-layout independent (see dispatch_pending); under Fifo order
  /// the global ticket sort restores submission order regardless of
  /// layout.
  std::size_t submit_shards = 0;
  /// Fixed capacity per submission shard, rounded up to a power of two.
  /// A full shard backpressures submit() into draining the rings itself
  /// (a pack/dispatch cycle) and retrying — nothing blocks indefinitely
  /// and nothing is dropped, but under overload batch boundaries follow
  /// drain timing rather than auto_flush_batch_size.
  std::size_t submit_shard_capacity = 4096;
  /// Feed *realized* batch durations back into the per-lane backlog the
  /// next dispatch cycle routes on: each lane keeps an EWMA of
  /// (measured wall-clock batch duration) / (modeled batch runtime), and
  /// the backlog snapshot handed to ExpectedLatency routing is scaled by
  /// it — a lane whose batches consistently run longer than the model
  /// says attracts less traffic. Off (default) the service never reads a
  /// clock and stays bit-identical to the modeled-only behavior. Note the
  /// ratio calibrates modeled device-time against observed host-time
  /// behavior; only its trend matters, not its absolute scale.
  bool feed_realized_durations = false;
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
  /// Realized-duration feedback (ServiceOptions::feed_realized_durations):
  /// measured wall seconds summed over executed batches, the number of
  /// batches measured, and the lane's current EWMA of realized/modeled
  /// duration. All zero (ratio 1) when the knob is off.
  double realized_exec_sum_s = 0.0;
  std::uint64_t realized_batches = 0;
  double realized_ratio = 1.0;
  /// Sweep fast path (see ExecutionService::submit_all): groups of
  /// same-structure jobs in this lane's planned batches whose templates
  /// were probed once and bound batch-at-a-time at dispatch, and the
  /// number of jobs that received a prebound transpile that way.
  std::uint64_t sweep_groups = 0;
  std::uint64_t batched_binds = 0;
  TranspileCacheStats transpile_cache;
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

/// Sweep fast-path payload for run_batch_pipeline: transpiles prebound at
/// dispatch (ExecutionService::dispatch_pending groups same-structure
/// sweep jobs per planned batch and binds their templates
/// batch-at-a-time). Entries are parallel to the pipeline's programs;
/// a disengaged program means "transpile normally". `partitions[i]` is
/// the partition prebind i was computed against — the pipeline uses a
/// prebound program only after verifying its own allocation reproduced
/// that exact partition, so the fast path can never change results.
/// `plans[i]` (when set) is the group's shared fusion plan, fetched once
/// per sweep group from the epoch's program cache; the scoring pass
/// materializes the ideal-reference program straight from it instead of
/// paying a per-job fingerprint + cache round-trip. materialize() is
/// bit-identical to the cached fused() compile, so results don't change.
struct PreboundTranspiles {
  std::vector<std::optional<TranspiledProgram>> programs;
  std::vector<std::vector<int>> partitions;
  std::vector<std::shared_ptr<const FusionPlan>> plans;
  [[nodiscard]] bool empty() const noexcept { return programs.empty(); }
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

  /// Enqueue a circuit. Cheap, thread-safe and lock-free on the hot path
  /// (sharded MPSC intake, see service/intake.hpp); nothing executes
  /// until a batch is dispatched (flush(), shutdown() or auto-flush).
  /// Throws std::runtime_error after shutdown().
  JobHandle submit(Circuit circuit, JobOptions options = {});

  /// Batch submission: one handle per circuit. The whole vector is
  /// published to the caller's home shard as a single contiguous ticket
  /// block (one reservation, not one per job), so a drain sees it in
  /// order with no interleaved jobs from same-shard producers — including
  /// vectors larger than the shard capacity, which reserve a multi-lap
  /// ticket span up front and publish through it, backpressure-draining
  /// as the consumer frees cells (no chunk seam another producer could
  /// land inside).
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
    /// Sweep fast path: transpiles already bound at dispatch, parallel to
    /// `jobs` (empty when the batch has none).
    PreboundTranspiles prebound;
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
    /// Realized-duration feedback (only touched when
    /// ServiceOptions::feed_realized_durations is on; guarded by mutex).
    /// realized_ratio is an EWMA of measured-wall / modeled-runtime per
    /// executed batch; the dispatch cycle multiplies its backlog snapshot
    /// by it so routing sees a lane's *observed* drain speed.
    double realized_ratio = 1.0;
    double realized_exec_sum_s = 0.0;
    std::uint64_t realized_batches = 0;
    /// Sweep fast-path counters (written under pack_mutex_ at dispatch,
    /// read under mutex at stats()-time via the same lane lock the
    /// dispatch enqueue takes).
    std::uint64_t sweep_groups = 0;
    std::uint64_t batched_binds = 0;
    std::vector<std::thread> workers;
  };

  void start_workers();
  /// Assign an id and publish `state` to `shard`, backpressure-dispatching
  /// while the ring is full; throws std::runtime_error once shut down.
  void enqueue_job(const JobPtr& state, std::size_t shard);
  void maybe_auto_flush(std::size_t pending_now);
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

  /// Sharded MPSC submission queues; drained only under pack_mutex_.
  std::unique_ptr<detail::ShardedIntake> intake_;
  /// Submission-side state, all atomic — submit() takes no lock.
  std::atomic<std::uint64_t> next_job_id_{0};
  std::atomic<std::size_t> pending_count_{0};  ///< published, not drained
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

/// The one true batch pipeline (partition -> transpile-with-cache ->
/// simultaneous execution -> fidelity metrics -> runtime model), shared by
/// the service workers and the run_parallel() compatibility shim. It runs
/// entirely against one calibration epoch (device snapshot + caches +
/// derived noise constants): the service workers pass each batch's
/// pack-time epoch so execution matches planning even across a live
/// recalibration, and run_parallel() passes a throwaway capacity-0 epoch.
/// `names` overrides per-program report names; empty entries (or an empty
/// vector) fall back to the circuit name / "program<i>". `prebound`
/// (optional) carries dispatch-time batch-bound transpiles; each entry is
/// consumed (moved from) only when its recorded partition matches the
/// allocation this pipeline derives, otherwise that program transpiles
/// through the epoch cache as usual — results are identical either way.
/// Throws std::invalid_argument for config errors and std::runtime_error
/// when the batch cannot be placed.
[[nodiscard]] BatchReport run_batch_pipeline(
    const CalibrationEpoch& epoch, const std::vector<Circuit>& programs,
    const std::vector<std::string>& names, const ParallelOptions& options,
    PreboundTranspiles* prebound = nullptr);

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
