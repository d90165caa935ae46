#pragma once
// Fleet scheduling: routing a job stream across N device endpoints.
//
// The paper frames multi-programming as a cloud-queue problem (overall
// runtime = waiting time + execution time, §II-A); one saturated chip next
// to idle ones is the fleet-level version of the same waste. This layer
// generalizes the single-device batch packer (service/packer.hpp) to N
// devices: every packing round keeps one open batch per device, and each
// job tries devices in a policy-chosen preference order before it spills
// to a later round. A job that would violate the §IV-B EFS threshold on
// its preferred chip therefore spills *cross-device* first — it lands on
// its second choice in the same round — and only defers when every open
// batch rejects it.
//
// Routing policies (pluggable, deterministic):
//   RoundRobin      — rotate the starting device by canonical queue
//                     position; throughput-first, calibration-blind.
//   LeastLoaded     — ascending routed-qubit load (cumulative per
//                     scheduler), ties to the lowest id; balances
//                     heterogeneous job sizes.
//   BestEfs         — ascending best-solo-EFS of the job on each device
//                     (partition/solo_efs_score, memoized per device);
//                     routes every job to the chip where its accumulated
//                     error is lowest, fidelity-first. Devices the job
//                     cannot fit on are excluded.
//   ExpectedLatency — ascending modeled completion time (§II-A: waiting +
//                     execution). The wait term is the slot's modeled
//                     drain — backlog already dispatched to the lane plus
//                     batches planned earlier this cycle — and the
//                     execution term is the runtime of the open batch the
//                     job would join, under the calibration-dependent
//                     makespan estimate modeled_exec_ns(). Joining an
//                     occupied open batch whose makespan already covers
//                     the job is nearly free, while opening a fresh batch
//                     behind a backlog is charged in full, so the policy
//                     is queue-aware where BestEfs/LeastLoaded are time-
//                     blind. Unfit devices are excluded. Validated
//                     offline by the src/fleetsim/ discrete-event
//                     simulator, whose ExpectedLatency mirrors this rule.
//
// pack_fleet() is the shared engine: with one slot and no policy it makes
// exactly the decisions pack_batches() historically made — pack_batches()
// is now a thin wrapper over it — so the single-backend ExecutionService
// and the run_parallel() shim stay bit-identical by construction.
//
// Determinism: policies see only the canonical job order and per-device
// state derived from it, so for a fixed fleet and fixed dispatch-cycle
// contents the full plan (slot, batch, order) is reproducible regardless
// of submission interleaving.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/runtime.hpp"
#include "service/packer.hpp"
#include "service/registry.hpp"

namespace qucp {

/// One schedulable device endpoint, as the fleet packer sees it. `index`
/// (optional) must have been built for `device`; `solo_efs` (required) is
/// the per-device memo of best-solo-EFS scores keyed by the job's
/// structural fingerprint (falling back to the exact circuit fingerprint
/// when the submitter leaves it zero) — the §IV-B spill baseline and the
/// BestEfs routing score.
struct FleetSlot {
  const Device* device = nullptr;
  const CandidateIndex* index = nullptr;
  std::map<std::uint64_t, double>* solo_efs = nullptr;
};

/// Calibration-dependent modeled makespan (ns) of a program shape on a
/// device: width-normalized serial gate time plus readout. A ranking
/// proxy, not a schedule — the same formula applied across devices makes
/// per-device duration calibration (CX/1q/readout times) the
/// discriminator, which is all the ExpectedLatency policy and the
/// service's queue-wait accounting need. The offline fleet simulator can
/// substitute exact transpile + ALAP-schedule makespans for the same
/// slot (see bench/bench_fleetsim.cpp).
[[nodiscard]] double modeled_exec_ns(const Device& device,
                                     const ProgramShape& shape);

/// Incremental grow-one-job admission probe for one slot's open batch.
///
/// The packer's admission test asks "does job J fit in this device's open
/// batch, and at what EFS?". The from-scratch answer re-allocates the
/// whole grown batch per probe (O(batch) allocations x N devices x
/// rounds). This probe keeps a persistent AllocationSession mirroring the
/// open batch's commits and, when the probed shape sorts last in
/// allocation_order (the common case: allocation order is
/// largest-first, and the §IV-B spill stream tends to present jobs in
/// shrinking shape order within a batch), extends it with a single
/// Partitioner::grow_one step — the earlier members' assignments are the
/// greedy prefix replay, which is bit-identical by construction, so only
/// the new job is allocated. A probe that would land mid-order, a slot
/// without a CandidateIndex, or a partitioner without grow_one takes the
/// from-scratch allocation instead; either way the produced assignment
/// vector and order are bit-identical, which tests/test_fleet.cpp pins
/// golden-style (indexed vs index-less slots) over randomized streams on
/// all bundled topologies.
class AdmissionProbe {
 public:
  AdmissionProbe(const FleetSlot& slot, const Partitioner& partitioner);
  ~AdmissionProbe();
  AdmissionProbe(AdmissionProbe&&) noexcept;
  AdmissionProbe& operator=(AdmissionProbe&&) noexcept;

  /// Test admitting `shape` as the next member of the open batch. On
  /// success returns the assignments of the grown batch in allocation
  /// order (use order() to map positions back to admission order); null
  /// when the grown batch cannot be placed. The pointer is valid until
  /// the next probe()/admit()/reset().
  [[nodiscard]] const std::vector<PartitionAssignment>* probe(
      const ProgramShape& shape);

  /// Admission-order index of each ordered assignment from the last
  /// successful probe; the value size() marks the probed shape itself.
  [[nodiscard]] std::span<const std::size_t> order() const noexcept {
    return pending_order_;
  }

  /// Commit the last successful probe into the open batch.
  void admit();

  /// Forget the open batch (the round closed it / a new round starts).
  void reset();

  /// Jobs admitted to the open batch so far.
  [[nodiscard]] std::size_t size() const noexcept { return shapes_.size(); }

  /// Qubit partition of each admitted job, in admission order (the
  /// allocation-order assignments mapped back through order()). Used by
  /// pack_fleet to export per-job partition provenance on closed batches.
  [[nodiscard]] std::vector<std::vector<int>> admitted_partitions() const;

 private:
  void rebuild_session();

  const FleetSlot* slot_;
  const Partitioner* partitioner_;
  std::vector<ProgramShape> shapes_;  ///< open batch, admission order
  std::vector<std::size_t> order_;    ///< == allocation_order(shapes_)
  std::vector<PartitionAssignment> assignments_;  ///< allocation order
  /// Session mirroring assignments_ commits; rebuilt lazily after a
  /// mid-order (from-scratch) admission invalidates it.
  std::unique_ptr<AllocationSession> session_;
  bool session_valid_ = false;
  // Last probe, pending until admit()/reset().
  std::vector<PartitionAssignment> pending_assignments_;
  std::vector<std::size_t> pending_order_;
  ProgramShape pending_shape_;
  bool pending_fast_ = false;
  bool has_pending_ = false;
};

/// Modeled drain state of one slot's lane during a packing cycle: the
/// backlog already dispatched to the lane when the cycle started, the
/// batches closed by earlier rounds of this cycle, and the open batch
/// being grown. Maintained by pack_fleet; read through FleetView by
/// queue-aware policies and the wait accounting.
struct LaneEstimate {
  double initial_backlog_s = 0.0;  ///< dispatched, unfinished at cycle start
  double planned_closed_s = 0.0;   ///< batches closed earlier this cycle
  int open_jobs = 0;               ///< jobs in the open batch
  double open_max_ns = 0.0;        ///< max modeled makespan in the open batch
};

/// Read-mostly view of the fleet handed to routing policies and used by
/// the packer's threshold checks. Probes are memoized in each slot's
/// solo-EFS map, so routing and spill checks share one score per
/// (device, circuit) pair. When constructed by pack_fleet the view also
/// exposes the per-slot drain/occupancy estimators queue-aware policies
/// score with; the two-argument form (tests, ad-hoc probing) reports an
/// idle fleet.
class FleetView {
 public:
  FleetView(std::span<const FleetSlot> slots, const Partitioner& partitioner,
            std::span<const LaneEstimate> lanes = {},
            const RuntimeModel* model = nullptr, int max_batch_size = 0);

  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }
  [[nodiscard]] const Device& device(std::size_t slot) const {
    return *slots_[slot].device;
  }
  /// Best solo EFS of `job` on `slot`'s device; nullopt = does not fit
  /// even alone. Memoized in the slot's map by structural fingerprint
  /// (exact fingerprint when the job carries none).
  [[nodiscard]] std::optional<double> solo_efs(std::size_t slot,
                                               const PackJob& job) const;

  /// Modeled seconds until `slot` would start a batch opened now: initial
  /// backlog plus the batches planned earlier this cycle. This is also
  /// the modeled wait a job admitted to the slot's open batch incurs.
  [[nodiscard]] double drain_estimate_s(std::size_t slot) const;
  /// Jobs in the slot's open batch this packing round.
  [[nodiscard]] int open_jobs(std::size_t slot) const;
  /// modeled_exec_ns() of `job` on the slot's device (per-slot duration
  /// averages are cached in the view).
  [[nodiscard]] double exec_estimate_ns(std::size_t slot,
                                        const PackJob& job) const;
  /// §II-A modeled completion time were `job` admitted to `slot` now:
  /// drain_estimate_s + the runtime of the batch it would join (the open
  /// batch while it has room, else a fresh one behind it).
  [[nodiscard]] double expected_latency_s(std::size_t slot,
                                          const PackJob& job) const;

 private:
  std::span<const FleetSlot> slots_;
  const Partitioner* partitioner_;
  std::span<const LaneEstimate> lanes_;
  const RuntimeModel* model_ = nullptr;
  int max_batch_size_ = 0;  ///< <= 0 means unbounded
  /// Per-slot mean CX duration (ns), computed once per view.
  std::vector<double> avg_cx_ns_;
};

/// How a multi-backend ExecutionService picks a device for each job.
enum class RoutePolicy { RoundRobin, LeastLoaded, BestEfs, ExpectedLatency };

[[nodiscard]] std::string_view route_policy_name(RoutePolicy policy) noexcept;

/// Pluggable routing strategy. `preference` fills `order` with slot ids in
/// try order (a strict subset excludes devices the policy rules out — an
/// empty order marks the job unplaceable); it is called once per job per
/// packing round and must be deterministic in (its own state, the fleet,
/// the job). `on_placed` observes every successful placement, in canonical
/// job order, for load accounting.
class RoutingPolicy {
 public:
  virtual ~RoutingPolicy() = default;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  virtual void preference(const FleetView& fleet, const PackJob& job,
                          std::vector<std::size_t>& order) = 0;
  virtual void on_placed(std::size_t slot, const PackJob& job) {
    (void)slot;
    (void)job;
  }
  /// True when the preference order already prices queueing (waiting
  /// behind full batches and backlogs). The packer then DEFERS a job to
  /// the next round when its preferred fitting slot's batch is full,
  /// instead of overflowing onto a worse-ranked (possibly catastrophically
  /// backlogged) lane — for a queue-aware order, every later preference
  /// is modeled slower than simply waiting. Time-blind policies keep the
  /// historical overflow behavior.
  [[nodiscard]] virtual bool queue_aware() const noexcept { return false; }
};

class RoundRobinPolicy final : public RoutingPolicy {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "RoundRobin";
  }
  void preference(const FleetView& fleet, const PackJob& job,
                  std::vector<std::size_t>& order) override;
};

class LeastLoadedPolicy final : public RoutingPolicy {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "LeastLoaded";
  }
  void preference(const FleetView& fleet, const PackJob& job,
                  std::vector<std::size_t>& order) override;
  void on_placed(std::size_t slot, const PackJob& job) override;

 private:
  /// Cumulative routed qubit load per slot (qubit-weighted so one wide job
  /// counts like several narrow ones). Grown on first use.
  std::vector<std::uint64_t> load_;
};

class BestEfsPolicy final : public RoutingPolicy {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "BestEfs";
  }
  void preference(const FleetView& fleet, const PackJob& job,
                  std::vector<std::size_t>& order) override;
};

/// Queue-aware routing: ascending FleetView::expected_latency_s, unfit
/// devices excluded, ties to the lowest id. Stateless — all load state
/// lives in the lane estimates pack_fleet maintains.
class ExpectedLatencyPolicy final : public RoutingPolicy {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "ExpectedLatency";
  }
  void preference(const FleetView& fleet, const PackJob& job,
                  std::vector<std::size_t>& order) override;
  [[nodiscard]] bool queue_aware() const noexcept override { return true; }
};

[[nodiscard]] std::unique_ptr<RoutingPolicy> make_routing_policy(
    RoutePolicy policy);

/// A fleet packing plan: per-slot batches in dispatch order, plus the
/// terminal failures and spill accounting.
struct FleetPlan {
  std::vector<std::vector<PackedBatch>> batches;  ///< [slot][dispatch order]
  std::vector<std::size_t> unplaceable;  ///< fits on no fleet device, alone
  /// Fidelity/fit co-placement rejections (same semantics as PackResult).
  std::uint64_t spill_events = 0;
  /// Placements that followed a fit/threshold rejection on an
  /// earlier-preferred device — the cross-device spills that kept the
  /// §IV-B threshold intact without deferring the job. Skipping a merely
  /// full batch on the way to another device is queueing, not a spill,
  /// and is not counted.
  std::uint64_t cross_device_spills = 0;
  /// Modeled execution seconds per planned batch, aligned with `batches`
  /// (job_runtime_s of the batch's max modeled makespan). The service
  /// adds these to its per-lane backlog at dispatch and removes them at
  /// completion, closing the loop for the next cycle's wait estimates.
  std::vector<std::vector<double>> batch_exec_s;
  /// Per-slot modeled queue wait at admission (§II-A waiting term): for
  /// every job placed on the slot this cycle, the drain estimate it was
  /// admitted behind. Sum and max feed ServiceStats so online estimates
  /// can be audited against realized batch order.
  std::vector<double> wait_sum_s;
  std::vector<double> wait_max_s;
  /// Reservation lane: exclusive jobs placed this cycle (each claims a
  /// whole device for its round, routed to the lowest-modeled-drain slot
  /// among its policy preferences), and the modeled wait each reservation
  /// was admitted behind — the §II-A cost of idling a chip for one job.
  std::uint64_t reservation_jobs = 0;
  double reservation_wait_sum_s = 0.0;
  double reservation_wait_max_s = 0.0;
  /// Calibration epoch each slot was planned under, one entry per slot
  /// when the plan came from FleetScheduler::plan (raw pack_fleet calls
  /// leave it empty — their slots' lifetimes are the caller's problem).
  /// The service attaches epochs[s] to every batch dispatched to slot s,
  /// so a batch executes against exactly the calibration its partitions
  /// and EFS scores were computed from, even if the backend recalibrates
  /// between planning and execution.
  std::vector<std::shared_ptr<const CalibrationEpoch>> epochs;
};

/// Pack `jobs` (already in the desired queue order) across `slots`.
/// `policy` == nullptr routes every job through slots in id order (the
/// single-slot instantiation of this engine IS pack_batches).
/// `initial_backlog_s` (empty, or one modeled-seconds entry per slot)
/// seeds each lane's drain estimate with work already dispatched to it.
/// Not thread-safe — callers serialize packing.
[[nodiscard]] FleetPlan pack_fleet(
    std::span<const FleetSlot> slots, std::span<const PackJob> jobs,
    const Partitioner& partitioner, const PackOptions& options,
    RoutingPolicy* policy = nullptr,
    std::span<const double> initial_backlog_s = {});

/// The service-side orchestrator: owns the routing policy and the
/// per-backend solo-EFS memos for a BackendRegistry, and turns a pending
/// job list into a FleetPlan. Single-backend fleets bypass the policy
/// (routing is trivial and must stay decision-identical to the historical
/// pack_batches path). Not thread-safe — the ExecutionService serializes
/// planning under its pack mutex.
class FleetScheduler {
 public:
  FleetScheduler(const BackendRegistry& fleet, RoutePolicy policy);

  /// `initial_backlog_s` — see pack_fleet. The service passes each lane's
  /// modeled dispatched-but-unfinished work so ExpectedLatency routing and
  /// the wait accounting see queue state across dispatch cycles.
  [[nodiscard]] FleetPlan plan(std::span<const PackJob> jobs,
                               const Partitioner& partitioner,
                               const PackOptions& options,
                               std::span<const double> initial_backlog_s = {});

  /// Active policy; nullptr on single-backend fleets.
  [[nodiscard]] RoutingPolicy* policy() noexcept { return policy_.get(); }

 private:
  /// Per-backend solo-EFS memo, keyed by the calibration epoch it was
  /// scored under: plan() pins each backend's current epoch, and a memo
  /// whose epoch_id no longer matches is discarded wholesale — a
  /// recalibrated chip re-scores from scratch instead of routing on stale
  /// fidelity numbers.
  struct SoloCache {
    std::uint64_t epoch_id = 0;
    std::map<std::uint64_t, double> scores;  ///< circuit fp -> best solo EFS
  };

  const BackendRegistry* fleet_;
  std::unique_ptr<RoutingPolicy> policy_;
  std::vector<SoloCache> solo_cache_;  ///< per backend
};

}  // namespace qucp
