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
// Routing rules (one RoutingPolicy class switching on its RoutePolicy
// kind; deterministic):
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
//                     blind. Unfit devices are excluded. The
//                     src/fleetsim/ simulator plans with this very
//                     FleetScheduler, so its latency study measures the
//                     rule the service routes with.
//
// pack_fleet() is the one packing engine. A one-slot plan never consults
// the policy (its order is {0} whatever the rule), so it is the
// single-device packer of service/packer.hpp and the single-backend
// ExecutionService plans the same batches under every policy. Each
// planned batch carries the assignments its members were admitted on,
// and the service executes it on them.
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
#include <utility>
#include <vector>

#include "core/runtime.hpp"
#include "service/packer.hpp"
#include "service/registry.hpp"

namespace qucp {

/// Best-solo-EFS scores of one device keyed by program shape: solo EFS
/// reads the shape and the device only, so every circuit of one shape
/// shares a score, and the memo holds one entry per distinct shape.
using SoloEfsMemo = std::map<ProgramShape, double>;

/// One schedulable device endpoint, as the fleet packer sees it. `index`
/// (optional, as in Partitioner::allocate) must have been built for
/// `device`; `solo_efs` (required) is the per-device memo of best-solo-EFS
/// scores — the §IV-B spill baseline and the BestEfs routing score.
struct FleetSlot {
  const Device* device = nullptr;
  const CandidateIndex* index = nullptr;
  SoloEfsMemo* solo_efs = nullptr;
};

/// Calibration-dependent modeled makespan (ns) of a program shape on a
/// device: width-normalized serial gate time plus readout. A ranking
/// proxy, not a schedule — the same formula applied across devices makes
/// per-device duration calibration (CX/1q/readout times) the
/// discriminator, which is all the ExpectedLatency policy and the
/// service's queue-wait accounting need. The fleet simulator plans with
/// it too, and times the planned batches with exact transpile +
/// ALAP-schedule makespans (see bench/bench_fleetsim.cpp).
[[nodiscard]] double modeled_exec_ns(const Device& device,
                                     const ProgramShape& shape);

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

/// Read-mostly view of the fleet handed to the routing policy and used by
/// the packer's threshold checks. Probes are memoized in each slot's
/// solo-EFS map, so routing and spill checks share one score per
/// (device, shape) pair. `lanes` (one per slot) are the drain/occupancy
/// estimates pack_fleet maintains and ExpectedLatency scores with.
class FleetView {
 public:
  FleetView(std::span<const FleetSlot> slots, const Partitioner& partitioner,
            std::span<const LaneEstimate> lanes, const RuntimeModel& model,
            int max_batch_size);

  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }
  /// Best solo EFS of `job` on `slot`'s device; nullopt = does not fit
  /// even alone. Memoized in the slot's map by the job's shape.
  [[nodiscard]] std::optional<double> solo_efs(
      std::size_t slot, const PackJob& job) const;

  /// Modeled seconds until `slot` would start a batch opened now: initial
  /// backlog plus the batches planned earlier this cycle. This is also
  /// the modeled wait a job admitted to the slot's open batch incurs.
  [[nodiscard]] double drain_estimate_s(std::size_t slot) const;
  /// modeled_exec_ns() of `job` on the slot's device (per-slot duration
  /// averages are cached in the view).
  [[nodiscard]] double exec_estimate_ns(std::size_t slot,
                                        const PackJob& job) const;
  /// §II-A modeled completion time were `job` admitted to `slot` now: the
  /// lane's drain, a full open batch's runtime, then the batch it joins
  /// (the open one while it has room, else a fresh one).
  [[nodiscard]] double expected_latency_s(std::size_t slot,
                                          const PackJob& job) const;

 private:
  std::span<const FleetSlot> slots_;
  const Partitioner* partitioner_;
  std::span<const LaneEstimate> lanes_;
  const RuntimeModel* model_;
  int max_batch_size_;  ///< <= 0 means unbounded
  /// Per-slot mean CX duration (ns), computed once per view.
  std::vector<double> avg_cx_ns_;
};

/// How a multi-backend ExecutionService picks a device for each job.
enum class RoutePolicy { RoundRobin, LeastLoaded, BestEfs, ExpectedLatency };

[[nodiscard]] std::string_view route_policy_name(RoutePolicy policy) noexcept;

/// The routing rule of one RoutePolicy kind. `preference` fills `order`
/// with slot ids in try order (a strict subset excludes devices the rule
/// rules out — an empty order marks the job unplaceable); it is called
/// once per job per packing round and is deterministic in (the policy's
/// own state, the fleet, the job). `on_placed` observes every successful
/// placement, in canonical job order, for LeastLoaded's load accounting.
///
/// ExpectedLatency is the queue-aware rule: its order already prices
/// queueing (waiting behind full batches and backlogs), so pack_fleet
/// DEFERS a job to the next round when its preferred fitting slot's batch
/// is full, instead of overflowing onto a worse-ranked (possibly
/// catastrophically backlogged) lane — for a queue-aware order, every
/// later preference is modeled slower than simply waiting. The time-blind
/// rules overflow onto the next-ranked slot within the round.
class RoutingPolicy {
 public:
  explicit RoutingPolicy(RoutePolicy kind) noexcept : kind_(kind) {}
  [[nodiscard]] RoutePolicy kind() const noexcept { return kind_; }
  void preference(const FleetView& fleet, const PackJob& job,
                  std::vector<std::size_t>& order);
  void on_placed(std::size_t slot, const PackJob& job);

 private:
  RoutePolicy kind_;
  /// LeastLoaded: cumulative routed qubit load per slot (qubit-weighted so
  /// one wide job counts like several narrow ones). Grown on first use.
  std::vector<std::uint64_t> load_;
  /// (score, slot) scratch the sorting rules reuse across calls.
  std::vector<std::pair<double, std::size_t>> scored_;
};

/// A fleet packing plan: per-slot batches in dispatch order, plus the
/// terminal failures and spill accounting.
struct FleetPlan {
  std::vector<std::vector<PackedBatch>> batches;  ///< [slot][dispatch order]
  std::vector<std::size_t> unplaceable;  ///< fits on no fleet device, alone
  /// Co-placement rejections: the allocation failed or the EFS threshold
  /// tripped with co-runners present, deferring the job to a later batch.
  /// Waiting behind a batch that is simply full is not counted.
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

/// Pack `jobs` (already in the desired queue order) across `slots`,
/// routing by `policy`. A one-slot plan tries slot 0 without consulting
/// the policy, so it is the single-device packer under every kind.
/// `initial_backlog_s` (empty, or one modeled-seconds entry per slot)
/// seeds each lane's drain estimate with work already dispatched to it.
/// Not thread-safe — callers serialize packing.
[[nodiscard]] FleetPlan pack_fleet(
    std::span<const FleetSlot> slots, std::span<const PackJob> jobs,
    const Partitioner& partitioner, const PackOptions& options,
    RoutingPolicy& policy, std::span<const double> initial_backlog_s = {});

/// The service-side orchestrator: owns the routing policy and the
/// per-backend solo-EFS memos for a BackendRegistry, and turns a pending
/// job list into a FleetPlan. Not thread-safe — the ExecutionService
/// serializes planning under its pack mutex.
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

 private:
  /// Per-backend solo-EFS memo, keyed by the calibration epoch it was
  /// scored under: plan() pins each backend's current epoch, and a memo
  /// whose epoch_id no longer matches is discarded wholesale — a
  /// recalibrated chip re-scores from scratch instead of routing on stale
  /// fidelity numbers.
  struct SoloCache {
    std::uint64_t epoch_id = 0;
    SoloEfsMemo scores;
  };

  const BackendRegistry* fleet_;
  RoutingPolicy policy_;
  std::vector<SoloCache> solo_cache_;  ///< per backend
};

}  // namespace qucp
