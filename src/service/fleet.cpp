#include "service/fleet.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "partition/candidate_index.hpp"

namespace qucp {

namespace {

double mean_cx_duration_ns(const Calibration& cal) {
  if (cal.cx_duration_ns.empty()) return 0.0;
  double sum = 0.0;
  for (double d : cal.cx_duration_ns) sum += d;
  return sum / static_cast<double>(cal.cx_duration_ns.size());
}

// Width-normalized serial gate time: with w qubits at most w/2 two-qubit
// gates (and w one-qubit gates) run concurrently, so the serial sum over
// gates divided by w/2 brackets the ALAP makespan from above for
// width-parallel circuits and degrades gracefully to the serial sum for
// 1-2 qubit programs.
double exec_ns_from_calibration(const Calibration& cal,
                                const ProgramShape& shape,
                                double avg_cx_ns) {
  const double width = std::max(2.0, static_cast<double>(shape.num_qubits));
  const double serial =
      static_cast<double>(shape.num_1q) * cal.q1_duration_ns +
      static_cast<double>(shape.num_2q) * avg_cx_ns;
  return serial * 2.0 / width + cal.readout_duration_ns;
}

}  // namespace

double modeled_exec_ns(const Device& device, const ProgramShape& shape) {
  const Calibration& cal = device.calibration();
  return exec_ns_from_calibration(cal, shape, mean_cx_duration_ns(cal));
}

AdmissionProbe::AdmissionProbe(const FleetSlot& slot,
                               const Partitioner& partitioner)
    : slot_(&slot), partitioner_(&partitioner) {}

AdmissionProbe::~AdmissionProbe() = default;
AdmissionProbe::AdmissionProbe(AdmissionProbe&&) noexcept = default;
AdmissionProbe& AdmissionProbe::operator=(AdmissionProbe&&) noexcept =
    default;

void AdmissionProbe::rebuild_session() {
  // A session's future queries depend only on the committed set and
  // commit order, so replaying assignments_ (already in allocation order)
  // reproduces exactly the session state a fresh allocate() would have
  // after the same prefix.
  session_ = std::make_unique<AllocationSession>(*slot_->index);
  for (const PartitionAssignment& a : assignments_) {
    session_->commit(a.qubits);
  }
  session_valid_ = true;
}

const std::vector<PartitionAssignment>* AdmissionProbe::probe(
    const ProgramShape& shape) {
  has_pending_ = false;
  pending_shape_ = shape;

  // allocation_order sorts (qubits desc, 2q desc, stable): the new shape
  // — holding the highest original index — sorts last iff it does not
  // strictly precede the currently-last ordered member.
  const auto sorts_last = [&] {
    if (shapes_.empty()) return true;
    const ProgramShape& last = shapes_[order_.back()];
    const bool precedes =
        shape.num_qubits > last.num_qubits ||
        (shape.num_qubits == last.num_qubits && shape.num_2q > last.num_2q);
    return !precedes;
  };

  if (slot_->index != nullptr &&
      partitioner_->supports_incremental() && sorts_last()) {
    // Fast path: the grown batch's allocation order is the old order plus
    // the new shape at the end, so the members' greedy prefix (and their
    // context EFS scores, frozen at their own allocation step) is
    // unchanged — only the new job needs an allocation, against the
    // persistent session.
    if (!session_valid_) rebuild_session();
    auto grown = partitioner_->grow_one(*session_, shape);
    if (!grown) return nullptr;
    pending_assignments_ = assignments_;
    pending_assignments_.push_back(std::move(*grown));
    pending_order_ = order_;
    pending_order_.push_back(shapes_.size());
    pending_fast_ = true;
  } else {
    // From-scratch path: re-allocate the whole grown batch in the same
    // largest-first order the execution pipeline will use.
    std::vector<ProgramShape> tentative = shapes_;
    tentative.push_back(shape);
    pending_order_ = allocation_order(tentative);
    std::vector<ProgramShape> ordered_shapes;
    ordered_shapes.reserve(pending_order_.size());
    for (std::size_t idx : pending_order_) {
      ordered_shapes.push_back(tentative[idx]);
    }
    auto alloc =
        partitioner_->allocate(*slot_->device, ordered_shapes, slot_->index);
    if (!alloc) return nullptr;
    pending_assignments_ = std::move(*alloc);
    pending_fast_ = false;
  }
  has_pending_ = true;
  return &pending_assignments_;
}

void AdmissionProbe::admit() {
  assert(has_pending_);
  if (pending_fast_ && session_valid_) {
    // Tail admission: the session extends by exactly the new commit.
    session_->commit(pending_assignments_.back().qubits);
  } else {
    // Mid-order admission re-shuffled the commit order; rebuild lazily on
    // the next fast probe.
    session_valid_ = false;
  }
  shapes_.push_back(pending_shape_);
  order_ = std::move(pending_order_);
  assignments_ = std::move(pending_assignments_);
  pending_order_.clear();
  pending_assignments_.clear();
  has_pending_ = false;
}

std::vector<std::vector<int>> AdmissionProbe::admitted_partitions() const {
  // assignments_ is allocation-ordered; order_[pos] maps each allocation
  // position back to the admission index of the job it places.
  std::vector<std::vector<int>> parts(assignments_.size());
  for (std::size_t pos = 0; pos < assignments_.size(); ++pos) {
    parts[order_[pos]] = assignments_[pos].qubits;
  }
  return parts;
}

void AdmissionProbe::reset() {
  shapes_.clear();
  order_.clear();
  assignments_.clear();
  session_.reset();
  session_valid_ = false;
  pending_order_.clear();
  pending_assignments_.clear();
  has_pending_ = false;
}

FleetView::FleetView(std::span<const FleetSlot> slots,
                     const Partitioner& partitioner,
                     std::span<const LaneEstimate> lanes,
                     const RuntimeModel* model, int max_batch_size)
    : slots_(slots),
      partitioner_(&partitioner),
      lanes_(lanes),
      model_(model),
      max_batch_size_(max_batch_size) {
  avg_cx_ns_.reserve(slots_.size());
  for (const FleetSlot& slot : slots_) {
    avg_cx_ns_.push_back(mean_cx_duration_ns(slot.device->calibration()));
  }
}

double FleetView::drain_estimate_s(std::size_t slot) const {
  if (lanes_.empty()) return 0.0;
  return lanes_[slot].initial_backlog_s + lanes_[slot].planned_closed_s;
}

int FleetView::open_jobs(std::size_t slot) const {
  return lanes_.empty() ? 0 : lanes_[slot].open_jobs;
}

double FleetView::exec_estimate_ns(std::size_t slot,
                                   const PackJob& job) const {
  return exec_ns_from_calibration(slots_[slot].device->calibration(),
                                  job.shape, avg_cx_ns_[slot]);
}

double FleetView::expected_latency_s(std::size_t slot,
                                     const PackJob& job) const {
  static const RuntimeModel kDefaultModel{};
  const RuntimeModel& model = model_ != nullptr ? *model_ : kDefaultModel;
  const double own_ns = exec_estimate_ns(slot, job);
  double wait = drain_estimate_s(slot);
  double batch_ns = own_ns;
  if (!lanes_.empty()) {
    const LaneEstimate& lane = lanes_[slot];
    const bool open_has_room =
        lane.open_jobs > 0 &&
        (max_batch_size_ <= 0 || lane.open_jobs < max_batch_size_);
    if (open_has_room) {
      // Joining the open batch: the batch's runtime only grows by the
      // makespan delta, which is zero when a slower co-runner already
      // bounds it — the §II-A win batching exists for.
      batch_ns = std::max(lane.open_max_ns, own_ns);
    } else if (lane.open_jobs > 0) {
      // Full open batch ahead: wait behind it, then run a fresh batch.
      wait += job_runtime_s(model, lane.open_max_ns);
    }
  }
  return wait + job_runtime_s(model, batch_ns);
}

std::optional<double> FleetView::solo_efs(std::size_t slot,
                                          const PackJob& job) const {
  // Does-not-fit is memoized as +infinity: EFS sums finite error terms, so
  // the sentinel can never collide with a real score, and BestEfs (which
  // probes every job on every device each round) never re-runs an
  // allocation that is known to fail.
  constexpr double kUnfit = std::numeric_limits<double>::infinity();
  // Solo EFS reads the job's shape and the device only — never parameter
  // values — so structurally identical jobs share one memo slot when the
  // submitter provides the parameter-blind key (angle sweeps score once).
  const std::uint64_t key =
      job.structural_fp != 0 ? job.structural_fp : job.fingerprint;
  std::map<std::uint64_t, double>& cache = *slots_[slot].solo_efs;
  if (auto it = cache.find(key); it != cache.end()) {
    if (it->second == kUnfit) return std::nullopt;
    return it->second;
  }
  const auto score = solo_efs_score(*slots_[slot].device, *partitioner_,
                                    job.shape, slots_[slot].index);
  cache.emplace(key, score.value_or(kUnfit));
  return score;
}

std::string_view route_policy_name(RoutePolicy policy) noexcept {
  switch (policy) {
    case RoutePolicy::RoundRobin: return "RoundRobin";
    case RoutePolicy::LeastLoaded: return "LeastLoaded";
    case RoutePolicy::BestEfs: return "BestEfs";
    case RoutePolicy::ExpectedLatency: return "ExpectedLatency";
  }
  return "?";
}

void RoundRobinPolicy::preference(const FleetView& fleet, const PackJob& job,
                                  std::vector<std::size_t>& order) {
  // Rotate the starting slot by canonical queue position: stable across
  // packing rounds (a spilled job keeps its preference) and independent of
  // submission interleaving.
  const std::size_t n = fleet.size();
  order.resize(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = (job.index + i) % n;
}

void LeastLoadedPolicy::preference(const FleetView& fleet, const PackJob& job,
                                   std::vector<std::size_t>& order) {
  (void)job;
  const std::size_t n = fleet.size();
  if (load_.size() < n) load_.resize(n, 0);
  order.resize(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return load_[a] < load_[b];
                   });
}

void LeastLoadedPolicy::on_placed(std::size_t slot, const PackJob& job) {
  if (load_.size() <= slot) load_.resize(slot + 1, 0);
  load_[slot] += static_cast<std::uint64_t>(std::max(1, job.shape.num_qubits));
}

void BestEfsPolicy::preference(const FleetView& fleet, const PackJob& job,
                               std::vector<std::size_t>& order) {
  // Ascending best-solo-EFS (EFS accumulates *error*, so lowest is best);
  // devices the job cannot fit on are excluded, ties go to the lowest id.
  struct Scored {
    std::size_t slot;
    double score;
  };
  std::vector<Scored> scored;
  scored.reserve(fleet.size());
  for (std::size_t s = 0; s < fleet.size(); ++s) {
    if (const auto score = fleet.solo_efs(s, job)) {
      scored.push_back({s, *score});
    }
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const Scored& a, const Scored& b) {
                     return a.score < b.score;
                   });
  order.clear();
  for (const Scored& s : scored) order.push_back(s.slot);
}

void ExpectedLatencyPolicy::preference(const FleetView& fleet,
                                       const PackJob& job,
                                       std::vector<std::size_t>& order) {
  // Ascending §II-A modeled completion time (waiting + execution); unfit
  // devices are excluded, ties go to the lowest id. All queue state lives
  // in the lane estimates the packer maintains, so the policy itself is
  // stateless and replayable.
  struct Scored {
    std::size_t slot;
    double score;
  };
  std::vector<Scored> scored;
  scored.reserve(fleet.size());
  for (std::size_t s = 0; s < fleet.size(); ++s) {
    if (!fleet.solo_efs(s, job)) continue;
    scored.push_back({s, fleet.expected_latency_s(s, job)});
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const Scored& a, const Scored& b) {
                     return a.score < b.score;
                   });
  order.clear();
  for (const Scored& s : scored) order.push_back(s.slot);
}

std::unique_ptr<RoutingPolicy> make_routing_policy(RoutePolicy policy) {
  switch (policy) {
    case RoutePolicy::RoundRobin: return std::make_unique<RoundRobinPolicy>();
    case RoutePolicy::LeastLoaded:
      return std::make_unique<LeastLoadedPolicy>();
    case RoutePolicy::BestEfs: return std::make_unique<BestEfsPolicy>();
    case RoutePolicy::ExpectedLatency:
      return std::make_unique<ExpectedLatencyPolicy>();
  }
  throw std::logic_error("make_routing_policy: unhandled policy");
}

FleetPlan pack_fleet(std::span<const FleetSlot> slots,
                     std::span<const PackJob> jobs,
                     const Partitioner& partitioner,
                     const PackOptions& options, RoutingPolicy* policy,
                     std::span<const double> initial_backlog_s) {
  if (!initial_backlog_s.empty() && initial_backlog_s.size() != slots.size()) {
    throw std::invalid_argument(
        "pack_fleet: initial_backlog_s must be empty or one entry per slot");
  }
  FleetPlan plan;
  plan.batches.resize(slots.size());
  plan.batch_exec_s.resize(slots.size());
  plan.wait_sum_s.assign(slots.size(), 0.0);
  plan.wait_max_s.assign(slots.size(), 0.0);
  if (slots.empty() || jobs.empty()) return plan;

  // Queueing is exactly what the drain estimates model, so a caller-set
  // queue depth would double-count the wait term.
  RuntimeModel model = options.runtime;
  model.queue_depth = 0;

  if (options.single_batch) {
    // run_parallel() semantics: everything in exactly one batch on the
    // first slot; the execution pipeline fails the whole batch when it
    // does not fit.
    PackedBatch batch;
    const FleetView solo_view(slots, partitioner);
    double max_ns = 0.0;
    for (const PackJob& job : jobs) {
      batch.jobs.push_back(job.index);
      max_ns = std::max(max_ns, solo_view.exec_estimate_ns(0, job));
    }
    plan.batches[0].push_back(std::move(batch));
    plan.batch_exec_s[0].push_back(job_runtime_s(model, max_ns));
    const double wait =
        initial_backlog_s.empty() ? 0.0 : initial_backlog_s[0];
    plan.wait_sum_s[0] = wait * static_cast<double>(jobs.size());
    plan.wait_max_s[0] = wait;
    return plan;
  }

  const std::size_t num_slots = slots.size();
  const std::size_t cap = options.max_batch_size <= 0
                              ? jobs.size()
                              : static_cast<std::size_t>(options.max_batch_size);
  const bool check_threshold = std::isfinite(options.efs_threshold);

  // Modeled lane state, maintained placement by placement so queue-aware
  // policies see occupancy grow within a round and backlog grow across
  // rounds. Time-blind policies never read it, so maintaining it cannot
  // change their decisions.
  std::vector<LaneEstimate> lanes(num_slots);
  for (std::size_t s = 0; s < initial_backlog_s.size(); ++s) {
    lanes[s].initial_backlog_s = initial_backlog_s[s];
  }
  const FleetView view(slots, partitioner, lanes, &model,
                       options.max_batch_size);
  const bool queue_aware = policy != nullptr && policy->queue_aware();

  std::vector<const PackJob*> remaining;
  remaining.reserve(jobs.size());
  for (const PackJob& job : jobs) remaining.push_back(&job);

  // Per-round open batch state, slot-indexed. The probes carry the open
  // batches' shapes and allocations across admissions (see AdmissionProbe)
  // so each test grows one job instead of re-allocating the whole batch.
  std::vector<std::vector<const PackJob*>> batch(num_slots);
  std::vector<AdmissionProbe> probes;
  probes.reserve(num_slots);
  for (std::size_t s = 0; s < num_slots; ++s) {
    probes.emplace_back(slots[s], partitioner);
  }
  std::vector<char> closed(num_slots, 0);
  std::vector<std::size_t> prefs;

  while (!remaining.empty()) {
    for (std::size_t s = 0; s < num_slots; ++s) {
      batch[s].clear();
      probes[s].reset();
      closed[s] = 0;
    }
    std::vector<const PackJob*> spilled;

    for (const PackJob* job : remaining) {
      prefs.clear();
      if (policy != nullptr) {
        policy->preference(view, *job, prefs);
      } else {
        for (std::size_t s = 0; s < num_slots; ++s) prefs.push_back(s);
      }
      if (job->exclusive) {
        // Reservation lane: an exclusive job idles a whole chip for its
        // round, so instead of closing the policy's best-ranked device,
        // route it to the emptiest one — ascending modeled drain over the
        // policy's preferences, ties keeping the policy order. With no
        // backlog and no earlier-closed batches every drain is 0 and the
        // order is unchanged (single-slot fleets trivially so).
        std::stable_sort(prefs.begin(), prefs.end(),
                         [&](std::size_t a, std::size_t b) {
                           return view.drain_estimate_s(a) <
                                  view.drain_estimate_s(b);
                         });
      }

      bool placed = false;
      std::size_t placed_slot = 0;
      // A job is terminally unplaceable only when every preferred slot
      // proved it cannot host the job even alone; a slot that merely had a
      // full/closed/occupied batch defers the decision to a later round
      // (normal queueing — exactly the historical pack_batches rule).
      bool unfit_everywhere = true;
      // True once an earlier-preferred slot rejected the job for fit or
      // the §IV-B threshold: a subsequent placement is a cross-device
      // spill. Skipping a merely full/closed slot is queueing, not a
      // spill, and does not set this.
      bool rejected_earlier = false;

      for (const std::size_t s : prefs) {
        // Waiting behind a full batch is queueing, not a spill.
        if (closed[s] || batch[s].size() >= cap) {
          unfit_everywhere = false;
          // Queue-aware deferral: the policy already priced waiting into
          // its ranking, so when the best-ranked slot that can host the
          // job at all is busy this round, overflowing onto a worse-
          // ranked lane is modeled slower than waiting a round. Defer
          // instead — but only when the job actually fits on s
          // (memoized probe), else keep scanning.
          if (queue_aware && view.solo_efs(s, *job)) break;
          continue;
        }
        if (job->exclusive) {
          if (!batch[s].empty()) {
            unfit_everywhere = false;
            continue;
          }
          if (!view.solo_efs(s, *job)) continue;  // unfit alone on s
          batch[s].push_back(job);
          closed[s] = 1;
          placed = true;
          placed_slot = s;
          break;
        }

        // Grow slot s's open batch by this job through the slot's
        // admission probe: assignments come back in the same largest-
        // first order the execution pipeline will use, so the EFS we
        // threshold against is the EFS the job will actually get.
        const std::vector<PartitionAssignment>* alloc =
            probes[s].probe(job->shape);
        if (alloc == nullptr) {
          if (batch[s].empty()) continue;  // cannot fit even alone on s
          ++plan.spill_events;
          rejected_earlier = true;
          unfit_everywhere = false;
          continue;
        }
        unfit_everywhere = false;

        bool over_threshold = false;
        if (check_threshold && alloc->size() > 1) {
          const std::span<const std::size_t> order = probes[s].order();
          for (std::size_t pos = 0; pos < order.size() && !over_threshold;
               ++pos) {
            const PackJob& member = order[pos] == probes[s].size()
                                        ? *job
                                        : *batch[s][order[pos]];
            const auto solo = view.solo_efs(s, member);
            if (!solo) continue;  // batch-placeable implies solo-placeable
            const double delta = (*alloc)[pos].efs.score - *solo;
            over_threshold = delta > options.efs_threshold;
          }
        }
        if (over_threshold) {
          ++plan.spill_events;
          rejected_earlier = true;
          continue;
        }
        probes[s].admit();
        batch[s].push_back(job);
        placed = true;
        placed_slot = s;
        break;
      }

      if (placed) {
        if (rejected_earlier) ++plan.cross_device_spills;
        // §II-A waiting term at admission: everything modeled to run on
        // the lane before the batch this job just joined.
        const double wait = view.drain_estimate_s(placed_slot);
        plan.wait_sum_s[placed_slot] += wait;
        plan.wait_max_s[placed_slot] =
            std::max(plan.wait_max_s[placed_slot], wait);
        if (job->exclusive) {
          ++plan.reservation_jobs;
          plan.reservation_wait_sum_s += wait;
          plan.reservation_wait_max_s =
              std::max(plan.reservation_wait_max_s, wait);
        }
        LaneEstimate& lane = lanes[placed_slot];
        lane.open_jobs += 1;
        lane.open_max_ns = std::max(
            lane.open_max_ns, view.exec_estimate_ns(placed_slot, *job));
        if (policy != nullptr) policy->on_placed(placed_slot, *job);
        continue;
      }
      if (unfit_everywhere) {
        // Every candidate device rejected the job alone (or the policy
        // offered none): terminal.
        plan.unplaceable.push_back(job->index);
      } else {
        spilled.push_back(job);
      }
    }

    bool any_batch = false;
    for (std::size_t s = 0; s < num_slots; ++s) {
      if (batch[s].empty()) continue;
      any_batch = true;
      PackedBatch packed;
      for (const PackJob* job : batch[s]) packed.jobs.push_back(job->index);
      if (probes[s].size() == batch[s].size()) {
        // Every member was admitted through the probe (exclusive jobs
        // bypass it), so its committed assignments are exactly the
        // partitions the execution pipeline will re-derive — export them
        // as provenance for the service's sweep-bind fast path.
        packed.partitions = probes[s].admitted_partitions();
      }
      plan.batches[s].push_back(std::move(packed));
      // Close the round's open batch: its modeled runtime joins the lane's
      // planned drain, so the next round's admissions queue behind it.
      const double exec_s = job_runtime_s(model, lanes[s].open_max_ns);
      plan.batch_exec_s[s].push_back(exec_s);
      lanes[s].planned_closed_s += exec_s;
      lanes[s].open_jobs = 0;
      lanes[s].open_max_ns = 0.0;
    }
    if (!any_batch && !spilled.empty()) {
      // Unreachable by construction (the first remaining job either opens
      // a batch somewhere or is terminally unplaceable); guard against a
      // non-monotonic partitioner looping forever by failing what is left.
      for (const PackJob* job : spilled) {
        plan.unplaceable.push_back(job->index);
      }
      break;
    }
    remaining = std::move(spilled);
  }
  return plan;
}

FleetScheduler::FleetScheduler(const BackendRegistry& fleet,
                               RoutePolicy policy)
    : fleet_(&fleet), solo_cache_(fleet.size()) {
  if (fleet.empty()) {
    throw std::invalid_argument("FleetScheduler: empty fleet");
  }
  // Single-backend fleets route trivially; bypassing the policy keeps the
  // packing decision stream bit-identical to the historical pack_batches
  // path (including spill-event accounting).
  if (fleet.size() > 1) policy_ = make_routing_policy(policy);
}

FleetPlan FleetScheduler::plan(std::span<const PackJob> jobs,
                               const Partitioner& partitioner,
                               const PackOptions& options,
                               std::span<const double> initial_backlog_s) {
  // Pin each backend's calibration epoch for the whole cycle: routing,
  // admission probing and threshold checks all read one consistent
  // snapshot even if the backend recalibrates mid-plan, and the epochs
  // travel with the plan so dispatched batches execute against it too.
  std::vector<std::shared_ptr<const CalibrationEpoch>> epochs;
  epochs.reserve(fleet_->size());
  std::vector<FleetSlot> slots;
  slots.reserve(fleet_->size());
  for (std::size_t i = 0; i < fleet_->size(); ++i) {
    epochs.push_back(fleet_->at(i).epoch());
    const CalibrationEpoch& epoch = *epochs.back();
    if (solo_cache_[i].epoch_id != epoch.id()) {
      // The memoized solo-EFS scores were computed under a retired
      // calibration; drop them so the new epoch re-scores.
      solo_cache_[i].scores.clear();
      solo_cache_[i].epoch_id = epoch.id();
    }
    slots.push_back({&epoch.device(), &epoch.candidate_index(),
                     &solo_cache_[i].scores});
  }
  FleetPlan plan = pack_fleet(slots, jobs, partitioner, options, policy_.get(),
                              initial_backlog_s);
  plan.epochs = std::move(epochs);
  return plan;
}

}  // namespace qucp
