#include "service/fleet.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

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

/// Fill `order` with the slots of `scored` by ascending (score, slot), so
/// ties go to the lowest id.
void order_by_score(std::vector<std::pair<double, std::size_t>>& scored,
                    std::vector<std::size_t>& order) {
  std::sort(scored.begin(), scored.end());
  order.resize(scored.size());
  for (std::size_t i = 0; i < scored.size(); ++i) order[i] = scored[i].second;
}

}  // namespace

double modeled_exec_ns(const Device& device, const ProgramShape& shape) {
  const Calibration& cal = device.calibration();
  return exec_ns_from_calibration(cal, shape, mean_cx_duration_ns(cal));
}

FleetView::FleetView(std::span<const FleetSlot> slots,
                     const Partitioner& partitioner,
                     std::span<const LaneEstimate> lanes,
                     const RuntimeModel& model, int max_batch_size)
    : slots_(slots),
      partitioner_(&partitioner),
      lanes_(lanes),
      model_(&model),
      max_batch_size_(max_batch_size) {
  avg_cx_ns_.reserve(slots_.size());
  for (const FleetSlot& slot : slots_) {
    avg_cx_ns_.push_back(mean_cx_duration_ns(slot.device->calibration()));
  }
}

double FleetView::drain_estimate_s(std::size_t slot) const {
  return lanes_[slot].initial_backlog_s + lanes_[slot].planned_closed_s;
}

double FleetView::exec_estimate_ns(std::size_t slot,
                                   const PackJob& job) const {
  return exec_ns_from_calibration(slots_[slot].device->calibration(),
                                  job.shape, avg_cx_ns_[slot]);
}

double FleetView::expected_latency_s(std::size_t slot,
                                     const PackJob& job) const {
  const LaneEstimate& lane = lanes_[slot];
  const double own_ns = exec_estimate_ns(slot, job);
  double wait = lane.initial_backlog_s + lane.planned_closed_s;
  double batch_ns = own_ns;
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
    wait += job_runtime_s(*model_, lane.open_max_ns);
  }
  return wait + job_runtime_s(*model_, batch_ns);
}

std::optional<double> FleetView::solo_efs(std::size_t slot,
                                          const PackJob& job) const {
  // Does-not-fit is memoized as +infinity: EFS sums finite error terms, so
  // the sentinel can never collide with a real score, and BestEfs (which
  // probes every job on every device each round) never re-runs an
  // allocation that is known to fail.
  constexpr double kUnfit = std::numeric_limits<double>::infinity();
  // Solo EFS reads the job's shape and the device only, so the shape is
  // the key: distinct circuits of one shape share a score.
  SoloEfsMemo& cache = *slots_[slot].solo_efs;
  if (auto it = cache.find(job.shape); it != cache.end()) {
    if (it->second == kUnfit) return std::nullopt;
    return it->second;
  }
  const auto score = solo_efs_score(*slots_[slot].device, *partitioner_,
                                    job.shape, slots_[slot].index);
  cache.emplace(job.shape, score.value_or(kUnfit));
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

void RoutingPolicy::preference(const FleetView& fleet, const PackJob& job,
                               std::vector<std::size_t>& order) {
  switch (kind_) {
    case RoutePolicy::RoundRobin: {
      // Rotate the starting slot by canonical queue position: stable across
      // packing rounds (a spilled job keeps its preference) and independent
      // of submission interleaving.
      const std::size_t n = fleet.size();
      order.resize(n);
      for (std::size_t i = 0; i < n; ++i) order[i] = (job.index + i) % n;
      return;
    }
    case RoutePolicy::LeastLoaded: {
      const std::size_t n = fleet.size();
      if (load_.size() < n) load_.resize(n, 0);
      scored_.clear();
      for (std::size_t s = 0; s < n; ++s) {
        scored_.emplace_back(static_cast<double>(load_[s]), s);
      }
      order_by_score(scored_, order);
      return;
    }
    case RoutePolicy::BestEfs:
      // Ascending best-solo-EFS (EFS accumulates *error*, so lowest is
      // best); devices the job cannot fit on are excluded, ties go to the
      // lowest id.
      scored_.clear();
      for (std::size_t s = 0, n = fleet.size(); s < n; ++s) {
        if (const auto score = fleet.solo_efs(s, job)) {
          scored_.emplace_back(*score, s);
        }
      }
      order_by_score(scored_, order);
      return;
    case RoutePolicy::ExpectedLatency:
      // Ascending §II-A modeled completion time (waiting + execution);
      // unfit devices are excluded, ties go to the lowest id. All queue
      // state lives in the view's lane estimates, so the rule keeps none of
      // its own and is replayable.
      scored_.clear();
      for (std::size_t s = 0, n = fleet.size(); s < n; ++s) {
        if (!fleet.solo_efs(s, job)) continue;
        scored_.emplace_back(fleet.expected_latency_s(s, job), s);
      }
      order_by_score(scored_, order);
      return;
  }
}

void RoutingPolicy::on_placed(std::size_t slot, const PackJob& job) {
  if (kind_ != RoutePolicy::LeastLoaded) return;
  if (load_.size() <= slot) load_.resize(slot + 1, 0);
  load_[slot] += static_cast<std::uint64_t>(std::max(1, job.shape.num_qubits));
}

FleetPlan pack_fleet(std::span<const FleetSlot> slots,
                     std::span<const PackJob> jobs,
                     const Partitioner& partitioner,
                     const PackOptions& options, RoutingPolicy& policy,
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
  const FleetView view(slots, partitioner, lanes, model,
                       options.max_batch_size);
  // One slot leaves nothing to route: its order is {0} under every rule
  // (consulting BestEfs or ExpectedLatency would drop an unfit slot and
  // stop a never-fitting job's spills from being counted).
  const bool route = num_slots > 1;
  const bool queue_aware = policy.kind() == RoutePolicy::ExpectedLatency;

  std::vector<const PackJob*> remaining;
  remaining.reserve(jobs.size());
  for (const PackJob& job : jobs) remaining.push_back(&job);

  // Per-round open batch state, slot-indexed, all in admission order.
  // The admission test "does job J fit in slot s's open batch, and at what
  // EFS?" allocates the grown batch from scratch with allocate_batch()
  // (largest-first) over shapes[s] plus J, and the committed batch's
  // allocation stays in assignments[s] — the service executes on exactly
  // those, so the EFS the packer thresholds against is the EFS the job
  // gets. With a persistent CandidateIndex the open batch's prefix states
  // are memoized, so the from-scratch answer costs about as much as an
  // incremental one (tests/test_fleet.cpp pins indexed slots against the
  // index-less reference allocator). batch_solo[s] holds each member's
  // solo EFS (looked up once, when the member itself was probed with the
  // threshold on), so the §IV-B check reads it instead of the slot's
  // solo-EFS map.
  std::vector<std::vector<const PackJob*>> batch(num_slots);
  std::vector<std::vector<std::optional<double>>> batch_solo(num_slots);
  std::vector<std::vector<ProgramShape>> shapes(num_slots);
  std::vector<std::vector<PartitionAssignment>> assignments(num_slots);
  std::vector<char> closed(num_slots, 0);
  std::vector<std::size_t> prefs;

  while (!remaining.empty()) {
    for (std::size_t s = 0; s < num_slots; ++s) {
      batch[s].clear();
      batch_solo[s].clear();
      shapes[s].clear();
      assignments[s].clear();
      closed[s] = 0;
    }
    std::vector<const PackJob*> spilled;

    for (const PackJob* job : remaining) {
      if (route) {
        policy.preference(view, *job, prefs);
      } else {
        prefs.assign(1, 0);
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
      // (normal queueing — the single-device packer's rule).
      bool unfit_everywhere = true;
      // True once an earlier-preferred slot rejected the job for fit or
      // the §IV-B threshold: a subsequent placement is a cross-device
      // spill. Skipping a merely full/closed slot is queueing, not a
      // spill, and does not set this.
      bool rejected_earlier = false;

      for (const std::size_t s : prefs) {
        const FleetSlot& slot = slots[s];
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
        // An exclusive job only opens an empty batch, which it then closes.
        if (job->exclusive && !batch[s].empty()) {
          unfit_everywhere = false;
          continue;
        }

        // Grow slot s's open batch by this job; it stays in shapes[s] only
        // when admitted.
        shapes[s].push_back(job->shape);
        auto alloc =
            allocate_batch(*slot.device, partitioner, shapes[s], slot.index);
        if (!alloc) {
          shapes[s].pop_back();
          if (batch[s].empty()) continue;  // cannot fit even alone on s
          ++plan.spill_events;
          rejected_earlier = true;
          unfit_everywhere = false;
          continue;
        }
        unfit_everywhere = false;

        // A closed batch is never probed again, so an exclusive member's
        // solo EFS is never read.
        const std::optional<double> job_solo =
            check_threshold && !job->exclusive ? view.solo_efs(s, *job)
                                               : std::nullopt;
        bool over_threshold = false;
        if (check_threshold && alloc->size() > 1) {
          for (std::size_t i = 0; i < alloc->size() && !over_threshold; ++i) {
            const std::optional<double>& solo =
                i < batch_solo[s].size() ? batch_solo[s][i] : job_solo;
            if (!solo) continue;  // batch-placeable implies solo-placeable
            const double delta = (*alloc)[i].efs.score - *solo;
            over_threshold = delta > options.efs_threshold;
          }
        }
        if (over_threshold) {
          shapes[s].pop_back();
          ++plan.spill_events;
          rejected_earlier = true;
          continue;
        }
        assignments[s] = std::move(*alloc);
        batch[s].push_back(job);
        batch_solo[s].push_back(job_solo);
        closed[s] = job->exclusive;  // an exclusive job closes its batch
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
        policy.on_placed(placed_slot, *job);
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
      assert(assignments[s].size() == batch[s].size());
      packed.assignments = std::move(assignments[s]);
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
    : fleet_(&fleet), policy_(policy), solo_cache_(fleet.size()) {
  if (fleet.empty()) {
    throw std::invalid_argument("FleetScheduler: empty fleet");
  }
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
  FleetPlan plan =
      pack_fleet(slots, jobs, partitioner, options, policy_, initial_backlog_s);
  plan.epochs = std::move(epochs);
  return plan;
}

}  // namespace qucp
