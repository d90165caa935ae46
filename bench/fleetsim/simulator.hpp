#pragma once
// FleetSimulator: a deterministic discrete-event model of the fleet, built
// as bench_fleetsim's qucp_fleetsim library, outside libqucp.
//
// The service layer (service/service.hpp) plans and runs a live job
// stream; this simulator answers the question the live path cannot afford
// to ask — "what would this routing policy have done to latency under a
// million jobs of realistic traffic?" — by replaying an arrival stream
// against modeled device time. It plans with the service's own planner: a
// FleetScheduler (service/fleet.hpp) over a BackendRegistry of the real
// devices, with the QuCP partitioner at sigma = 4 and PackOptions' default
// EFS threshold (infinity, as ServiceOptions). The §IV-B threshold, fit
// spills, the reservation order and queue-aware deferral are therefore
// the service's, and a plan the simulator makes is a plan the service
// would make for the same dispatch cycle.
//
// Dispatch cycles. Arrived jobs wait in a pending set; a cycle plans all
// of them. The trigger is fixed, not an option. A cycle runs
//   - when the pending count reaches one full batch per lane
//     (max_batch_size x devices) — the service's dispatch by count
//     (ServiceOptions::auto_flush_batch_size; e2ebench's cloud_poisson
//     flushes every 12 jobs on three lanes of 4). With an unbounded batch
//     cap there is no count trigger;
//   - when a lane runs out of queued work while jobs are pending, so a
//     freed lane never idles beside a queue;
//   - when an arrival finds every lane idle, so a quiet fleet starts a job
//     at once instead of waiting for the count.
// Every pending job is planned at the end of any event, or some lane is
// busy and its freeing will plan it: nothing is left behind. A cycle
// plans in the service's canonical order (circuit fingerprint, then
// arrival order), against each lane's backlog max(0, free_at - now) —
// what the service's dispatch passes as the modeled work still ahead on
// the lane. Each planned batch is queued on its lane behind the batches
// already there, and occupies the device for job_runtime_s(model, max
// member makespan) seconds — the same RuntimeModel (core/runtime.hpp) the
// service's modeled-drain metric and BENCH_fleet.json use, so online and
// offline numbers share units. The lane-driven triggers are the model's:
// the service dispatches on its count, on intake backpressure and on
// flush(), never on a lane's clock.
//
// Events. There is no event heap. Arrivals come in time order, and a
// lane's latest clock (free_at) is its only freeing that can still start
// a cycle, so run() walks the arrivals in index order and before each one
// handles every earlier lane freeing, earliest first. An arrival at a
// lane's freeing instant comes first and joins the cycle it runs.
//
// Job classes carry per-device makespans (from the real transpile +
// ALAP-schedule machinery in bench/bench_fleetsim.cpp); a negative
// makespan marks a device the class cannot be placed on even alone, and
// must agree with the planner's own fit test. Calibrations are frozen for
// the whole run.
//
// Determinism: the simulation is single-threaded logic over the arrival
// stream, the lane clocks and the planner, so the same arrival stream
// produces a bit-identical trace regardless of kernel thread caps or
// whether the arrivals were generated or replayed from a recorded trace.
// tests/test_fleetsim.cpp pins both, and checks the simulator's cycles
// against ExecutionService plans.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "fleetsim/arrivals.hpp"
#include "partition/partitioners.hpp"
#include "service/fleet.hpp"

namespace qucp::fleetsim {

/// A job template: one circuit the traffic mix draws from, with its
/// modeled footprint on every fleet device.
struct SimJobClass {
  std::string name;
  ProgramShape shape;            ///< what the planner scores and places
  std::uint64_t fingerprint = 0; ///< circuit_fingerprint: the order key
  /// Modeled batch-context makespan per device id; < 0 when the class
  /// cannot be placed on that device even alone.
  std::vector<double> makespan_ns;
};

struct SimOptions {
  RoutePolicy policy = RoutePolicy::ExpectedLatency;
  /// Jobs per dispatched batch; <= 0 unbounded. Times the device count,
  /// also the pending count that triggers a dispatch cycle.
  int max_batch_size = 4;
  /// Device-time model for batch runtimes (shots, per-job overhead). The
  /// queue_depth field is ignored — queueing is what the simulator models.
  RuntimeModel model;
};

/// Per-job outcome, in arrival order. start_s/end_s bound the job's batch
/// on its device; latency is end_s - arrival_s (waiting + execution), of
/// which dispatch_s - arrival_s waited in the pending set.
struct JobRecord {
  int job_class = 0;
  int device = -1;
  double arrival_s = 0.0;
  double dispatch_s = 0.0;  ///< when the job's dispatch cycle planned it
  double start_s = 0.0;
  double end_s = 0.0;
  double efs = 0.0;  ///< EFS of the planned assignment
};

/// Full simulation outcome: one record per arrival plus per-device
/// occupancy. hash() folds every field of every record, so two traces
/// with the same hash are (for all testing purposes) bit-identical.
struct SimTrace {
  std::vector<JobRecord> jobs;
  std::vector<double> busy_s;     ///< summed batch occupancy per device
  std::vector<std::uint64_t> batches;  ///< batches dispatched per device
  double horizon_s = 0.0;         ///< last batch completion time
  [[nodiscard]] std::uint64_t hash() const;
};

class FleetSimulator {
 public:
  /// `classes` must all carry one makespan per registry device, and every
  /// class must fit on at least one device.
  FleetSimulator(std::vector<SimJobClass> classes, BackendRegistry fleet,
                 SimOptions options);

  /// Replay an arrival stream, in non-decreasing time order, to
  /// completion. Pure: identical inputs give a bit-identical trace; the
  /// planner's routing state resets per run. Throws std::invalid_argument
  /// naming the arrival whose job_class is outside [0, classes), whose
  /// time is NaN, infinite or negative, or whose time is earlier than the
  /// arrival before it, and naming the class whose makespan table
  /// disagrees with the planner's fit test.
  [[nodiscard]] SimTrace run(std::span<const Arrival> arrivals) const;

 private:
  std::vector<SimJobClass> classes_;
  BackendRegistry fleet_;
  SimOptions options_;
  MethodPartitioner partitioner_{Method::QuCP, 4.0, std::nullopt};
};

}  // namespace qucp::fleetsim
