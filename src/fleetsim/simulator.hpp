#pragma once
// FleetSimulator: a deterministic discrete-event model of the fleet.
//
// The service layer (service/fleet.hpp) routes a live job stream; this
// simulator answers the question the live path cannot afford to ask —
// "what would this routing policy have done to latency under a million
// jobs of realistic traffic?" — by replaying an arrival stream against a
// modeled fleet. Each device is a service lane: a FIFO queue of admitted
// jobs, an open tail batch that fills to `max_batch_size`, and a drain
// model where a dispatched batch occupies the device for
// job_runtime_s(model, max member makespan) seconds — the same
// RuntimeModel (core/runtime.hpp) the service's modeled-drain metric and
// BENCH_fleet.json use, so online and offline numbers share units.
//
// Job classes carry calibration-dependent per-device execution estimates
// (makespan_ns from the real transpile + ALAP-schedule machinery, or the
// shape-based estimator in service/fleet.hpp) and per-device solo-EFS
// fidelity scores; a negative makespan marks a device the class cannot be
// placed on, and every routing policy excludes those.
//
// Routing runs the service's own RoutingPolicy class (service/fleet.hpp)
// over a RouteView of the simulator's lanes, so offline evaluation checks
// the very rule the service routes with. Each arrival goes to the first
// device in the policy's preference order that it fits on. Calibrations
// are frozen for the whole run: the view's solo EFS is the class's
// per-device EFS, and its expected latency is the service's one
// ExpectedLatency formula over the lane: the running batch's remaining
// time as backlog, queued batches as closed work, and the tail batch as
// the open batch while it has room.
//
// Determinism: the simulation is single-threaded pure logic over the
// event queue (fleetsim/events.hpp); the same arrival stream produces a
// bit-identical trace regardless of kernel thread caps, submission
// interleaving, or whether the arrivals were generated or replayed from a
// recorded trace. tests/test_fleetsim.cpp pins all three.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "fleetsim/arrivals.hpp"
#include "service/fleet.hpp"

namespace qucp::fleetsim {

/// A job template: one circuit the traffic mix draws from, with its
/// modeled footprint on every fleet device.
struct SimJobClass {
  std::string name;
  int qubits = 0;
  /// Modeled batch-context makespan per device id; < 0 when the class
  /// cannot be placed on that device even alone.
  std::vector<double> makespan_ns;
  /// Best solo EFS per device id (error; lower is better). Only read for
  /// devices the class fits on.
  std::vector<double> efs;
};

struct SimOptions {
  RoutePolicy policy = RoutePolicy::ExpectedLatency;
  int max_batch_size = 4;  ///< jobs per dispatched batch; <= 0 unbounded
  /// Device-time model for batch runtimes (shots, per-job overhead). The
  /// queue_depth field is ignored — queueing is what the simulator models.
  RuntimeModel model;
};

/// Per-job outcome, in arrival order. start_s/end_s bound the job's batch
/// on its device; latency is end_s - arrival_s (waiting + execution).
struct JobRecord {
  int job_class = 0;
  int device = -1;
  double arrival_s = 0.0;
  double start_s = 0.0;
  double end_s = 0.0;
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
  /// `classes` must all carry per-device vectors of length `num_devices`,
  /// and every class must fit on at least one device.
  FleetSimulator(std::vector<SimJobClass> classes, std::size_t num_devices,
                 SimOptions options);

  /// Replay an arrival stream to completion. Pure: identical inputs give
  /// a bit-identical trace; the simulator's own state resets per run.
  /// Throws std::invalid_argument naming the arrival whose job_class is
  /// outside [0, classes) or whose time is NaN, infinite or negative.
  [[nodiscard]] SimTrace run(std::span<const Arrival> arrivals) const;

  [[nodiscard]] std::size_t num_devices() const noexcept {
    return num_devices_;
  }
  [[nodiscard]] const std::vector<SimJobClass>& classes() const noexcept {
    return classes_;
  }
  [[nodiscard]] const SimOptions& options() const noexcept {
    return options_;
  }

 private:
  std::vector<SimJobClass> classes_;
  std::size_t num_devices_ = 0;
  SimOptions options_;
};

}  // namespace qucp::fleetsim
