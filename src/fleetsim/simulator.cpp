#include "fleetsim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "fleetsim/events.hpp"

namespace qucp::fleetsim {

namespace {

/// Open/queued batch as the lane models it: member count and the running
/// max makespan, which fixes the batch's modeled runtime. Only the tail
/// batch of a lane's deque can be non-full, so a dispatch always consumes
/// exactly the head batch — the modeled grouping IS the actual grouping.
struct ModeledBatch {
  int count = 0;
  double max_ns = 0.0;
  double runtime_s = 0.0;
};

struct Lane {
  std::deque<std::size_t> queue;        ///< arrival ordinals, FIFO
  std::deque<ModeledBatch> batches;     ///< grouping of `queue`, head first
  double queued_work_s = 0.0;           ///< sum of batches[i].runtime_s
  bool busy = false;
  double busy_until_s = 0.0;
  double busy_total_s = 0.0;
  std::uint64_t dispatched_batches = 0;
};

/// The simulator's lanes at time `now`, as the service's RoutingPolicy
/// sees a fleet. A routed job's PackJob::fingerprint is its class id.
class LaneView final : public RouteView {
 public:
  LaneView(const FleetSimulator& sim, const std::vector<Lane>& lanes, int cap)
      : sim_(sim), lanes_(lanes), cap_(cap) {}

  double now = 0.0;

  std::size_t size() const noexcept override { return lanes_.size(); }

  /// The class's EFS on `slot`; nullopt when its makespan marks the slot
  /// unfit.
  [[nodiscard]] std::optional<double> solo_efs(
      std::size_t slot, const PackJob& job) const override {
    if (exec_ns(slot, job) < 0.0) return std::nullopt;
    return sim_.classes()[job.fingerprint].efs[slot];
  }

  /// The shared formula. The running batch's remaining time is the
  /// backlog, and the tail batch is the open batch while it has room; a
  /// full tail stays closed work, as a full open batch would re-add its
  /// runtime in a different order.
  [[nodiscard]] double expected_latency_s(std::size_t slot,
                                          const PackJob& job) const override {
    const Lane& lane = lanes_[slot];
    const bool open = !lane.batches.empty() && lane.batches.back().count < cap_;
    const ModeledBatch tail = open ? lane.batches.back() : ModeledBatch{};
    const LaneEstimate estimate{
        lane.busy ? std::max(0.0, lane.busy_until_s - now) : 0.0,
        lane.queued_work_s - tail.runtime_s, tail.count, tail.max_ns};
    return qucp::expected_latency_s(estimate, exec_ns(slot, job),
                                    sim_.options().model,
                                    sim_.options().max_batch_size);
  }

  /// Modeled makespan of `job` on `slot`; < 0 when unfit.
  [[nodiscard]] double exec_ns(std::size_t slot, const PackJob& job) const {
    return sim_.classes()[job.fingerprint].makespan_ns[slot];
  }

 private:
  const FleetSimulator& sim_;
  const std::vector<Lane>& lanes_;
  int cap_;
};

}  // namespace

std::uint64_t SimTrace::hash() const {
  std::uint64_t h = kFnv1aBasis;
  for (const JobRecord& r : jobs) {
    h = fnv1a_mix(h, static_cast<std::uint64_t>(r.job_class));
    h = fnv1a_mix(h, static_cast<std::uint64_t>(r.device));
    h = fnv1a_mix(h, std::bit_cast<std::uint64_t>(r.arrival_s));
    h = fnv1a_mix(h, std::bit_cast<std::uint64_t>(r.start_s));
    h = fnv1a_mix(h, std::bit_cast<std::uint64_t>(r.end_s));
  }
  for (double b : busy_s) h = fnv1a_mix(h, std::bit_cast<std::uint64_t>(b));
  for (std::uint64_t b : batches) h = fnv1a_mix(h, b);
  return fnv1a_mix(h, std::bit_cast<std::uint64_t>(horizon_s));
}

FleetSimulator::FleetSimulator(std::vector<SimJobClass> classes,
                               std::size_t num_devices, SimOptions options)
    : classes_(std::move(classes)),
      num_devices_(num_devices),
      options_(options) {
  if (num_devices_ == 0) {
    throw std::invalid_argument("FleetSimulator: no devices");
  }
  if (classes_.empty()) {
    throw std::invalid_argument("FleetSimulator: no job classes");
  }
  for (const SimJobClass& c : classes_) {
    if (c.makespan_ns.size() != num_devices_ ||
        c.efs.size() != num_devices_) {
      throw std::invalid_argument("FleetSimulator: class '" + c.name +
                                  "' per-device vectors do not match the "
                                  "device count");
    }
    const bool fits_somewhere =
        std::any_of(c.makespan_ns.begin(), c.makespan_ns.end(),
                    [](double m) { return m >= 0.0; });
    if (!fits_somewhere) {
      throw std::invalid_argument("FleetSimulator: class '" + c.name +
                                  "' fits on no device");
    }
  }
  options_.model.queue_depth = 0;  // queueing is simulated, not modeled
}

SimTrace FleetSimulator::run(std::span<const Arrival> arrivals) const {
  const int cap = options_.max_batch_size <= 0
                      ? std::numeric_limits<int>::max()
                      : options_.max_batch_size;

  SimTrace trace;
  trace.jobs.resize(arrivals.size());
  trace.busy_s.assign(num_devices_, 0.0);
  trace.batches.assign(num_devices_, 0);

  std::vector<Lane> lanes(num_devices_);

  // Enqueue `job`, of modeled makespan `ns`, on `lane`, maintaining the
  // modeled batch grouping the dispatcher will consume (see ModeledBatch).
  const auto enqueue = [&](Lane& lane, std::size_t job, double ns) {
    lane.queue.push_back(job);
    if (lane.batches.empty() || lane.batches.back().count >= cap) {
      ModeledBatch b;
      b.count = 1;
      b.max_ns = ns;
      b.runtime_s = job_runtime_s(options_.model, ns);
      lane.queued_work_s += b.runtime_s;
      lane.batches.push_back(b);
    } else {
      ModeledBatch& b = lane.batches.back();
      b.count += 1;
      if (ns > b.max_ns) {
        const double runtime = job_runtime_s(options_.model, ns);
        lane.queued_work_s += runtime - b.runtime_s;
        b.max_ns = ns;
        b.runtime_s = runtime;
      }
    }
  };

  EventQueue events;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    // Replayed traces come from outside the program.
    const Arrival& a = arrivals[i];
    if (a.job_class < 0 ||
        static_cast<std::size_t>(a.job_class) >= classes_.size() ||
        !std::isfinite(a.time_s) || a.time_s < 0.0) {
      throw std::invalid_argument(
          "FleetSimulator: arrival " + std::to_string(i) +
          " has an unknown job class or a negative or non-finite time");
    }
    events.push(EventKind::JobArrival, a.time_s, i);
  }

  // Dispatch the head batch of `lane` (device `d`) at time `now`.
  const auto start_batch = [&](std::size_t d, double now) {
    Lane& lane = lanes[d];
    const ModeledBatch head = lane.batches.front();
    lane.batches.pop_front();
    lane.queued_work_s -= head.runtime_s;
    // Guard against float drift accumulating a phantom backlog.
    if (lane.batches.empty()) lane.queued_work_s = 0.0;
    const double end = now + head.runtime_s;
    for (int i = 0; i < head.count; ++i) {
      const std::size_t job = lane.queue.front();
      lane.queue.pop_front();
      trace.jobs[job].start_s = now;
      trace.jobs[job].end_s = end;
    }
    lane.busy = true;
    lane.busy_until_s = end;
    lane.busy_total_s += head.runtime_s;
    ++lane.dispatched_batches;
    events.push(EventKind::DeviceFree, end, d);
  };

  // Routing runs the service's own policy class over a view of the lanes.
  RoutingPolicy policy(options_.policy);
  LaneView view(*this, lanes, cap);
  std::vector<std::size_t> prefs;

  while (!events.empty()) {
    const SimEvent event = events.pop();
    switch (event.kind) {
      case EventKind::JobArrival: {
        const std::size_t job = event.payload;
        const Arrival& arrival = arrivals[job];
        JobRecord& record = trace.jobs[job];
        record.job_class = arrival.job_class;
        record.arrival_s = arrival.time_s;
        const std::size_t cls = static_cast<std::size_t>(arrival.job_class);
        const PackJob routed{job, {classes_[cls].qubits, 0, 0}, cls};
        view.now = event.time_s;
        // The first device in preference order that the job fits on. The
        // constructor checked that every class fits on some device, and a
        // class's fit never changes, so one always exists.
        policy.preference(view, routed, prefs);
        const auto fit = std::ranges::find_if(prefs, [&](std::size_t s) {
          return view.exec_ns(s, routed) >= 0.0;
        });
        assert(fit != prefs.end());
        const std::size_t d = *fit;
        policy.on_placed(d, routed);
        record.device = static_cast<int>(d);
        Lane& lane = lanes[d];
        enqueue(lane, job, view.exec_ns(d, routed));
        if (!lane.busy) start_batch(d, event.time_s);
        break;
      }
      case EventKind::DeviceFree: {
        const std::size_t d = event.payload;
        Lane& lane = lanes[d];
        lane.busy = false;
        if (!lane.queue.empty()) start_batch(d, event.time_s);
        break;
      }
    }
  }

  for (std::size_t d = 0; d < num_devices_; ++d) {
    trace.busy_s[d] = lanes[d].busy_total_s;
    trace.batches[d] = lanes[d].dispatched_batches;
    trace.horizon_s = std::max(trace.horizon_s, lanes[d].busy_until_s);
  }
  return trace;
}

}  // namespace qucp::fleetsim
