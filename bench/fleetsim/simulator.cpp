#include "fleetsim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"

namespace qucp::fleetsim {

std::uint64_t SimTrace::hash() const {
  std::uint64_t h = kFnv1aBasis;
  for (const JobRecord& r : jobs) {
    h = fnv1a_mix(h, static_cast<std::uint64_t>(r.job_class));
    h = fnv1a_mix(h, static_cast<std::uint64_t>(r.device));
    h = fnv1a_mix(h, std::bit_cast<std::uint64_t>(r.arrival_s));
    h = fnv1a_mix(h, std::bit_cast<std::uint64_t>(r.dispatch_s));
    h = fnv1a_mix(h, std::bit_cast<std::uint64_t>(r.start_s));
    h = fnv1a_mix(h, std::bit_cast<std::uint64_t>(r.end_s));
    h = fnv1a_mix(h, std::bit_cast<std::uint64_t>(r.efs));
  }
  for (double b : busy_s) h = fnv1a_mix(h, std::bit_cast<std::uint64_t>(b));
  for (std::uint64_t b : batches) h = fnv1a_mix(h, b);
  return fnv1a_mix(h, std::bit_cast<std::uint64_t>(horizon_s));
}

FleetSimulator::FleetSimulator(std::vector<SimJobClass> classes,
                               BackendRegistry fleet, SimOptions options)
    : classes_(std::move(classes)),
      fleet_(std::move(fleet)),
      options_(options) {
  if (fleet_.empty()) {
    throw std::invalid_argument("FleetSimulator: no devices");
  }
  if (classes_.empty()) {
    throw std::invalid_argument("FleetSimulator: no job classes");
  }
  for (const SimJobClass& c : classes_) {
    if (c.makespan_ns.size() != fleet_.size()) {
      throw std::invalid_argument("FleetSimulator: class '" + c.name +
                                  "' makespans do not match the device "
                                  "count");
    }
    if (std::ranges::none_of(c.makespan_ns,
                             [](double m) { return m >= 0.0; })) {
      throw std::invalid_argument("FleetSimulator: class '" + c.name +
                                  "' fits on no device");
    }
  }
  options_.model.queue_depth = 0;  // queueing is simulated, not modeled
}

SimTrace FleetSimulator::run(std::span<const Arrival> arrivals) const {
  const std::size_t num_devices = fleet_.size();
  SimTrace trace;
  trace.jobs.resize(arrivals.size());
  trace.busy_s.assign(num_devices, 0.0);
  trace.batches.assign(num_devices, 0);

  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    // Replayed traces come from outside the program.
    const Arrival& a = arrivals[i];
    if (a.job_class < 0 ||
        static_cast<std::size_t>(a.job_class) >= classes_.size() ||
        !std::isfinite(a.time_s) || a.time_s < 0.0 ||
        (i > 0 && a.time_s < arrivals[i - 1].time_s)) {
      throw std::invalid_argument(
          "FleetSimulator: arrival " + std::to_string(i) +
          " has an unknown job class, a negative or non-finite time, or a "
          "time earlier than the arrival before it");
    }
  }

  FleetScheduler scheduler(fleet_, options_.policy);
  PackOptions popts;
  popts.max_batch_size = options_.max_batch_size;
  popts.runtime = options_.model;
  std::vector<double> free_at(num_devices, 0.0);  ///< each lane's clock
  std::vector<char> freeing(num_devices, 0);      ///< free_at not handled
  std::vector<std::size_t> pending;               ///< arrival ordinals
  std::vector<PackJob> jobs;
  std::vector<double> backlog(num_devices);
  // One full batch per lane: the count trigger (0: none, unbounded cap).
  const std::size_t full_cycle =
      static_cast<std::size_t>(std::max(0, options_.max_batch_size)) *
      num_devices;

  const auto class_of = [&](std::size_t job) -> const SimJobClass& {
    return classes_[static_cast<std::size_t>(trace.jobs[job].job_class)];
  };
  const auto disagree = [&](std::size_t job) {
    return std::invalid_argument("FleetSimulator: class '" +
                                 class_of(job).name +
                                 "' makespans disagree with the planner's "
                                 "fit test");
  };

  // One dispatch cycle at `now`: plan every pending job as the service's
  // dispatch would, then queue each planned batch on its lane.
  const auto dispatch = [&](double now) {
    std::ranges::sort(pending, [&](std::size_t a, std::size_t b) {
      const std::uint64_t fa = class_of(a).fingerprint;
      const std::uint64_t fb = class_of(b).fingerprint;
      return fa != fb ? fa < fb : a < b;
    });
    jobs.clear();
    for (std::size_t i = 0; i < pending.size(); ++i) {
      const SimJobClass& c = class_of(pending[i]);
      jobs.push_back({i, c.shape, c.fingerprint});
    }
    for (std::size_t d = 0; d < num_devices; ++d) {
      backlog[d] = std::max(0.0, free_at[d] - now);
    }
    const FleetPlan plan = scheduler.plan(jobs, partitioner_, popts, backlog);
    if (!plan.unplaceable.empty()) {
      throw disagree(pending[plan.unplaceable.front()]);
    }
    for (std::size_t d = 0; d < num_devices; ++d) {
      for (const PackedBatch& batch : plan.batches[d]) {
        double max_ns = 0.0;
        for (const std::size_t i : batch.jobs) {
          const double ns = class_of(pending[i]).makespan_ns[d];
          if (ns < 0.0) throw disagree(pending[i]);
          max_ns = std::max(max_ns, ns);
        }
        const double runtime = job_runtime_s(options_.model, max_ns);
        const double start = std::max(now, free_at[d]);
        free_at[d] = start + runtime;
        for (std::size_t k = 0; k < batch.jobs.size(); ++k) {
          JobRecord& r = trace.jobs[pending[batch.jobs[k]]];
          r.device = static_cast<int>(d);
          r.dispatch_s = now;
          r.start_s = start;
          r.end_s = free_at[d];
          r.efs = batch.assignments[k].efs.score;
        }
        trace.busy_s[d] += runtime;
        ++trace.batches[d];
      }
      if (!plan.batches[d].empty()) freeing[d] = 1;
    }
    pending.clear();
  };

  // Handle, earliest first, every lane freeing strictly before `until`: a
  // lane runs out of the work a dispatch gave it, and a cycle plans what
  // is pending. The first freeing of an instant empties the pending set,
  // so simultaneous ones need no order.
  const auto free_lanes_before = [&](double until) {
    for (;;) {
      std::size_t next = num_devices;
      for (std::size_t d = 0; d < num_devices; ++d) {
        const double bound = next < num_devices ? free_at[next] : until;
        if (freeing[d] && free_at[d] < bound) next = d;
      }
      if (next == num_devices) return;
      freeing[next] = 0;
      if (!pending.empty()) dispatch(free_at[next]);
    }
  };

  // Arrivals in index order; a freeing at an arrival's instant comes after.
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const double now = arrivals[i].time_s;
    free_lanes_before(now);
    trace.jobs[i].job_class = arrivals[i].job_class;
    trace.jobs[i].arrival_s = now;
    pending.push_back(i);
    if (pending.size() == full_cycle ||
        std::ranges::all_of(free_at, [&](double f) { return f <= now; })) {
      dispatch(now);
    }
  }
  free_lanes_before(std::numeric_limits<double>::infinity());
  trace.horizon_s = std::ranges::max(free_at);
  return trace;
}

}  // namespace qucp::fleetsim
