// Tests for the discrete-event fleet simulator (src/fleetsim/): event
// queue ordering, arrival-process contracts, a hand-checked dispatch-cycle
// timeline, the determinism pins (bit-identical traces across reruns,
// kernel thread caps and trace replay), the check that every cycle plans
// what the ExecutionService plans, and the policy-separation acceptance
// bar (ExpectedLatency beats the queue-blind policies on a heterogeneous
// bursty stream). Every simulator test plans on real devices.

#include "fleetsim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "benchmarks/suite.hpp"
#include "fleetsim/events.hpp"
#include "fleetsim/stats.hpp"
#include "service/service.hpp"
#include "sim/kernels.hpp"

namespace qucp::fleetsim {
namespace {

bool same_arrivals(const std::vector<Arrival>& a,
                   const std::vector<Arrival>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Bit-identical, not approximately equal: the determinism contract.
    if (a[i].time_s != b[i].time_s || a[i].job_class != b[i].job_class) {
      return false;
    }
  }
  return true;
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  q.push(EventKind::JobArrival, 3.0, 30);
  q.push(EventKind::JobArrival, 1.0, 10);
  q.push(EventKind::DeviceFree, 2.0, 20);
  ASSERT_EQ(q.size(), 3u);

  SimEvent e = q.pop();
  EXPECT_DOUBLE_EQ(e.time_s, 1.0);
  EXPECT_EQ(e.payload, 10u);
  e = q.pop();
  EXPECT_DOUBLE_EQ(e.time_s, 2.0);
  EXPECT_EQ(e.kind, EventKind::DeviceFree);
  e = q.pop();
  EXPECT_DOUBLE_EQ(e.time_s, 3.0);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pushed(), 3u);
}

TEST(EventQueue, TiesResolveInPushOrder) {
  // Three events at the same instant plus one earlier event pushed last:
  // pops must order by time first, then by the sequence number assigned
  // at push — never by payload or kind.
  EventQueue q;
  q.push(EventKind::DeviceFree, 5.0, 2);   // seq 0
  q.push(EventKind::JobArrival, 5.0, 9);   // seq 1
  q.push(EventKind::JobArrival, 5.0, 1);   // seq 2
  q.push(EventKind::JobArrival, 4.0, 7);   // seq 3, earliest time
  std::vector<std::uint64_t> seqs;
  std::vector<std::uint64_t> payloads;
  while (!q.empty()) {
    const SimEvent e = q.pop();
    seqs.push_back(e.seq);
    payloads.push_back(e.payload);
  }
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{3, 0, 1, 2}));
  EXPECT_EQ(payloads, (std::vector<std::uint64_t>{7, 2, 9, 1}));
}

TEST(Arrivals, ValidatesConfig) {
  ArrivalConfig bad_rate;
  bad_rate.rate_per_s = 0.0;
  EXPECT_THROW((void)generate_arrivals(bad_rate, 4, 1), std::invalid_argument);

  ArrivalConfig no_weights;
  no_weights.class_weights.clear();
  EXPECT_THROW((void)generate_arrivals(no_weights, 4, 1),
               std::invalid_argument);

  ArrivalConfig zero_weights;
  zero_weights.class_weights = {0.0, 0.0};
  EXPECT_THROW((void)generate_arrivals(zero_weights, 4, 1),
               std::invalid_argument);

  ArrivalConfig bad_depth;
  bad_depth.kind = ArrivalKind::Diurnal;
  bad_depth.diurnal_depth = 1.0;
  EXPECT_THROW((void)generate_arrivals(bad_depth, 4, 1),
               std::invalid_argument);

  ArrivalConfig bad_burst;
  bad_burst.kind = ArrivalKind::Bursty;
  bad_burst.burst_factor = 0.5;
  EXPECT_THROW((void)generate_arrivals(bad_burst, 4, 1),
               std::invalid_argument);

  // Non-finite knobs: a NaN weight used to send every draw to the last
  // class, and an infinite rate put every arrival at t = 0.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double w : {nan, inf}) {
    ArrivalConfig bad_weight;
    bad_weight.class_weights = {1.0, w, 1.0};
    EXPECT_THROW((void)generate_arrivals(bad_weight, 1000, 1),
                 std::invalid_argument)
        << w;
  }
  for (const ArrivalKind kind :
       {ArrivalKind::Poisson, ArrivalKind::Bursty, ArrivalKind::Diurnal}) {
    for (const double rate : {inf, nan}) {
      ArrivalConfig bad_inf_rate;
      bad_inf_rate.kind = kind;
      bad_inf_rate.rate_per_s = rate;
      EXPECT_THROW((void)generate_arrivals(bad_inf_rate, 4, 1),
                   std::invalid_argument)
          << static_cast<int>(kind) << " " << rate;
    }
  }
  for (double ArrivalConfig::*knob :
       {&ArrivalConfig::burst_factor, &ArrivalConfig::calm_mean_s,
        &ArrivalConfig::burst_mean_s}) {
    for (const double v : {inf, nan}) {
      ArrivalConfig bad_sojourn;
      bad_sojourn.kind = ArrivalKind::Bursty;
      bad_sojourn.*knob = v;
      EXPECT_THROW((void)generate_arrivals(bad_sojourn, 4, 1),
                   std::invalid_argument)
          << v;
    }
  }
  for (const double period : {inf, nan}) {
    ArrivalConfig bad_period;
    bad_period.kind = ArrivalKind::Diurnal;
    bad_period.diurnal_period_s = period;
    EXPECT_THROW((void)generate_arrivals(bad_period, 4, 1),
                 std::invalid_argument)
        << period;
  }
}

TEST(Arrivals, StreamPropertiesHoldForEveryKind) {
  for (const ArrivalKind kind :
       {ArrivalKind::Poisson, ArrivalKind::Bursty, ArrivalKind::Diurnal}) {
    ArrivalConfig config;
    config.kind = kind;
    config.rate_per_s = 2.0;
    config.class_weights = {3.0, 1.0, 2.0};
    const auto stream = generate_arrivals(config, 500, 99);
    ASSERT_EQ(stream.size(), 500u) << static_cast<int>(kind);
    double prev = 0.0;
    for (const Arrival& a : stream) {
      EXPECT_GE(a.time_s, prev) << static_cast<int>(kind);
      EXPECT_TRUE(std::isfinite(a.time_s));
      EXPECT_GE(a.job_class, 0);
      EXPECT_LT(a.job_class, 3);
      prev = a.time_s;
    }
  }
}

TEST(Arrivals, DeterministicInConfigCountAndSeed) {
  ArrivalConfig config;
  config.kind = ArrivalKind::Bursty;
  config.rate_per_s = 1.5;
  config.class_weights = {1.0, 2.0};
  const auto a = generate_arrivals(config, 300, 42);
  const auto b = generate_arrivals(config, 300, 42);
  EXPECT_TRUE(same_arrivals(a, b));

  // A different seed must change the stream; a different kind too.
  const auto c = generate_arrivals(config, 300, 43);
  EXPECT_FALSE(same_arrivals(a, c));
  config.kind = ArrivalKind::Poisson;
  const auto d = generate_arrivals(config, 300, 42);
  EXPECT_FALSE(same_arrivals(a, d));
}

TEST(Arrivals, ZeroWeightClassIsNeverDrawn) {
  ArrivalConfig config;
  config.class_weights = {1.0, 0.0, 1.0};
  for (const Arrival& a : generate_arrivals(config, 400, 7)) {
    EXPECT_NE(a.job_class, 1);
  }
}

/// A job class of suite circuit `name` with the given per-device
/// makespans: the planner reads the circuit's real shape and fingerprint.
SimJobClass suite_class(const char* name, std::vector<double> makespan_ns) {
  const Circuit& circuit = get_benchmark(name).circuit;
  return {name, shape_of(circuit), circuit_fingerprint(circuit),
          std::move(makespan_ns)};
}

/// shots * makespan with no overheads, so a 1000 ns makespan runs 1 s and
/// every modeled time is hand-computable.
SimOptions hand_options(RoutePolicy policy, int max_batch_size) {
  SimOptions options;
  options.policy = policy;
  options.max_batch_size = max_batch_size;
  options.model.job_overhead_s = 0.0;
  options.model.shot_overhead_ns = 0.0;
  options.model.shots = 1'000'000;  // runtime_s = makespan_ns * 1e-3
  return options;
}

BackendRegistry two_devices() {
  return BackendRegistry({make_toronto27(), make_manhattan65()});
}

/// bell (1 s) and alu (3 s) on toronto27 + manhattan65.
FleetSimulator tiny_sim(RoutePolicy policy, int max_batch_size) {
  return FleetSimulator({suite_class("bell", {1000.0, 1000.0}),
                         suite_class("alu", {3000.0, 3000.0})},
                        two_devices(), hand_options(policy, max_batch_size));
}

TEST(FleetSimulator, HandCheckedCycleTimeline) {
  // One device (toronto27), batch cap 2 (so the count trigger is 2), one
  // class running 1 s. Each trigger fires once:
  //   t=0.0  -> every lane idle: cycle plans {0}: [0, 1)
  //   t=0.5  -> lane busy, 1 pending
  //   t=0.6  -> 2 pending, the count: cycle plans {1,2}: [1, 2)
  //   t=0.7  -> lane busy, 1 pending
  //   t=2.0  -> the lane runs out of work: cycle plans {3}: [2, 3)
  const Device toronto = make_toronto27();
  const SimJobClass bell = suite_class("bell", {1000.0});
  const FleetSimulator sim({bell}, BackendRegistry({toronto}),
                           hand_options(RoutePolicy::ExpectedLatency, 2));
  const std::vector<Arrival> arrivals = {
      {0.0, 0}, {0.5, 0}, {0.6, 0}, {0.7, 0}};
  const SimTrace trace = sim.run(arrivals);

  ASSERT_EQ(trace.jobs.size(), 4u);
  const double expected_dispatch[] = {0.0, 0.6, 0.6, 2.0};
  const double expected_start[] = {0.0, 1.0, 1.0, 2.0};
  const double expected_end[] = {1.0, 2.0, 2.0, 3.0};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(trace.jobs[i].device, 0) << i;
    EXPECT_DOUBLE_EQ(trace.jobs[i].dispatch_s, expected_dispatch[i]) << i;
    EXPECT_DOUBLE_EQ(trace.jobs[i].start_s, expected_start[i]) << i;
    EXPECT_DOUBLE_EQ(trace.jobs[i].end_s, expected_end[i]) << i;
  }
  EXPECT_EQ(trace.batches[0], 3u);
  EXPECT_DOUBLE_EQ(trace.busy_s[0], 3.0);
  EXPECT_DOUBLE_EQ(trace.horizon_s, 3.0);
  // A job alone in its batch gets its solo allocation.
  const MethodPartitioner qucp(Method::QuCP, 4.0, std::nullopt);
  EXPECT_DOUBLE_EQ(trace.jobs[0].efs,
                   *solo_efs_score(toronto, qucp, bell.shape));

  const TraceSummary summary = summarize(trace);
  EXPECT_EQ(summary.jobs, 4u);
  EXPECT_DOUBLE_EQ(summary.mean_wait_s, (0.0 + 0.5 + 0.4 + 1.3) / 4.0);
  EXPECT_DOUBLE_EQ(summary.max_latency_s, 2.3);
  EXPECT_DOUBLE_EQ(summary.utilization[0], 1.0);
  EXPECT_EQ(summary.routed[0], 4u);
  EXPECT_EQ(summary.trace_hash, trace.hash());
}

TEST(FleetSimulator, CyclesPlanAgainstEachLanesRemainingWork) {
  // Two toronto27 lanes, ExpectedLatency, cap 1 (count trigger 2). r is
  // the planner's own estimate of a bell job; the simulator runs it for
  // 4r. Job 0 finds the fleet idle and takes lane 0 (a tie goes to the
  // lowest id). Jobs 1 and 2 reach the count at t = 2.5r, when lane 0 has
  // b = 1.5r of work left. Job 1 (canonical position 0) takes the idle
  // lane 1 (r < b + r). Job 2 then weighs lane 0 at b + r = 2.5r against
  // queueing behind job 1 at 2r, and takes lane 1. Had the planner seen
  // half the backlog, job 2 would take lane 0 (1.75r); had it seen none,
  // job 1 would take lane 0.
  const Device toronto = make_toronto27();
  const ProgramShape shape = shape_of(get_benchmark("bell").circuit);
  const SimOptions options = hand_options(RoutePolicy::ExpectedLatency, 1);
  const double r =
      job_runtime_s(options.model, modeled_exec_ns(toronto, shape));
  const double makespan_ns = 4.0 * r * 1e3;  // runs 4r
  const FleetSimulator sim({suite_class("bell", {makespan_ns, makespan_ns})},
                           BackendRegistry({toronto, toronto}), options);
  const std::vector<Arrival> arrivals = {
      {0.0, 0}, {1.25 * r, 0}, {2.5 * r, 0}};
  const SimTrace trace = sim.run(arrivals);
  ASSERT_EQ(trace.jobs.size(), 3u);
  EXPECT_EQ(trace.jobs[0].device, 0);
  EXPECT_EQ(trace.jobs[1].device, 1);
  EXPECT_EQ(trace.jobs[2].device, 1);
  EXPECT_DOUBLE_EQ(trace.jobs[0].dispatch_s, 0.0);
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(trace.jobs[i].dispatch_s, 2.5 * r) << i;
  }
  // b as the trace implies it: lane 0's latest end before the cycle, less
  // the cycle's time.
  EXPECT_NEAR(trace.jobs[0].end_s - trace.jobs[1].dispatch_s, 1.5 * r,
              1e-9 * r);
  EXPECT_DOUBLE_EQ(trace.jobs[1].start_s, 2.5 * r);
  EXPECT_DOUBLE_EQ(trace.jobs[2].start_s, trace.jobs[1].end_s);
  EXPECT_EQ(trace.batches, (std::vector<std::uint64_t>{1, 2}));
}

TEST(FleetSimulator, RoundRobinFollowsTheServiceRule) {
  // The service's RoundRobin rotates the starting device over the whole
  // fleet by the job's canonical position in its cycle, and a job takes
  // the first device it fits on. alu (5 qubits) does not fit device 0, a
  // 4-qubit line, so six alu jobs planned in one cycle land on devices
  // 1, 1, 2, 1, 1, 2. Job 0 finds the fleet idle and occupies device 1;
  // the six arrive while it runs (fewer than the count of 12) and are
  // planned together when device 1 runs out of work.
  SimOptions options;
  options.policy = RoutePolicy::RoundRobin;
  const FleetSimulator sim(
      {suite_class("alu", {-1.0, 1000.0, 1000.0})},
      BackendRegistry(
          {make_line_device(4), make_toronto27(), make_toronto27()}),
      options);
  std::vector<Arrival> arrivals = {{0.0, 0}};
  for (int i = 1; i <= 6; ++i) arrivals.push_back({1e-3 * i, 0});
  const SimTrace trace = sim.run(arrivals);
  ASSERT_EQ(trace.jobs.size(), 7u);
  EXPECT_EQ(trace.jobs[0].device, 1);
  std::vector<int> devices;
  for (std::size_t i = 1; i < trace.jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(trace.jobs[i].dispatch_s, trace.jobs[0].end_s) << i;
    devices.push_back(trace.jobs[i].device);
  }
  EXPECT_EQ(devices, (std::vector<int>{1, 1, 2, 1, 1, 2}));
}

TEST(FleetSimulator, ConstructorValidatesClassTables) {
  SimOptions options;
  EXPECT_THROW(FleetSimulator({}, two_devices(), options),
               std::invalid_argument);
  EXPECT_THROW(
      FleetSimulator({suite_class("bell", {1.0})}, BackendRegistry{}, options),
      std::invalid_argument);
  // Per-device makespans must match the device count.
  EXPECT_THROW(
      FleetSimulator({suite_class("bell", {1.0})}, two_devices(), options),
      std::invalid_argument);
  // A class that fits nowhere is a configuration error, not a runtime one.
  EXPECT_THROW(FleetSimulator({suite_class("bell", {-1.0, -1.0})},
                              two_devices(), options),
               std::invalid_argument);
}

TEST(FleetSimulator, MakespanTableMustAgreeWithThePlanner) {
  // alu fits toronto27; a table claiming it does not is caught when the
  // planner routes it there (RoundRobin starts a one-job cycle at slot 0).
  const FleetSimulator sim({suite_class("alu", {-1.0, 1000.0})},
                           two_devices(),
                           hand_options(RoutePolicy::RoundRobin, 4));
  const std::vector<Arrival> arrivals = {{0.0, 0}};
  try {
    (void)sim.run(arrivals);
    ADD_FAILURE() << "accepted a makespan table the planner disagrees with";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'alu'"), std::string::npos)
        << e.what();
  }
}

TEST(FleetSimulator, UnfitDevicesAreNeverRouted) {
  // alu (5 qubits) fits only device 1: device 0 is a 4-qubit line. Every
  // policy must respect that.
  for (const RoutePolicy policy :
       {RoutePolicy::RoundRobin, RoutePolicy::LeastLoaded, RoutePolicy::BestEfs,
        RoutePolicy::ExpectedLatency}) {
    SimOptions options;
    options.policy = policy;
    const FleetSimulator sim(
        {suite_class("alu", {-1.0, 1000.0}),
         suite_class("bell", {2000.0, 2000.0})},
        BackendRegistry({make_line_device(4), make_toronto27()}), options);
    std::vector<Arrival> arrivals;
    for (int i = 0; i < 40; ++i) {
      arrivals.push_back({0.25 * i, i % 2});
    }
    const SimTrace trace = sim.run(arrivals);
    for (std::size_t i = 0; i < trace.jobs.size(); ++i) {
      if (trace.jobs[i].job_class == 0) {
        EXPECT_EQ(trace.jobs[i].device, 1) << route_policy_name(policy);
      }
    }
  }
}

TEST(FleetSimulator, RejectsMalformedArrivals) {
  // Replayed traces come from outside the program: an unknown class or a
  // time that is NaN, infinite or negative is rejected, naming the index.
  const FleetSimulator sim = tiny_sim(RoutePolicy::ExpectedLatency, 2);
  const double inf = std::numeric_limits<double>::infinity();
  const Arrival bad[] = {{1.0, -1},
                         {1.0, 2},
                         {std::numeric_limits<double>::quiet_NaN(), 0},
                         {inf, 0},
                         {-inf, 0},
                         {-0.5, 1}};
  for (const Arrival& a : bad) {
    const std::vector<Arrival> arrivals = {{0.0, 0}, a};
    try {
      (void)sim.run(arrivals);
      ADD_FAILURE() << "accepted time " << a.time_s << " class "
                    << a.job_class;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("arrival 1 "), std::string::npos)
          << e.what();
    }
  }
  // The boundaries are valid: time 0 and the last class.
  EXPECT_EQ(sim.run(std::vector<Arrival>{{0.0, 1}}).jobs.size(), 1u);
}

TEST(FleetSimulator, TraceIsBitIdenticalAcrossRerunsAndThreadCaps) {
  // The simulator is single-threaded event-queue and planner logic: kernel
  // thread caps (the only threading knob in the process) must not leak
  // into the trace, and the same (config, count, seed) triple must
  // reproduce it bit-for-bit.
  ArrivalConfig config;
  config.kind = ArrivalKind::Bursty;
  config.rate_per_s = 1.2;
  config.class_weights = {2.0, 1.0};
  const FleetSimulator sim = tiny_sim(RoutePolicy::ExpectedLatency, 4);

  std::uint64_t hashes[3] = {};
  const int caps[3] = {1, 2, 8};
  for (int i = 0; i < 3; ++i) {
    kern::ParallelThreadsGuard guard(caps[i]);
    const auto arrivals = generate_arrivals(config, 2000, 77);
    hashes[i] = sim.run(arrivals).hash();
  }
  EXPECT_EQ(hashes[0], hashes[1]);
  EXPECT_EQ(hashes[0], hashes[2]);
}

TEST(FleetSimulator, ReplayedTraceIsBitIdentical) {
  // Re-running the simulator on the arrival stream recovered from a
  // finished trace (time + class per record, in arrival order) must
  // reproduce the trace exactly: evaluation-by-replay is exact, not
  // approximate.
  ArrivalConfig config;
  config.kind = ArrivalKind::Diurnal;
  config.rate_per_s = 1.0;
  config.diurnal_period_s = 600.0;
  config.class_weights = {1.0, 1.0};
  const FleetSimulator sim = tiny_sim(RoutePolicy::LeastLoaded, 3);

  const auto arrivals = generate_arrivals(config, 1500, 5);
  const SimTrace first = sim.run(arrivals);

  std::vector<Arrival> replayed;
  replayed.reserve(first.jobs.size());
  for (const JobRecord& r : first.jobs) {
    replayed.push_back({r.arrival_s, r.job_class});
  }
  const SimTrace second = sim.run(replayed);
  EXPECT_EQ(first.hash(), second.hash());
}

/// Each device's batches in dispatch order, each batch the ascending
/// arrival ordinals of its members.
using Layout = std::vector<std::vector<std::vector<std::size_t>>>;

/// The simulator's batches among arrival ordinals [first, last): a batch
/// is the jobs that share a device and a start time.
Layout sim_layout(const SimTrace& trace, std::size_t first, std::size_t last) {
  std::map<std::pair<int, double>, std::vector<std::size_t>> batches;
  for (std::size_t i = first; i < last; ++i) {
    batches[{trace.jobs[i].device, trace.jobs[i].start_s}].push_back(i);
  }
  Layout out(trace.busy_s.size());
  for (auto& [key, members] : batches) {
    out[static_cast<std::size_t>(key.first)].push_back(std::move(members));
  }
  return out;
}

/// The trace's dispatch cycles as [first, last) ranges of arrival
/// ordinals. A cycle plans every pending job, so its members are
/// contiguous in arrival order; the streams below never run two cycles at
/// one instant, so a cycle is the run of jobs sharing a dispatch time.
std::vector<std::pair<std::size_t, std::size_t>> cycles_of(
    const SimTrace& trace) {
  std::vector<std::pair<std::size_t, std::size_t>> cycles;
  for (std::size_t i = 0; i < trace.jobs.size();) {
    std::size_t end = i + 1;
    while (end < trace.jobs.size() &&
           trace.jobs[end].dispatch_s == trace.jobs[i].dispatch_s) {
      ++end;
    }
    cycles.emplace_back(i, end);
    i = end;
  }
  return cycles;
}

TEST(FleetSimulator, CyclesPlanWhatTheServicePlans) {
  // One bursty stream over a 4-qubit line + toronto27, split into the
  // simulator's dispatch cycles. alu and 4mod (5 qubits) fit only
  // toronto27, and the line (calibration seed 1) has the lower solo EFS
  // for bell and lin, so every policy keeps both lanes busy and plans
  // multi-job cycles. The time-blind policies read no backlog and the
  // stream has no exclusive jobs, so submitting each cycle to an
  // ExecutionService and flushing once must give every job the batch,
  // batch order, device and EFS the simulator gave it. ExpectedLatency
  // reads the backlog, so each of its cycles is re-planned with
  // FleetScheduler::plan from the backlog the trace implies: each lane's
  // latest end among earlier cycles, less the cycle's dispatch time.
  const auto fleet = [] {
    return BackendRegistry({make_line_device(4, 1), make_toronto27()});
  };
  const std::vector<SimJobClass> classes = {
      suite_class("bell", {9800.0, 9444.1}),
      suite_class("lin", {7900.0, 7579.8}),
      suite_class("alu", {-1.0, 15130.6}),
      suite_class("4mod", {-1.0, 10945.4})};
  constexpr int kCap = 3;
  ArrivalConfig config;
  config.kind = ArrivalKind::Bursty;
  config.rate_per_s = 0.5;
  config.calm_mean_s = 60.0;
  config.class_weights = {1.0, 1.0, 1.0, 1.0};
  const auto arrivals = generate_arrivals(config, 48, 3);
  const auto class_of = [&](std::size_t i) -> const SimJobClass& {
    return classes[static_cast<std::size_t>(arrivals[i].job_class)];
  };

  for (const RoutePolicy policy :
       {RoutePolicy::RoundRobin, RoutePolicy::LeastLoaded,
        RoutePolicy::BestEfs}) {
    SimOptions options;
    options.policy = policy;
    options.max_batch_size = kCap;
    const SimTrace trace =
        FleetSimulator(classes, fleet(), options).run(arrivals);

    ServiceOptions sopts;
    sopts.route_policy = policy;
    sopts.max_batch_size = kCap;
    sopts.num_workers = 1;
    sopts.exec.shots = 64;
    ExecutionService service(fleet(), sopts);
    std::vector<JobHandle> handles(arrivals.size());
    std::size_t multi_job_cycles = 0;
    for (const auto& [first, last] : cycles_of(trace)) {
      for (std::size_t i = first; i < last; ++i) {
        const char* name = class_of(i).name.c_str();
        handles[i] = service.submit(get_benchmark(name).circuit, {name});
      }
      service.flush();
      multi_job_cycles += last - first > 1;
    }
    // The stream must exercise batching, or the comparison is vacuous.
    EXPECT_GT(multi_job_cycles, 3u) << route_policy_name(policy);

    std::map<std::pair<int, std::uint64_t>, std::vector<std::size_t>> batches;
    for (std::size_t i = 0; i < handles.size(); ++i) {
      const JobResult& result = handles[i].result();
      batches[{result.batch.backend_id, result.batch.batch_index}].push_back(i);
      EXPECT_DOUBLE_EQ(trace.jobs[i].efs, result.report.efs) << i;
    }
    Layout served(2);
    for (auto& [key, members] : batches) {
      served[static_cast<std::size_t>(key.first)].push_back(
          std::move(members));
    }
    EXPECT_EQ(served, sim_layout(trace, 0, trace.jobs.size()))
        << route_policy_name(policy);
  }

  SimOptions options;
  options.policy = RoutePolicy::ExpectedLatency;
  options.max_batch_size = kCap;
  const SimTrace trace =
      FleetSimulator(classes, fleet(), options).run(arrivals);
  const BackendRegistry registry = fleet();
  FleetScheduler scheduler(registry, RoutePolicy::ExpectedLatency);
  const MethodPartitioner qucp(Method::QuCP, 4.0, std::nullopt);
  PackOptions popts;
  popts.max_batch_size = kCap;
  popts.runtime = options.model;
  std::vector<double> lane_end(2, 0.0);  ///< over the cycles so far
  bool some_backlog = false;
  for (const auto& [first, last] : cycles_of(trace)) {
    const double now = trace.jobs[first].dispatch_s;
    std::vector<double> backlog(2);
    for (std::size_t d = 0; d < 2; ++d) {
      backlog[d] = std::max(0.0, lane_end[d] - now);
      some_backlog |= backlog[d] > 0.0;
    }
    // The service's canonical order: circuit fingerprint, then arrival.
    std::vector<std::size_t> members(last - first);
    for (std::size_t k = 0; k < members.size(); ++k) members[k] = first + k;
    std::ranges::stable_sort(
        members, {}, [&](std::size_t i) { return class_of(i).fingerprint; });
    std::vector<PackJob> jobs;
    for (std::size_t k = 0; k < members.size(); ++k) {
      jobs.push_back({k, class_of(members[k]).shape,
                      class_of(members[k]).fingerprint});
    }
    const FleetPlan plan = scheduler.plan(jobs, qucp, popts, backlog);
    Layout planned(2);
    for (std::size_t d = 0; d < 2; ++d) {
      for (const PackedBatch& batch : plan.batches[d]) {
        std::vector<std::size_t> ordinals;
        for (const std::size_t k : batch.jobs) ordinals.push_back(members[k]);
        std::ranges::sort(ordinals);
        planned[d].push_back(std::move(ordinals));
      }
    }
    EXPECT_EQ(planned, sim_layout(trace, first, last)) << "cycle at " << now;
    for (std::size_t i = first; i < last; ++i) {
      const auto d = static_cast<std::size_t>(trace.jobs[i].device);
      lane_end[d] = std::max(lane_end[d], trace.jobs[i].end_s);
    }
  }
  // Some cycle must plan against queued work, or backlog goes untested.
  EXPECT_TRUE(some_backlog);
}

TEST(FleetSimulator, ExpectedLatencyBeatsQueueBlindPoliciesOnBurstyStream) {
  // The subsystem's reason to exist: on a heterogeneous fleet (device 0,
  // toronto27, has the lower solo EFS for both classes AND runs them twice
  // as fast as device 1, manhattan65) under bursty traffic, ExpectedLatency
  // spreads the bursts by modeled completion time. The bar is strict tail
  // separation.
  SimOptions options;
  options.max_batch_size = 4;
  options.model.job_overhead_s = 2.0;
  options.model.shot_overhead_ns = 0.0;
  options.model.shots = 1'000'000;
  const std::vector<SimJobClass> classes = {
      suite_class("bell", {1000.0, 2000.0}),
      suite_class("alu", {4000.0, 8000.0}),
  };

  ArrivalConfig config;
  config.kind = ArrivalKind::Bursty;
  config.rate_per_s = 0.25;
  config.burst_factor = 10.0;
  config.calm_mean_s = 120.0;
  config.burst_mean_s = 40.0;
  config.class_weights = {3.0, 1.0};
  const auto arrivals = generate_arrivals(config, 4000, 11);

  double p95[4] = {};
  for (const RoutePolicy policy :
       {RoutePolicy::RoundRobin, RoutePolicy::LeastLoaded, RoutePolicy::BestEfs,
        RoutePolicy::ExpectedLatency}) {
    options.policy = policy;
    const FleetSimulator sim(classes, two_devices(), options);
    p95[static_cast<int>(policy)] = summarize(sim.run(arrivals)).p95_latency_s;
  }
  const double el = p95[static_cast<int>(RoutePolicy::ExpectedLatency)];
  EXPECT_LT(el, p95[static_cast<int>(RoutePolicy::LeastLoaded)]);
  EXPECT_LT(el, p95[static_cast<int>(RoutePolicy::BestEfs)]);
  EXPECT_LT(el, p95[static_cast<int>(RoutePolicy::RoundRobin)]);
}

TEST(Stats, PercentileIsNearestRank) {
  const std::vector<double> sample = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(sample, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(sample, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(sample, 100.0), 5.0);
  // Nearest-rank: ceil(0.95 * 5) = 5th order statistic.
  EXPECT_DOUBLE_EQ(percentile(sample, 95.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(std::vector<double>{7.0}, 99.0), 7.0);
  EXPECT_THROW((void)percentile(std::vector<double>{}, 50.0),
               std::invalid_argument);
  EXPECT_THROW((void)percentile(sample, 101.0), std::invalid_argument);
}

}  // namespace
}  // namespace qucp::fleetsim
