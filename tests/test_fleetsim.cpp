// Tests for the discrete-event fleet simulator (src/fleetsim/): event
// queue ordering, arrival-process contracts, hand-checked batch/lane
// semantics, the determinism pins (bit-identical traces across reruns,
// kernel thread caps and trace replay) and the policy-separation
// acceptance bar (ExpectedLatency beats the queue-blind policies on a
// heterogeneous bursty stream).

#include "fleetsim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "fleetsim/events.hpp"
#include "fleetsim/stats.hpp"
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

/// Two job classes on one device whose batch runtimes are exactly 1s and
/// 3s: shots * makespan with no overheads makes every modeled time
/// hand-computable.
FleetSimulator tiny_sim(RoutePolicy policy, int max_batch_size,
                        std::size_t devices = 1) {
  SimOptions options;
  options.policy = policy;
  options.max_batch_size = max_batch_size;
  options.model.job_overhead_s = 0.0;
  options.model.shot_overhead_ns = 0.0;
  options.model.shots = 1'000'000;  // runtime_s = makespan_ns * 1e-3
  std::vector<SimJobClass> classes;
  classes.push_back({"short", 2, std::vector<double>(devices, 1000.0),
                     std::vector<double>(devices, 0.1)});
  classes.push_back({"long", 4, std::vector<double>(devices, 3000.0),
                     std::vector<double>(devices, 0.2)});
  return FleetSimulator(std::move(classes), devices, options);
}

TEST(FleetSimulator, HandCheckedBatchTimeline) {
  // One device, batch cap 2. Class runtimes: short = 1s, long = 3s.
  //   t=0.0 short  -> device idle, dispatches alone: [0.0, 1.0)
  //   t=0.5 short  -> queues, opens batch {1}
  //   t=0.6 long   -> joins open batch {1,2}; batch runtime becomes 3s
  //   t=0.7 short  -> batch {1,2} full, opens batch {3}
  //   t=1.0 free   -> dispatch {1,2}: [1.0, 4.0)
  //   t=4.0 free   -> dispatch {3}:   [4.0, 5.0)
  const FleetSimulator sim = tiny_sim(RoutePolicy::ExpectedLatency, 2);
  const std::vector<Arrival> arrivals = {
      {0.0, 0}, {0.5, 0}, {0.6, 1}, {0.7, 0}};
  const SimTrace trace = sim.run(arrivals);

  ASSERT_EQ(trace.jobs.size(), 4u);
  const double expected_start[] = {0.0, 1.0, 1.0, 4.0};
  const double expected_end[] = {1.0, 4.0, 4.0, 5.0};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(trace.jobs[i].device, 0) << i;
    EXPECT_DOUBLE_EQ(trace.jobs[i].start_s, expected_start[i]) << i;
    EXPECT_DOUBLE_EQ(trace.jobs[i].end_s, expected_end[i]) << i;
  }
  EXPECT_EQ(trace.batches[0], 3u);
  EXPECT_DOUBLE_EQ(trace.busy_s[0], 5.0);
  EXPECT_DOUBLE_EQ(trace.horizon_s, 5.0);

  const TraceSummary summary = summarize(trace, sim.classes(), 1);
  EXPECT_EQ(summary.jobs, 4u);
  EXPECT_DOUBLE_EQ(summary.mean_wait_s, (0.0 + 0.5 + 0.4 + 3.3) / 4.0);
  EXPECT_DOUBLE_EQ(summary.max_latency_s, 4.3);
  EXPECT_DOUBLE_EQ(summary.utilization[0], 1.0);
  EXPECT_EQ(summary.routed[0], 4u);
  EXPECT_EQ(summary.trace_hash, trace.hash());
}

TEST(FleetSimulator, ConstructorValidatesClassTables) {
  SimOptions options;
  EXPECT_THROW(FleetSimulator({}, 2, options), std::invalid_argument);
  EXPECT_THROW(FleetSimulator({{"a", 2, {1.0}, {0.1}}}, 0, options),
               std::invalid_argument);
  // Per-device vectors must match the device count.
  EXPECT_THROW(FleetSimulator({{"a", 2, {1.0}, {0.1}}}, 2, options),
               std::invalid_argument);
  // A class that fits nowhere is a configuration error, not a runtime one.
  EXPECT_THROW(FleetSimulator({{"a", 2, {-1.0, -1.0}, {0.1, 0.1}}}, 2,
                              options),
               std::invalid_argument);
}

TEST(FleetSimulator, UnfitDevicesAreNeverRouted) {
  // Class 0 fits only on device 1; every policy must respect that.
  for (const RoutePolicy policy :
       {RoutePolicy::RoundRobin, RoutePolicy::LeastLoaded, RoutePolicy::BestEfs,
        RoutePolicy::ExpectedLatency}) {
    SimOptions options;
    options.policy = policy;
    std::vector<SimJobClass> classes = {
        {"narrow", 2, {-1.0, 1000.0}, {0.0, 0.3}},
        {"wide", 4, {2000.0, 2000.0}, {0.1, 0.2}},
    };
    FleetSimulator sim(classes, 2, options);
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

TEST(FleetSimulator, RoundRobinFollowsTheServiceRule) {
  // The simulator runs the service's RoundRobinPolicy: the starting device
  // rotates over the whole fleet by arrival ordinal and the job takes the
  // first device it fits on. A class unfit on device 0 therefore lands on
  // device 1 for ordinals 0 and 1 of every three, and on device 2 for the
  // third.
  SimOptions options;
  options.policy = RoutePolicy::RoundRobin;
  const FleetSimulator sim(
      {{"narrow", 2, {-1.0, 1000.0, 1000.0}, {0.0, 0.1, 0.1}}}, 3, options);
  std::vector<Arrival> arrivals;
  for (int i = 0; i < 6; ++i) arrivals.push_back({1.0 * i, 0});
  std::vector<int> devices;
  for (const JobRecord& r : sim.run(arrivals).jobs) devices.push_back(r.device);
  EXPECT_EQ(devices, (std::vector<int>{1, 1, 2, 1, 1, 2}));
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
  // The simulator is pure event-queue logic: kernel thread caps (the only
  // threading knob in the process) must not leak into the trace, and the
  // same (config, count, seed) triple must reproduce it bit-for-bit.
  ArrivalConfig config;
  config.kind = ArrivalKind::Bursty;
  config.rate_per_s = 1.2;
  config.class_weights = {2.0, 1.0};
  const FleetSimulator sim = tiny_sim(RoutePolicy::ExpectedLatency, 4, 2);

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
  const FleetSimulator sim = tiny_sim(RoutePolicy::LeastLoaded, 3, 2);

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

TEST(FleetSimulator, ExpectedLatencyBeatsQueueBlindPoliciesOnBurstyStream) {
  // The subsystem's reason to exist: on a heterogeneous fleet (device 0
  // strictly better calibrated AND faster) under bursty traffic, BestEfs
  // drowns device 0 while ExpectedLatency spreads the bursts by modeled
  // completion time. The bar is strict tail separation.
  SimOptions options;
  options.max_batch_size = 4;
  options.model.job_overhead_s = 2.0;
  options.model.shot_overhead_ns = 0.0;
  options.model.shots = 1'000'000;
  std::vector<SimJobClass> classes = {
      {"small", 2, {1000.0, 2000.0}, {0.05, 0.2}},
      {"large", 6, {4000.0, 8000.0}, {0.15, 0.4}},
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
    FleetSimulator sim(classes, 2, options);
    const TraceSummary summary =
        summarize(sim.run(arrivals), classes, 2);
    p95[static_cast<int>(policy)] = summary.p95_latency_s;
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
