// Tests for the fleet layer (service/fleet.hpp + service/registry.hpp):
// BackendRegistry construction, routing policies, the generalized fleet
// packer (accounting exactness, cross-device spill, determinism) and its
// single-slot equivalence with pack_batches.

#include "service/fleet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "benchmarks/suite.hpp"
#include "common/rng.hpp"
#include "partition/candidate_index.hpp"
#include "service/packer.hpp"

namespace qucp {
namespace {

PackJob make_job(std::size_t index, ProgramShape shape,
                 std::uint64_t fingerprint, bool exclusive = false) {
  return {index, shape, fingerprint, exclusive};
}

/// Slots + per-slot caches with stable addresses.
struct TestFleet {
  /// `indexed` gives every slot its own CandidateIndex, which lets the
  /// admission probe take its incremental grow-one path; index-less slots
  /// always re-allocate from scratch.
  explicit TestFleet(std::vector<Device> devs, bool indexed = false)
      : devices(std::move(devs)) {
    caches.resize(devices.size());
    for (std::size_t i = 0; i < devices.size(); ++i) {
      if (indexed) {
        indexes.push_back(std::make_unique<CandidateIndex>(devices[i]));
      }
      slots.push_back(
          {&devices[i], indexed ? indexes.back().get() : nullptr, &caches[i]});
    }
  }
  std::vector<Device> devices;
  std::vector<std::unique_ptr<CandidateIndex>> indexes;
  std::vector<std::map<std::uint64_t, double>> caches;
  std::vector<FleetSlot> slots;
};

TEST(BackendRegistry, ConstructionAndLookup) {
  BackendRegistry registry(
      std::vector<Device>{make_toronto27(), make_manhattan65()});
  ASSERT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.at(0).epoch()->device().name(), "ibmq_toronto27");
  EXPECT_EQ(registry.at(1).epoch()->device().name(), "ibmq_manhattan65");
  EXPECT_EQ(registry.find("ibmq_manhattan65"), std::optional<std::size_t>{1});
  EXPECT_EQ(registry.find("nope"), std::nullopt);
  EXPECT_THROW((void)registry.at(2), std::out_of_range);

  const std::size_t id = registry.add(make_line_device(5));
  EXPECT_EQ(id, 2u);
  EXPECT_EQ(registry.share(2)->epoch()->device().num_qubits(), 5);

  EXPECT_THROW(
      BackendRegistry(std::vector<std::shared_ptr<Backend>>{nullptr}),
      std::invalid_argument);

  // One Backend = one device endpoint: aliasing the same object into two
  // lanes is rejected.
  auto shared = std::make_shared<Backend>(make_line_device(5));
  BackendRegistry aliased;
  aliased.add(shared);
  EXPECT_THROW(aliased.add(shared), std::invalid_argument);
  EXPECT_THROW(
      BackendRegistry(
          std::vector<std::shared_ptr<Backend>>{shared, shared}),
      std::invalid_argument);
}

TEST(MakeNamedDevice, ResolvesBundledNamesAndRejectsUnknown) {
  EXPECT_EQ(make_named_device("toronto27").name(), "ibmq_toronto27");
  EXPECT_EQ(make_named_device("ibmq_manhattan65").num_qubits(), 65);
  EXPECT_EQ(make_named_device("melbourne16").num_qubits(), 15);
  EXPECT_THROW((void)make_named_device("osaka127"), std::invalid_argument);
}

TEST(RoutingPolicy, FactoryNamesMatch) {
  for (const RoutePolicy p : {RoutePolicy::RoundRobin,
                              RoutePolicy::LeastLoaded,
                              RoutePolicy::BestEfs,
                              RoutePolicy::ExpectedLatency}) {
    EXPECT_EQ(make_routing_policy(p)->name(), route_policy_name(p));
  }
}

TEST(PackFleet, SingleSlotMatchesPackBatchesExactly) {
  // The engine's one-slot instantiation must reproduce pack_batches
  // decision for decision: batches, unplaceable set, spill-event count and
  // solo-EFS cache fills, over randomized job streams (including shapes
  // larger than the device and exclusive jobs).
  const Device device = make_line_device(10);
  const QucpPartitioner partitioner;
  Rng rng(515);
  for (int trial = 0; trial < 12; ++trial) {
    std::vector<PackJob> jobs;
    const int n = static_cast<int>(rng.integer(1, 14));
    for (int i = 0; i < n; ++i) {
      ProgramShape s;
      s.num_qubits = static_cast<int>(rng.integer(1, 12));
      s.num_2q = s.num_qubits >= 2 ? static_cast<int>(rng.integer(0, 9)) : 0;
      s.num_1q = static_cast<int>(rng.integer(0, 9));
      jobs.push_back(make_job(static_cast<std::size_t>(i), s, rng.next_u64(),
                              rng.bernoulli(0.2)));
    }
    PackOptions opts;
    opts.max_batch_size = static_cast<int>(rng.integer(1, 4));
    if (rng.bernoulli(0.5)) opts.efs_threshold = rng.uniform(0.0, 0.4);

    std::map<std::uint64_t, double> cache_batches;
    const PackResult expected =
        pack_batches(device, jobs, partitioner, opts, cache_batches);

    std::map<std::uint64_t, double> cache_fleet;
    const FleetSlot slot{&device, nullptr, &cache_fleet};
    const FleetPlan plan =
        pack_fleet(std::span<const FleetSlot>(&slot, 1), jobs, partitioner,
                   opts, nullptr);

    ASSERT_EQ(plan.batches.size(), 1u) << trial;
    ASSERT_EQ(plan.batches[0].size(), expected.batches.size()) << trial;
    for (std::size_t b = 0; b < expected.batches.size(); ++b) {
      EXPECT_EQ(plan.batches[0][b].jobs, expected.batches[b].jobs)
          << trial << " batch " << b;
    }
    EXPECT_EQ(plan.unplaceable, expected.unplaceable) << trial;
    EXPECT_EQ(plan.spill_events, expected.spill_events) << trial;
    EXPECT_EQ(plan.cross_device_spills, 0u) << trial;
    EXPECT_EQ(cache_fleet, cache_batches) << trial;
  }
}

TEST(PackFleet, AccountingIsExactAcrossSlotsAndPolicies) {
  // Property: every job lands in exactly one batch on exactly one slot, or
  // in unplaceable — under every policy, no matter how spills interleave.
  Rng rng(2024);
  for (const RoutePolicy policy_kind : {RoutePolicy::RoundRobin,
                                        RoutePolicy::LeastLoaded,
                                        RoutePolicy::BestEfs}) {
    for (int trial = 0; trial < 8; ++trial) {
      TestFleet fleet({make_line_device(10, 3), make_grid_device(3, 3, 4)});
      const QucpPartitioner partitioner;
      std::vector<PackJob> jobs;
      const int n = static_cast<int>(rng.integer(1, 12));
      for (int i = 0; i < n; ++i) {
        ProgramShape s;
        s.num_qubits = static_cast<int>(rng.integer(1, 12));
        s.num_2q = s.num_qubits >= 2 ? static_cast<int>(rng.integer(0, 9)) : 0;
        s.num_1q = static_cast<int>(rng.integer(0, 9));
        jobs.push_back(make_job(static_cast<std::size_t>(i), s, rng.next_u64(),
                                rng.bernoulli(0.2)));
      }
      PackOptions opts;
      opts.max_batch_size = static_cast<int>(rng.integer(1, 4));
      const auto policy = make_routing_policy(policy_kind);
      const FleetPlan plan =
          pack_fleet(fleet.slots, jobs, partitioner, opts, policy.get());

      std::vector<std::size_t> seen;
      for (const auto& slot_batches : plan.batches) {
        for (const PackedBatch& batch : slot_batches) {
          EXPECT_FALSE(batch.jobs.empty());
          EXPECT_LE(batch.jobs.size(),
                    static_cast<std::size_t>(opts.max_batch_size));
          EXPECT_TRUE(std::is_sorted(batch.jobs.begin(), batch.jobs.end()));
          seen.insert(seen.end(), batch.jobs.begin(), batch.jobs.end());
        }
      }
      seen.insert(seen.end(), plan.unplaceable.begin(),
                  plan.unplaceable.end());
      std::sort(seen.begin(), seen.end());
      std::vector<std::size_t> expected(jobs.size());
      for (std::size_t i = 0; i < jobs.size(); ++i) expected[i] = i;
      EXPECT_EQ(seen, expected)
          << route_policy_name(policy_kind) << " trial " << trial;
    }
  }
}

TEST(PackFleet, PlansAreDeterministic) {
  // Same fleet, same jobs, fresh policy: identical plan every time.
  for (const RoutePolicy policy_kind : {RoutePolicy::RoundRobin,
                                        RoutePolicy::LeastLoaded,
                                        RoutePolicy::BestEfs}) {
    const QucpPartitioner partitioner;
    std::vector<PackJob> jobs;
    for (std::size_t i = 0; i < 9; ++i) {
      jobs.push_back(make_job(i, {2 + static_cast<int>(i % 4), 3, 4}, 100 + i));
    }
    auto run = [&] {
      TestFleet fleet({make_toronto27(), make_manhattan65()});
      const auto policy = make_routing_policy(policy_kind);
      return pack_fleet(fleet.slots, jobs, partitioner, PackOptions{},
                        policy.get());
    };
    const FleetPlan a = run();
    const FleetPlan b = run();
    ASSERT_EQ(a.batches.size(), b.batches.size());
    for (std::size_t s = 0; s < a.batches.size(); ++s) {
      ASSERT_EQ(a.batches[s].size(), b.batches[s].size());
      for (std::size_t i = 0; i < a.batches[s].size(); ++i) {
        EXPECT_EQ(a.batches[s][i].jobs, b.batches[s][i].jobs);
      }
    }
    EXPECT_EQ(a.unplaceable, b.unplaceable);
    EXPECT_EQ(a.spill_events, b.spill_events);
    EXPECT_EQ(a.cross_device_spills, b.cross_device_spills);
  }
}

TEST(PackFleet, RoundRobinSpreadsIdenticalJobsAcrossSlots) {
  TestFleet fleet({make_line_device(8, 3), make_line_device(8, 3)});
  const QucpPartitioner partitioner;
  std::vector<PackJob> jobs;
  for (std::size_t i = 0; i < 8; ++i) {
    jobs.push_back(make_job(i, {2, 1, 2}, 500 + i));
  }
  RoundRobinPolicy policy;
  PackOptions opts;
  opts.max_batch_size = 2;
  const FleetPlan plan =
      pack_fleet(fleet.slots, jobs, partitioner, opts, &policy);
  std::size_t per_slot[2] = {0, 0};
  for (std::size_t s = 0; s < 2; ++s) {
    for (const PackedBatch& batch : plan.batches[s]) {
      per_slot[s] += batch.jobs.size();
    }
  }
  EXPECT_EQ(per_slot[0], 4u);
  EXPECT_EQ(per_slot[1], 4u);
  EXPECT_TRUE(plan.unplaceable.empty());
}

TEST(PackFleet, LeastLoadedBalancesQubitLoad) {
  // 4 wide jobs + 4 narrow jobs: qubit-weighted load accounting should
  // keep the two identical devices near-even instead of job-count-even.
  TestFleet fleet({make_line_device(12, 3), make_line_device(12, 3)});
  const QucpPartitioner partitioner;
  std::vector<PackJob> jobs;
  for (std::size_t i = 0; i < 4; ++i) {
    jobs.push_back(make_job(i, {4, 4, 4}, 900 + i));
  }
  for (std::size_t i = 4; i < 8; ++i) {
    jobs.push_back(make_job(i, {2, 1, 2}, 900 + i));
  }
  LeastLoadedPolicy policy;
  PackOptions opts;
  opts.max_batch_size = 2;
  const FleetPlan plan =
      pack_fleet(fleet.slots, jobs, partitioner, opts, &policy);
  std::uint64_t load[2] = {0, 0};
  for (std::size_t s = 0; s < 2; ++s) {
    for (const PackedBatch& batch : plan.batches[s]) {
      for (std::size_t idx : batch.jobs) {
        load[s] += static_cast<std::uint64_t>(jobs[idx].shape.num_qubits);
      }
    }
  }
  EXPECT_TRUE(plan.unplaceable.empty());
  EXPECT_EQ(load[0] + load[1], 24u);
  EXPECT_LE(load[0] > load[1] ? load[0] - load[1] : load[1] - load[0], 4u);
}

TEST(PackFleet, BestEfsRoutesEveryJobToItsLowestErrorDevice) {
  // With room for everything, BestEfs must put each job on the device
  // where its best solo EFS is smallest — checked against direct
  // solo_efs_score() probes on both devices.
  TestFleet fleet({make_toronto27(), make_manhattan65()});
  const QucpPartitioner partitioner;
  std::vector<PackJob> jobs;
  std::vector<ProgramShape> shapes;
  for (const char* name : {"bell", "lin", "adder", "alu", "qec", "var"}) {
    const ProgramShape shape = shape_of(get_benchmark(name).circuit);
    shapes.push_back(shape);
    jobs.push_back(make_job(jobs.size(), shape,
                            circuit_fingerprint(get_benchmark(name).circuit)));
  }
  BestEfsPolicy policy;
  PackOptions opts;
  opts.max_batch_size = 0;  // unbounded: nothing spills for capacity
  const FleetPlan plan =
      pack_fleet(fleet.slots, jobs, partitioner, opts, &policy);
  ASSERT_TRUE(plan.unplaceable.empty());

  std::vector<int> slot_of(jobs.size(), -1);
  for (std::size_t s = 0; s < plan.batches.size(); ++s) {
    for (const PackedBatch& batch : plan.batches[s]) {
      for (std::size_t idx : batch.jobs) slot_of[idx] = static_cast<int>(s);
    }
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto on_toronto =
        solo_efs_score(fleet.devices[0], partitioner, shapes[i]);
    const auto on_manhattan =
        solo_efs_score(fleet.devices[1], partitioner, shapes[i]);
    ASSERT_TRUE(on_toronto && on_manhattan) << i;
    const int expected = *on_toronto <= *on_manhattan ? 0 : 1;
    EXPECT_EQ(slot_of[i], expected)
        << "job " << i << " toronto=" << *on_toronto
        << " manhattan=" << *on_manhattan;
  }
}

TEST(PackFleet, BestEfsExcludesDevicesTheJobCannotFitOn) {
  // A 5-qubit job next to a 4-qubit device: BestEfs must route it to the
  // big device even when the small one scores better for tiny jobs, and a
  // job that fits nowhere is unplaceable.
  TestFleet fleet({make_line_device(4, 3), make_grid_device(3, 3, 4)});
  const QucpPartitioner partitioner;
  std::vector<PackJob> jobs;
  jobs.push_back(make_job(0, {5, 4, 4}, 1));   // only fits the grid
  jobs.push_back(make_job(1, {2, 1, 1}, 2));   // fits both
  jobs.push_back(make_job(2, {12, 6, 6}, 3));  // fits neither
  BestEfsPolicy policy;
  const FleetPlan plan =
      pack_fleet(fleet.slots, jobs, partitioner, PackOptions{}, &policy);
  EXPECT_EQ(plan.unplaceable, (std::vector<std::size_t>{2}));
  bool wide_on_grid = false;
  for (const PackedBatch& batch : plan.batches[1]) {
    wide_on_grid |= std::count(batch.jobs.begin(), batch.jobs.end(), 0u) > 0;
  }
  EXPECT_TRUE(wide_on_grid);
}

TEST(PackFleet, ThresholdSpillsCrossDeviceBeforeDeferring) {
  // tau = 0 (§IV-B: no EFS degradation allowed) on two IDENTICAL devices:
  // BestEfs scores tie, so both copies of a job prefer slot 0. The second
  // copy cannot join the first copy's batch (co-location on an 8-qubit
  // line forces adjacent partitions, i.e. crosstalk EFS degradation), but
  // it CAN open the other device's empty batch in the same round — a
  // cross-device spill instead of a deferred batch.
  TestFleet fleet({make_line_device(8, 3), make_line_device(8, 3)});
  const QucpPartitioner partitioner;
  std::vector<PackJob> jobs;
  for (std::size_t i = 0; i < 2; ++i) {
    jobs.push_back(make_job(i, {4, 6, 4}, 77));  // same circuit fingerprint
  }
  BestEfsPolicy policy;
  PackOptions opts;
  opts.efs_threshold = 0.0;
  const FleetPlan plan =
      pack_fleet(fleet.slots, jobs, partitioner, opts, &policy);
  // One batch per device, one job each, in a single round.
  ASSERT_EQ(plan.batches[0].size(), 1u);
  ASSERT_EQ(plan.batches[1].size(), 1u);
  EXPECT_EQ(plan.batches[0][0].jobs, (std::vector<std::size_t>{0}));
  EXPECT_EQ(plan.batches[1][0].jobs, (std::vector<std::size_t>{1}));
  EXPECT_TRUE(plan.unplaceable.empty());
  EXPECT_GE(plan.spill_events, 1u);
  EXPECT_EQ(plan.cross_device_spills, 1u);
}

TEST(PackFleet, InitialBacklogSizeIsValidated) {
  TestFleet fleet({make_line_device(8, 3), make_line_device(8, 3)});
  const QucpPartitioner partitioner;
  const std::vector<PackJob> jobs = {make_job(0, {2, 1, 2}, 1)};
  const std::vector<double> short_backlog = {1.0};
  EXPECT_THROW((void)pack_fleet(fleet.slots, jobs, partitioner, PackOptions{},
                                nullptr, short_backlog),
               std::invalid_argument);
  const std::vector<double> exact = {1.0, 2.0};
  EXPECT_NO_THROW((void)pack_fleet(fleet.slots, jobs, partitioner,
                                   PackOptions{}, nullptr, exact));
}

TEST(PackFleet, WaitAccountingMatchesHandComputation) {
  // Single slot, batch cap 2, three identical jobs behind a 5s backlog:
  // jobs 0 and 1 join the first batch (modeled wait = the backlog), job 2
  // opens a second one behind the first batch's modeled execution. Every
  // number in the plan's accounting is recomputable from modeled_exec_ns
  // and job_runtime_s alone.
  const Device device = make_line_device(10);
  const QucpPartitioner partitioner;
  const ProgramShape shape{2, 1, 2};
  std::vector<PackJob> jobs;
  for (std::size_t i = 0; i < 3; ++i) jobs.push_back(make_job(i, shape, i));
  std::map<std::uint64_t, double> cache;
  const FleetSlot slot{&device, nullptr, &cache};
  PackOptions opts;
  opts.max_batch_size = 2;
  const std::vector<double> backlog = {5.0};
  const FleetPlan plan =
      pack_fleet(std::span<const FleetSlot>(&slot, 1), jobs, partitioner,
                 opts, nullptr, backlog);

  RuntimeModel model = opts.runtime;
  model.queue_depth = 0;  // queueing is what the estimates model
  const double exec_s =
      job_runtime_s(model, modeled_exec_ns(device, shape));
  ASSERT_EQ(plan.batches[0].size(), 2u);
  ASSERT_EQ(plan.batch_exec_s[0].size(), 2u);
  EXPECT_DOUBLE_EQ(plan.batch_exec_s[0][0], exec_s);
  EXPECT_DOUBLE_EQ(plan.batch_exec_s[0][1], exec_s);
  // Waits at admission: 5.0 + 5.0 + (5.0 + exec_s).
  EXPECT_DOUBLE_EQ(plan.wait_sum_s[0], 15.0 + exec_s);
  EXPECT_DOUBLE_EQ(plan.wait_max_s[0], 5.0 + exec_s);

  // Without a backlog the first batch's jobs wait zero.
  const FleetPlan idle =
      pack_fleet(std::span<const FleetSlot>(&slot, 1), jobs, partitioner,
                 opts, nullptr);
  EXPECT_DOUBLE_EQ(idle.wait_sum_s[0], exec_s);
  EXPECT_DOUBLE_EQ(idle.wait_max_s[0], exec_s);
}

TEST(FleetView, ExpectedLatencyScoresMatchHandComputation) {
  // Two identical devices; lane 0 carries a 50s backlog plus a full open
  // batch, lane 1 an open batch with room. The score decomposition
  // (drain + runtime of the batch the job would join) must follow
  // fleet.hpp's documented semantics exactly.
  TestFleet fleet({make_line_device(10, 3), make_line_device(10, 3)});
  const QucpPartitioner partitioner;
  const PackJob job = make_job(0, {2, 1, 2}, 9);
  RuntimeModel model;
  model.queue_depth = 0;
  const double own_ns = modeled_exec_ns(fleet.devices[0], job.shape);

  std::vector<LaneEstimate> lanes(2);
  lanes[0].initial_backlog_s = 50.0;
  lanes[0].open_jobs = 2;  // full at max_batch_size = 2
  lanes[0].open_max_ns = 4 * own_ns;
  lanes[1].open_jobs = 1;  // room for one more
  lanes[1].open_max_ns = 3 * own_ns;
  const FleetView view(fleet.slots, partitioner, lanes, &model, 2);

  EXPECT_DOUBLE_EQ(view.drain_estimate_s(0), 50.0);
  EXPECT_DOUBLE_EQ(view.drain_estimate_s(1), 0.0);
  EXPECT_EQ(view.open_jobs(0), 2);
  // Slot 0: wait behind backlog AND the full open batch, then run alone.
  EXPECT_DOUBLE_EQ(view.expected_latency_s(0, job),
                   50.0 + job_runtime_s(model, 4 * own_ns) +
                       job_runtime_s(model, own_ns));
  // Slot 1: join the open batch; its slower co-runner bounds the runtime.
  EXPECT_DOUBLE_EQ(view.expected_latency_s(1, job),
                   job_runtime_s(model, 3 * own_ns));

  ExpectedLatencyPolicy policy;
  std::vector<std::size_t> order;
  policy.preference(view, job, order);
  EXPECT_EQ(order, (std::vector<std::size_t>{1, 0}));

  // An idle view (no lanes) reports zero queues and ties to slot id.
  const FleetView idle(fleet.slots, partitioner);
  EXPECT_DOUBLE_EQ(idle.drain_estimate_s(0), 0.0);
  policy.preference(idle, job, order);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1}));
}

TEST(PackFleet, ExpectedLatencyRoutesAroundBacklog) {
  // Identical devices, lane 0 pre-loaded with 1000 modeled seconds: the
  // queue-aware policy prefers lane 1 for every job, so the first open
  // batch fills there and lane 0 stays empty. The THIRD job finds its
  // preferred batch full — because the policy is queue_aware(), the round
  // engine DEFERS it to the next round instead of overflowing onto the
  // catastrophically backlogged lane (for a queue-aware order every later
  // preference is modeled slower than waiting), so it opens lane 1's
  // second batch and lane 0 still plans nothing.
  TestFleet fleet({make_line_device(8, 3), make_line_device(8, 3)});
  const QucpPartitioner partitioner;
  std::vector<PackJob> jobs;
  for (std::size_t i = 0; i < 3; ++i) {
    jobs.push_back(make_job(i, {2, 1, 2}, 700 + i));
  }
  ExpectedLatencyPolicy policy;
  PackOptions opts;
  opts.max_batch_size = 2;
  const std::vector<double> backlog = {1000.0, 0.0};
  const FleetPlan plan =
      pack_fleet(fleet.slots, jobs, partitioner, opts, &policy, backlog);
  EXPECT_TRUE(plan.batches[0].empty());
  ASSERT_EQ(plan.batches[1].size(), 2u);
  EXPECT_EQ(plan.batches[1][0].jobs, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(plan.batches[1][1].jobs, (std::vector<std::size_t>{2}));
  EXPECT_TRUE(plan.unplaceable.empty());
  EXPECT_EQ(plan.cross_device_spills, 0u);
  // The deferral is queueing, not a fidelity spill.
  EXPECT_EQ(plan.spill_events, 0u);

  // Same stream under a time-blind policy on identical devices: BestEfs
  // ties to slot 0, jobs 0-1 fill its batch, and job 2 — no deferral
  // semantics — overflows to slot 1 within the round (queueing, not a
  // spill). Pins that queue_aware() alone gates the new behavior.
  TestFleet blind_fleet({make_line_device(8, 3), make_line_device(8, 3)});
  BestEfsPolicy blind;
  const FleetPlan blind_plan = pack_fleet(blind_fleet.slots, jobs, partitioner,
                                          opts, &blind, backlog);
  ASSERT_EQ(blind_plan.batches[0].size(), 1u);
  EXPECT_EQ(blind_plan.batches[0][0].jobs, (std::vector<std::size_t>{0, 1}));
  ASSERT_EQ(blind_plan.batches[1].size(), 1u);
  EXPECT_EQ(blind_plan.batches[1][0].jobs, (std::vector<std::size_t>{2}));
  EXPECT_EQ(blind_plan.cross_device_spills, 0u);
}

TEST(PackFleet, ReservationLaneClaimsTheEmptiestChip) {
  // An exclusive job idles a whole chip for its round, so the reservation
  // lane re-sorts the policy's preferences by ascending modeled drain:
  // identical devices tie under BestEfs (slot 0 first), but with lane 0
  // backlogged the reservation goes to idle lane 1 and the plan records
  // the (zero) wait it was admitted behind. The non-exclusive co-stream
  // still lands by policy order, and the reserved chip admits nobody else
  // in that round.
  TestFleet fleet({make_line_device(8, 3), make_line_device(8, 3)});
  const QucpPartitioner partitioner;
  std::vector<PackJob> jobs;
  jobs.push_back(make_job(0, {2, 1, 2}, 900, true));   // exclusive
  jobs.push_back(make_job(1, {2, 1, 2}, 901, false));
  jobs.push_back(make_job(2, {2, 1, 2}, 902, false));
  BestEfsPolicy policy;
  PackOptions opts;
  opts.max_batch_size = 4;
  const std::vector<double> backlog = {50.0, 0.0};
  const FleetPlan plan =
      pack_fleet(fleet.slots, jobs, partitioner, opts, &policy, backlog);
  // Reservation on the idle chip, alone; the rest share backlogged lane 0
  // (BestEfs is time-blind, ties to the lowest id).
  ASSERT_EQ(plan.batches[1].size(), 1u);
  EXPECT_EQ(plan.batches[1][0].jobs, (std::vector<std::size_t>{0}));
  ASSERT_EQ(plan.batches[0].size(), 1u);
  EXPECT_EQ(plan.batches[0][0].jobs, (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(plan.reservation_jobs, 1u);
  EXPECT_DOUBLE_EQ(plan.reservation_wait_sum_s, 0.0);
  EXPECT_DOUBLE_EQ(plan.reservation_wait_max_s, 0.0);

  // Both lanes backlogged: the reservation waits behind the smaller drain
  // and the accounting records exactly that wait.
  TestFleet busy({make_line_device(8, 3), make_line_device(8, 3)});
  BestEfsPolicy policy2;
  const std::vector<double> both = {50.0, 20.0};
  const std::vector<PackJob> solo = {make_job(0, {2, 1, 2}, 900, true)};
  const FleetPlan busy_plan =
      pack_fleet(busy.slots, solo, partitioner, opts, &policy2, both);
  ASSERT_EQ(busy_plan.batches[1].size(), 1u);
  EXPECT_EQ(busy_plan.reservation_jobs, 1u);
  EXPECT_DOUBLE_EQ(busy_plan.reservation_wait_sum_s, 20.0);
  EXPECT_DOUBLE_EQ(busy_plan.reservation_wait_max_s, 20.0);
}

TEST(PackFleet, TimeBlindPoliciesIgnoreBacklog) {
  // The lane estimates exist for ExpectedLatency and the wait accounting;
  // RoundRobin/LeastLoaded/BestEfs must plan the identical batches with or
  // without a lopsided backlog (single-backend golden paths depend on it).
  TestFleet fleet({make_toronto27(), make_manhattan65()});
  const QucpPartitioner partitioner;
  std::vector<PackJob> jobs;
  for (std::size_t i = 0; i < 9; ++i) {
    jobs.push_back(make_job(i, {2 + static_cast<int>(i % 4), 3, 4}, 300 + i));
  }
  PackOptions opts;
  opts.max_batch_size = 3;
  const std::vector<double> backlog = {500.0, 0.0};
  for (const RoutePolicy kind : {RoutePolicy::RoundRobin,
                                 RoutePolicy::LeastLoaded,
                                 RoutePolicy::BestEfs}) {
    const auto without = make_routing_policy(kind);
    const FleetPlan a =
        pack_fleet(fleet.slots, jobs, partitioner, opts, without.get());
    const auto with = make_routing_policy(kind);
    const FleetPlan b =
        pack_fleet(fleet.slots, jobs, partitioner, opts, with.get(), backlog);
    ASSERT_EQ(a.batches.size(), b.batches.size());
    for (std::size_t s = 0; s < a.batches.size(); ++s) {
      ASSERT_EQ(a.batches[s].size(), b.batches[s].size())
          << route_policy_name(kind);
      for (std::size_t i = 0; i < a.batches[s].size(); ++i) {
        EXPECT_EQ(a.batches[s][i].jobs, b.batches[s][i].jobs)
            << route_policy_name(kind);
      }
    }
    // The backlog still shifts the modeled waits, decisions aside.
    EXPECT_GE(b.wait_max_s[0], a.wait_max_s[0]) << route_policy_name(kind);
  }
}

std::vector<Device> bundled_topologies() {
  std::vector<Device> devices;
  devices.push_back(make_melbourne16());
  devices.push_back(make_toronto27());
  devices.push_back(make_manhattan65());
  devices.push_back(make_line_device(9));
  devices.push_back(make_grid_device(4, 5));
  return devices;
}

std::vector<std::unique_ptr<Partitioner>> candidate_partitioners(
    const Device& device, Rng& rng) {
  std::vector<std::unique_ptr<Partitioner>> out;
  out.push_back(std::make_unique<QucpPartitioner>(4.0));
  CrosstalkModel estimates;
  for (const auto& [e1, e2] : device.topology().one_hop_edge_pairs()) {
    if (rng.bernoulli(0.5)) {
      estimates.add_pair(e1, e2, rng.uniform(1.0, 8.0));
    }
  }
  out.push_back(std::make_unique<QumcPartitioner>(std::move(estimates)));
  out.push_back(std::make_unique<QucloudPartitioner>());
  out.push_back(std::make_unique<MultiqcPartitioner>());
  return out;
}

/// Full-plan bit-identity: every decision AND every accounting double.
/// EXPECT_EQ on the double vectors is deliberate — the incremental
/// admission probe claims bit-identity, not closeness.
void expect_plans_identical(const FleetPlan& a, const FleetPlan& b,
                            const std::string& context) {
  ASSERT_EQ(a.batches.size(), b.batches.size()) << context;
  for (std::size_t s = 0; s < a.batches.size(); ++s) {
    ASSERT_EQ(a.batches[s].size(), b.batches[s].size())
        << context << " slot " << s;
    for (std::size_t i = 0; i < a.batches[s].size(); ++i) {
      EXPECT_EQ(a.batches[s][i].jobs, b.batches[s][i].jobs)
          << context << " slot " << s << " batch " << i;
    }
    EXPECT_EQ(a.batch_exec_s[s], b.batch_exec_s[s]) << context << " slot "
                                                    << s;
  }
  EXPECT_EQ(a.unplaceable, b.unplaceable) << context;
  EXPECT_EQ(a.spill_events, b.spill_events) << context;
  EXPECT_EQ(a.cross_device_spills, b.cross_device_spills) << context;
  EXPECT_EQ(a.wait_sum_s, b.wait_sum_s) << context;
  EXPECT_EQ(a.wait_max_s, b.wait_max_s) << context;
  EXPECT_EQ(a.reservation_jobs, b.reservation_jobs) << context;
  EXPECT_EQ(a.reservation_wait_sum_s, b.reservation_wait_sum_s) << context;
  EXPECT_EQ(a.reservation_wait_max_s, b.reservation_wait_max_s) << context;
}

std::vector<PackJob> random_pack_jobs(Rng& rng, int max_qubits) {
  std::vector<PackJob> jobs;
  const int n = static_cast<int>(rng.integer(1, 12));
  for (int i = 0; i < n; ++i) {
    ProgramShape s;
    s.num_qubits = static_cast<int>(rng.integer(1, max_qubits));
    s.num_2q = s.num_qubits >= 2 ? static_cast<int>(rng.integer(0, 20)) : 0;
    s.num_1q = static_cast<int>(rng.integer(0, 20));
    jobs.push_back(make_job(static_cast<std::size_t>(i), s, rng.next_u64(),
                            rng.bernoulli(0.2)));
  }
  return jobs;
}

TEST(PackFleet, IncrementalAdmissionBitIdenticalOnAllTopologies) {
  // Golden A/B for the grow-one admission probe: a slot carrying the
  // backend's CandidateIndex (incremental probes) must reproduce an
  // index-less slot (from-scratch re-allocation per probe) bit for bit —
  // same batches, same spill stream, same modeled-seconds doubles, same
  // solo-EFS cache fills — over randomized job streams (exclusive jobs and
  // tight EFS thresholds included) on every bundled topology, for every
  // candidate partitioner (with and without grow_one support).
  // test_allocator_golden pins indexed == index-less allocation itself.
  Rng rng(20260808);
  for (const Device& device : bundled_topologies()) {
    CandidateIndex index(device);  // persists across trials, like Backend's
    const int max_qubits = std::min(6, device.num_qubits());
    auto partitioners = candidate_partitioners(device, rng);
    for (int trial = 0; trial < 4; ++trial) {
      const std::vector<PackJob> jobs = random_pack_jobs(rng, max_qubits);
      PackOptions opts;
      opts.max_batch_size = static_cast<int>(rng.integer(1, 5));
      if (rng.bernoulli(0.5)) opts.efs_threshold = rng.uniform(0.0, 0.4);
      for (const auto& partitioner : partitioners) {
        const std::string context = device.name() + "/" +
                                    std::string(partitioner->name()) +
                                    "/trial" + std::to_string(trial);
        std::map<std::uint64_t, double> cache_ref;
        std::map<std::uint64_t, double> cache_inc;
        const FleetSlot slot_ref{&device, nullptr, &cache_ref};
        const FleetSlot slot_inc{&device, &index, &cache_inc};
        const FleetPlan reference =
            pack_fleet(std::span<const FleetSlot>(&slot_ref, 1), jobs,
                       *partitioner, opts, nullptr);
        const FleetPlan incremental =
            pack_fleet(std::span<const FleetSlot>(&slot_inc, 1), jobs,
                       *partitioner, opts, nullptr);
        expect_plans_identical(reference, incremental, context);
        EXPECT_EQ(cache_ref, cache_inc) << context;
      }
    }
  }
}

TEST(PackFleet, IncrementalAdmissionBitIdenticalAcrossPoliciesAndBacklogs) {
  // Same A/B over a heterogeneous multi-slot fleet under every routing
  // policy (and the policy-less id-order engine), with lopsided modeled
  // backlogs so the queue-aware path and the reservation lane are
  // exercised: the probe must not shift a single routing decision, spill,
  // or wait/reservation double.
  Rng rng(8088);
  const QucpPartitioner partitioner;
  for (int trial = 0; trial < 5; ++trial) {
    const std::vector<PackJob> jobs = random_pack_jobs(rng, 6);
    PackOptions opts;
    opts.max_batch_size = static_cast<int>(rng.integer(1, 4));
    if (rng.bernoulli(0.5)) opts.efs_threshold = rng.uniform(0.0, 0.4);
    const std::vector<double> backlog = {rng.uniform(0.0, 100.0),
                                         rng.uniform(0.0, 100.0), 0.0};
    for (const bool use_policy : {false, true}) {
      for (const RoutePolicy kind : {RoutePolicy::RoundRobin,
                                     RoutePolicy::LeastLoaded,
                                     RoutePolicy::BestEfs,
                                     RoutePolicy::ExpectedLatency}) {
        const std::string context =
            "trial" + std::to_string(trial) + "/" +
            (use_policy ? std::string(route_policy_name(kind)) : "id-order");
        auto run = [&](bool indexed) {
          TestFleet fleet({make_toronto27(), make_line_device(9),
                           make_grid_device(4, 5)},
                          indexed);
          const auto policy = use_policy ? make_routing_policy(kind) : nullptr;
          return pack_fleet(fleet.slots, jobs, partitioner, opts, policy.get(),
                            backlog);
        };
        const FleetPlan reference = run(false);
        const FleetPlan incremental = run(true);
        expect_plans_identical(reference, incremental, context);
        if (!use_policy) break;  // the id-order arm has no policy kinds
      }
    }
  }
}

TEST(FleetScheduler, SingleBackendBypassesPolicy) {
  BackendRegistry single(std::vector<Device>{make_toronto27()});
  FleetScheduler scheduler(single, RoutePolicy::BestEfs);
  EXPECT_EQ(scheduler.policy(), nullptr);

  BackendRegistry pair(
      std::vector<Device>{make_toronto27(), make_manhattan65()});
  FleetScheduler fleet_scheduler(pair, RoutePolicy::BestEfs);
  ASSERT_NE(fleet_scheduler.policy(), nullptr);
  EXPECT_EQ(fleet_scheduler.policy()->name(), "BestEfs");

  const BackendRegistry empty;
  EXPECT_THROW(FleetScheduler(empty, RoutePolicy::RoundRobin),
               std::invalid_argument);
}

}  // namespace
}  // namespace qucp
