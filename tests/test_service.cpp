// Tests for the asynchronous ExecutionService: packing, threshold spill,
// worker-pool concurrency, determinism under concurrent submission, the
// transpilation cache, and bit-identity of the run_parallel() shim.

#include "service/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "benchmarks/suite.hpp"
#include "common/rng.hpp"
#include "core/runtime.hpp"

namespace qucp {
namespace {

const char* kMix[] = {"adder", "fred", "lin", "4mod",
                      "bell",  "qec",  "alu", "var"};

Circuit mix_circuit(std::size_t i) {
  return get_benchmark(kMix[i % std::size(kMix)]).circuit;
}

/// The partitions run_batch_pipeline executes `programs` on: allocate_batch
/// on the epoch's candidate index, as the fleet plan and run_parallel() do.
std::vector<PartitionAssignment> batch_assignments(
    const CalibrationEpoch& epoch, const std::vector<Circuit>& programs,
    const ParallelOptions& opts) {
  const auto partitioner =
      make_partitioner(opts.method, opts.sigma, opts.srb_estimates);
  std::vector<ProgramShape> shapes;
  for (const Circuit& c : programs) shapes.push_back(shape_of(c));
  return allocate_batch(epoch.device(), *partitioner, shapes,
                        &epoch.candidate_index())
      .value();
}

/// Two disconnected 4-qubit lines. A 5-qubit circuit passes submit()'s
/// width check (8 qubits), but no connected 5-qubit partition exists, so
/// only the fleet plan finds that it does not fit.
Device make_split_device(std::uint64_t seed) {
  Topology topo(8, {{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}, {6, 7}});
  CalibrationProfile profile;
  profile.bad_edge_fraction = 0.0;
  profile.bad_readout_fraction = 0.0;
  Calibration cal =
      synthesize_calibration(topo, profile, Rng(seed).derive("split-cal"));
  return Device("split8", std::move(topo), std::move(cal), CrosstalkModel{});
}

ServiceOptions fast_service_options() {
  ServiceOptions opts;
  opts.exec.shots = 128;
  opts.num_workers = 4;
  opts.max_batch_size = 4;
  return opts;
}

/// Comparable digest of one job's outcome, including where it ran: the
/// determinism contract covers routing decisions and per-backend batch
/// assignments, not just per-job results.
struct Outcome {
  std::vector<int> partition;
  std::vector<Counts::Entry> counts;
  double pst = 0.0;
  double jsd = 0.0;
  int backend_id = 0;
  std::uint64_t batch_index = 0;

  [[nodiscard]] bool operator==(const Outcome& other) const = default;
};

Outcome outcome_of(const JobHandle& handle) {
  const JobResult& r = handle.result();
  return {r.report.partition, r.report.counts.data(), r.report.pst_value,
          r.report.jsd_value,  r.batch.backend_id,   r.batch.batch_index};
}

/// Submit `n` jobs with unique names "job<i>" and return name -> outcome.
std::map<std::string, Outcome> run_jobs(ExecutionService& service, int n,
                                        int num_submit_threads,
                                        bool reversed = false) {
  std::vector<JobHandle> handles(static_cast<std::size_t>(n));
  if (num_submit_threads <= 1) {
    for (int i = 0; i < n; ++i) {
      const int idx = reversed ? n - 1 - i : i;
      JobOptions jopts;
      jopts.name = "job" + std::to_string(idx);
      handles[idx] = service.submit(mix_circuit(idx), jopts);
    }
  } else {
    std::vector<std::thread> threads;
    std::atomic<int> next{0};
    for (int t = 0; t < num_submit_threads; ++t) {
      threads.emplace_back([&] {
        for (int i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
          JobOptions jopts;
          jopts.name = "job" + std::to_string(i);
          handles[i] = service.submit(mix_circuit(i), jopts);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  service.flush();
  std::map<std::string, Outcome> outcomes;
  for (const JobHandle& h : handles) outcomes[h.name()] = outcome_of(h);
  return outcomes;
}

TEST(ExecutionService, DrainsSixtyFourJobsFromFourThreads) {
  ExecutionService service(make_toronto27(), fast_service_options());
  const auto outcomes = run_jobs(service, 64, 4);
  ASSERT_EQ(outcomes.size(), 64u);
  for (const auto& [name, out] : outcomes) {
    EXPECT_FALSE(out.partition.empty()) << name;
    int total = 0;
    for (const auto& [bits, count] : out.counts) total += count;
    EXPECT_EQ(total, 128) << name;
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_submitted, 64u);
  EXPECT_EQ(stats.jobs_completed, 64u);
  EXPECT_EQ(stats.jobs_failed, 0u);
  EXPECT_GE(stats.batches_executed, 16u);  // max_batch_size = 4
  // 8 distinct circuits land on a handful of partitions: the cache must
  // carry most of the 64 transpilations.
  EXPECT_GT(stats.transpile_cache.hits, 0u);
}

TEST(ExecutionService, DeterministicAcrossSubmissionInterleavings) {
  // Same 64 jobs (unique names), submitted serially, serially in reverse,
  // and from 4 racing threads: with canonical ordering and a fixed seed
  // every handle must observe the identical result.
  ExecutionService serial(make_toronto27(), fast_service_options());
  const auto base = run_jobs(serial, 64, 1);

  ExecutionService reversed(make_toronto27(), fast_service_options());
  EXPECT_EQ(run_jobs(reversed, 64, 1, /*reversed=*/true), base);

  ExecutionService threaded(make_toronto27(), fast_service_options());
  EXPECT_EQ(run_jobs(threaded, 64, 4), base);
}

TEST(ExecutionService, ShimIsBitIdenticalToDirectPipeline) {
  // run_parallel() must reproduce the pre-service facade exactly: same
  // partitions, same sampled counts, same metrics. The direct pipeline
  // call below is the historical code path (partition -> transpile ->
  // execute -> score) on a fresh backend.
  const Device d = make_toronto27();
  std::vector<Circuit> programs{get_benchmark("adder").circuit,
                                get_benchmark("fred").circuit,
                                get_benchmark("alu").circuit};
  ParallelOptions opts;
  opts.exec.shots = 256;

  Backend backend(d);
  const BatchReport direct = run_batch_pipeline(
      *backend.epoch(), programs,
      batch_assignments(*backend.epoch(), programs, opts), {}, opts);
  const BatchReport shim = run_parallel(d, programs, opts);

  ASSERT_EQ(shim.programs.size(), direct.programs.size());
  for (std::size_t i = 0; i < shim.programs.size(); ++i) {
    EXPECT_EQ(shim.programs[i].name, direct.programs[i].name);
    EXPECT_EQ(shim.programs[i].partition, direct.programs[i].partition);
    EXPECT_EQ(shim.programs[i].final_layout, direct.programs[i].final_layout);
    EXPECT_EQ(shim.programs[i].swaps_added, direct.programs[i].swaps_added);
    EXPECT_DOUBLE_EQ(shim.programs[i].efs, direct.programs[i].efs);
    EXPECT_EQ(shim.programs[i].counts.data(), direct.programs[i].counts.data());
    EXPECT_DOUBLE_EQ(shim.programs[i].pst_value, direct.programs[i].pst_value);
    EXPECT_DOUBLE_EQ(shim.programs[i].jsd_value, direct.programs[i].jsd_value);
  }
  EXPECT_DOUBLE_EQ(shim.makespan_ns, direct.makespan_ns);
  EXPECT_DOUBLE_EQ(shim.throughput, direct.throughput);
  EXPECT_EQ(shim.crosstalk_events, direct.crosstalk_events);
  EXPECT_DOUBLE_EQ(shim.runtime_reduction, direct.runtime_reduction);
}

TEST(ExecutionService, ZeroThresholdForcesIndependentExecution) {
  // tau = 0 (paper §IV-B): a co-placement may not degrade EFS at all, so
  // four copies of the same CX-heavy program run one per batch.
  ServiceOptions opts = fast_service_options();
  opts.efs_threshold = 0.0;
  ExecutionService service(make_toronto27(), opts);
  std::vector<JobHandle> handles;
  for (int i = 0; i < 4; ++i) {
    JobOptions jopts;
    jopts.name = "alu" + std::to_string(i);
    handles.push_back(service.submit(get_benchmark("alu").circuit, jopts));
  }
  service.flush();
  for (const JobHandle& h : handles) {
    EXPECT_EQ(h.result().batch.batch_size, 1u);
  }
  EXPECT_EQ(service.stats().batches_executed, 4u);
  EXPECT_GT(service.stats().spill_events, 0u);
}

TEST(ExecutionService, GenerousThresholdPacksOneBatch) {
  ServiceOptions opts = fast_service_options();
  ExecutionService service(make_toronto27(), opts);
  std::vector<JobHandle> handles;
  for (int i = 0; i < 4; ++i) {
    JobOptions jopts;
    jopts.name = "alu" + std::to_string(i);
    handles.push_back(service.submit(get_benchmark("alu").circuit, jopts));
  }
  service.flush();
  for (const JobHandle& h : handles) {
    EXPECT_EQ(h.result().batch.batch_size, 4u);
    EXPECT_GT(h.result().batch.runtime_reduction, 1.5);
  }
  EXPECT_EQ(service.stats().batches_executed, 1u);
}

TEST(ExecutionService, ExclusiveJobRunsAlone) {
  ExecutionService service(make_toronto27(), fast_service_options());
  JobOptions exclusive;
  exclusive.name = "solo";
  exclusive.exclusive = true;
  const JobHandle solo =
      service.submit(get_benchmark("adder").circuit, exclusive);
  std::vector<JobHandle> rest;
  for (int i = 0; i < 3; ++i) {
    rest.push_back(service.submit(get_benchmark("bell").circuit));
  }
  service.flush();
  EXPECT_EQ(solo.result().batch.batch_size, 1u);
  for (const JobHandle& h : rest) {
    EXPECT_EQ(h.result().batch.batch_size, 3u);
  }
}

TEST(ExecutionService, UnplaceableJobFailsOthersSurvive) {
  ServiceOptions opts = fast_service_options();
  ExecutionService service(make_split_device(7), opts);
  const JobHandle big =
      service.submit(get_benchmark("alu").circuit);  // 5 qubits > 4 + 4
  const JobHandle small = service.submit(get_benchmark("bell").circuit);
  service.flush();
  EXPECT_EQ(big.status(), JobStatus::Failed);
  EXPECT_NE(big.error().find("does not fit"), std::string::npos);
  EXPECT_THROW((void)big.result(), std::runtime_error);
  EXPECT_EQ(small.status(), JobStatus::Done);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_failed, 1u);
  EXPECT_EQ(stats.jobs_completed, 1u);
}

TEST(ExecutionService, StatusLifecycleAndShutdown) {
  ExecutionService service(make_toronto27(), fast_service_options());
  const JobHandle job = service.submit(get_benchmark("bell").circuit);
  EXPECT_EQ(job.status(), JobStatus::Queued);
  EXPECT_FALSE(job.finished());
  service.flush();
  EXPECT_EQ(job.status(), JobStatus::Done);
  EXPECT_TRUE(job.finished());
  EXPECT_TRUE(job.wait_for(std::chrono::milliseconds(1)));

  // More work after a flush is fine; submit after shutdown is not.
  const JobHandle second = service.submit(get_benchmark("bell").circuit);
  service.shutdown();
  EXPECT_EQ(second.status(), JobStatus::Done);
  EXPECT_THROW((void)service.submit(get_benchmark("bell").circuit),
               std::runtime_error);
  service.shutdown();  // idempotent
}

TEST(ExecutionService, AutoFlushDispatchesWithoutExplicitFlush) {
  ServiceOptions opts = fast_service_options();
  opts.auto_flush_batch_size = 4;
  ExecutionService service(make_toronto27(), opts);
  std::vector<JobHandle> handles;
  for (int i = 0; i < 4; ++i) {
    handles.push_back(service.submit(get_benchmark("bell").circuit));
  }
  for (const JobHandle& h : handles) {
    EXPECT_TRUE(h.wait_for(std::chrono::seconds(30)));
    EXPECT_EQ(h.status(), JobStatus::Done);
  }
  EXPECT_EQ(service.pending_jobs(), 0u);
}

TEST(ExecutionService, QumcWithoutEstimatesThrowsAtConstruction) {
  ServiceOptions opts = fast_service_options();
  opts.method = Method::QuMC;
  EXPECT_THROW(ExecutionService(make_toronto27(), opts),
               std::invalid_argument);
}

/// The single-device packer: a one-slot pack_fleet, which never consults
/// its routing policy.
FleetPlan pack_one_slot(const FleetSlot& slot, std::span<const PackJob> jobs,
                        const Partitioner& partitioner,
                        const PackOptions& options) {
  RoutingPolicy policy(RoutePolicy::BestEfs);
  return pack_fleet(std::span<const FleetSlot>(&slot, 1), jobs, partitioner,
                    options, policy);
}

TEST(Packer, PartialTailBatchAndOrder) {
  // 5 equal jobs, batches of 4: the tail batch has 1 job — the non-multiple
  // case the old examples/cloud_queue.cpp slicing read past the end on.
  const Device d = make_toronto27();
  const auto partitioner = make_partitioner(Method::QuCP, 4.0, std::nullopt);
  const ProgramShape shape = shape_of(get_benchmark("bell").circuit);
  std::vector<PackJob> jobs;
  for (std::size_t i = 0; i < 5; ++i) jobs.push_back({i, shape, i, false});
  SoloEfsMemo cache;
  const FleetSlot slot{&d, nullptr, &cache};
  const FleetPlan packed =
      pack_one_slot(slot, jobs, *partitioner, PackOptions{});
  const std::vector<PackedBatch>& batches = packed.batches[0];
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].jobs, (std::vector<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(batches[1].jobs, (std::vector<std::size_t>{4}));
  EXPECT_TRUE(packed.unplaceable.empty());
}

TEST(Packer, SpillsWhatDoesNotFitTogether) {
  // Three 5-qubit programs on a 12-qubit line with first-fit packing: two
  // fit side by side, the third spills to a second batch instead of
  // failing the whole queue. (Naive is used because its left-to-right
  // first-fit makes the packing geometry exact; the EFS partitioners may
  // fragment the line.)
  const Device d = make_line_device(12);
  const auto partitioner = make_partitioner(Method::Naive, 4.0, std::nullopt);
  const ProgramShape shape = shape_of(get_benchmark("alu").circuit);
  std::vector<PackJob> jobs;
  for (std::size_t i = 0; i < 3; ++i) jobs.push_back({i, shape, i, false});
  SoloEfsMemo cache;
  const FleetSlot slot{&d, nullptr, &cache};
  const FleetPlan packed =
      pack_one_slot(slot, jobs, *partitioner, PackOptions{});
  const std::vector<PackedBatch>& batches = packed.batches[0];
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].jobs.size(), 2u);
  EXPECT_EQ(batches[1].jobs.size(), 1u);
  EXPECT_GT(packed.spill_events, 0u);
}

TEST(Packer, SpilledJobsKeepFifoOrderBehindRepeatedlyFullBatches) {
  // Five device-filling 5-qubit jobs on a 12-qubit line: only two fit per
  // batch, so jobs 2..4 spill repeatedly. A spilled job must neither
  // starve nor reorder: every job appears exactly once, batches hold
  // consecutive queue positions, and first-dispatch order is arrival
  // order.
  const Device d = make_line_device(12);
  const auto partitioner = make_partitioner(Method::Naive, 4.0, std::nullopt);
  const ProgramShape shape = shape_of(get_benchmark("alu").circuit);
  std::vector<PackJob> jobs;
  for (std::size_t i = 0; i < 5; ++i) jobs.push_back({i, shape, i, false});
  SoloEfsMemo cache;
  const FleetSlot slot{&d, nullptr, &cache};
  const FleetPlan packed =
      pack_one_slot(slot, jobs, *partitioner, PackOptions{});
  const std::vector<PackedBatch>& batches = packed.batches[0];
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_EQ(batches[0].jobs, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(batches[1].jobs, (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(batches[2].jobs, (std::vector<std::size_t>{4}));
  EXPECT_TRUE(packed.unplaceable.empty());
  // Job 2, 3, 4 each spill from batch 1; job 4 spills again from batch 2.
  EXPECT_EQ(packed.spill_events, 4u);
}

TEST(Packer, LateSmallJobMayOvertakeButSpilledJobsStayOrdered) {
  // Greedy in-queue-order packing lets a later job join an earlier batch
  // when it still fits (that is the throughput policy, not starvation):
  // with [5q, 5q, 5q, 2q] on a 12-qubit line, the trailing 2q job rides
  // in batch 1 past the spilled third 5q job, which still dispatches next
  // and exactly once.
  const Device d = make_line_device(12);
  const auto partitioner = make_partitioner(Method::Naive, 4.0, std::nullopt);
  const ProgramShape big = shape_of(get_benchmark("alu").circuit);
  const ProgramShape small{2, 1, 1};
  std::vector<PackJob> jobs{{0, big, 10, false},
                            {1, big, 11, false},
                            {2, big, 12, false},
                            {3, small, 13, false}};
  SoloEfsMemo cache;
  const FleetSlot slot{&d, nullptr, &cache};
  const FleetPlan packed =
      pack_one_slot(slot, jobs, *partitioner, PackOptions{});
  const std::vector<PackedBatch>& batches = packed.batches[0];
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].jobs, (std::vector<std::size_t>{0, 1, 3}));
  EXPECT_EQ(batches[1].jobs, (std::vector<std::size_t>{2}));
  EXPECT_EQ(packed.spill_events, 1u);
}

TEST(Packer, AccountingIsExactOverRandomizedStreams) {
  // Property: every job lands in exactly one batch or in unplaceable —
  // nothing is dropped or duplicated no matter how spills interleave.
  const Device d = make_line_device(10);
  const auto partitioner = make_partitioner(Method::QuCP, 4.0, std::nullopt);
  Rng rng(4242);
  for (int trial = 0; trial < 12; ++trial) {
    std::vector<PackJob> jobs;
    const int n = static_cast<int>(rng.integer(1, 14));
    for (int i = 0; i < n; ++i) {
      ProgramShape s;
      s.num_qubits = static_cast<int>(rng.integer(1, 12));  // some > device
      s.num_2q = s.num_qubits >= 2 ? static_cast<int>(rng.integer(0, 9)) : 0;
      s.num_1q = static_cast<int>(rng.integer(0, 9));
      jobs.push_back({static_cast<std::size_t>(i), s, rng.next_u64(),
                      rng.bernoulli(0.2)});
    }
    PackOptions opts;
    opts.max_batch_size = static_cast<int>(rng.integer(1, 4));
    SoloEfsMemo cache;
    const FleetSlot slot{&d, nullptr, &cache};
    const FleetPlan packed = pack_one_slot(slot, jobs, *partitioner, opts);
    const std::vector<PackedBatch>& batches = packed.batches[0];
    std::vector<std::size_t> seen;
    for (const PackedBatch& batch : batches) {
      EXPECT_FALSE(batch.jobs.empty()) << trial;
      EXPECT_LE(batch.jobs.size(),
                static_cast<std::size_t>(opts.max_batch_size))
          << trial;
      EXPECT_TRUE(std::is_sorted(batch.jobs.begin(), batch.jobs.end()))
          << trial;  // queue order within a batch
      seen.insert(seen.end(), batch.jobs.begin(), batch.jobs.end());
    }
    seen.insert(seen.end(), packed.unplaceable.begin(),
                packed.unplaceable.end());
    std::sort(seen.begin(), seen.end());
    std::vector<std::size_t> expected(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) expected[i] = i;
    EXPECT_EQ(seen, expected) << trial;
  }
}

TEST(Packer, ExclusiveJobThatCannotFitAloneIsUnplaceableNotSpilled) {
  // The exclusive path probes solo allocation before opening a batch: a
  // solo-allocation failure is terminal (unplaceable), never a spill, and
  // must not wedge the jobs queued behind it.
  const Device d = make_line_device(4);
  const auto partitioner = make_partitioner(Method::QuCP, 4.0, std::nullopt);
  const ProgramShape small{2, 1, 1};
  const ProgramShape huge{9, 4, 4};
  std::vector<PackJob> jobs{{0, small, 1, false},
                            {1, huge, 2, true},  // exclusive, cannot fit
                            {2, small, 3, false}};
  SoloEfsMemo cache;
  const FleetSlot slot{&d, nullptr, &cache};
  const FleetPlan packed =
      pack_one_slot(slot, jobs, *partitioner, PackOptions{});
  const std::vector<PackedBatch>& batches = packed.batches[0];
  EXPECT_EQ(packed.unplaceable, (std::vector<std::size_t>{1}));
  EXPECT_EQ(packed.spill_events, 0u);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].jobs, (std::vector<std::size_t>{0, 2}));
}

TEST(Packer, MidQueueExclusiveJobDefersWithoutSpillAccounting) {
  // An exclusive job behind an open batch waits for the next one (normal
  // queueing, not a spill_event); followers may still fill the current
  // batch, and the exclusive job runs alone in the following one.
  const Device d = make_line_device(8);
  const auto partitioner = make_partitioner(Method::QuCP, 4.0, std::nullopt);
  const ProgramShape small{2, 1, 1};
  std::vector<PackJob> jobs{{0, small, 1, false},
                            {1, small, 2, true},  // exclusive
                            {2, small, 3, false}};
  SoloEfsMemo cache;
  const FleetSlot slot{&d, nullptr, &cache};
  const FleetPlan packed =
      pack_one_slot(slot, jobs, *partitioner, PackOptions{});
  const std::vector<PackedBatch>& batches = packed.batches[0];
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[0].jobs, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(batches[1].jobs, (std::vector<std::size_t>{1}));
  EXPECT_EQ(packed.spill_events, 0u);
  EXPECT_TRUE(packed.unplaceable.empty());
}

TEST(ExecutionService, ExclusiveUnplaceableJobFailsCleanly) {
  // Service-level pin of the exclusive solo-allocation-failure path.
  ExecutionService service(make_split_device(7), fast_service_options());
  JobOptions exclusive;
  exclusive.name = "solo-too-big";
  exclusive.exclusive = true;
  const JobHandle big =
      service.submit(get_benchmark("alu").circuit, exclusive);  // 5q > 4 + 4
  const JobHandle small = service.submit(get_benchmark("bell").circuit);
  service.flush();
  EXPECT_EQ(big.status(), JobStatus::Failed);
  EXPECT_NE(big.error().find("does not fit"), std::string::npos);
  EXPECT_EQ(small.status(), JobStatus::Done);
  EXPECT_EQ(service.stats().spill_events, 0u);
}

/// A 7-qubit CX-dense circuit the router cannot place on toronto27
/// (route_on_partition does not converge), prefixed with rz(theta, 0) so
/// that bindings of `theta` share one structure and submit_all() marks
/// them as a sweep.
Circuit unroutable_sweep_circuit(double theta) {
  constexpr int kWidth = 7;
  Circuit c(kWidth, kWidth);
  c.rz(theta, 0);
  Rng rng(25);
  const auto qubit = [&] { return static_cast<int>(rng.index(kWidth)); };
  for (int g = 0; g < 23; ++g) {
    switch (rng.index(12)) {
      case 0: c.h(qubit()); break;
      case 1: c.t(qubit()); break;
      case 2: c.s(qubit()); break;
      case 3: c.x(qubit()); break;
      case 4: c.ry(rng.uniform(-3.1, 3.1), qubit()); break;
      case 5: c.rz(rng.uniform(-3.1, 3.1), qubit()); break;
      default: {
        const int a = qubit();
        int b = static_cast<int>(rng.index(kWidth - 1));
        if (b >= a) ++b;
        c.cx(a, b);
        break;
      }
    }
  }
  c.measure_all();
  return c;
}

TEST(ExecutionService, SweepWhoseRoutingFailsFailsItsJobs) {
  // Regression: dispatch counts a plan's jobs outstanding before the sweep
  // prebind runs, so a transpile_sweep that throws must not strand them.
  // Every job fails with the routing error through its batch, flush()
  // returns, and the counters conserve.
  ServiceOptions opts = fast_service_options();
  opts.max_batch_size = 2;
  std::vector<Circuit> circuits;
  for (int i = 0; i < 4; ++i) {
    circuits.push_back(unroutable_sweep_circuit(0.3 + 0.4 * i));
  }
  // Heap-allocated so a regression can leak it instead of hanging in the
  // destructor's drain.
  auto* service = new ExecutionService(make_toronto27(), opts);
  const std::vector<JobHandle> handles = service->submit_all(circuits);
  std::string flush_error;
  try {
    service->flush();
  } catch (const std::exception& e) {
    flush_error = e.what();
  }
  EXPECT_EQ(flush_error, "");
  bool all_terminal = true;
  for (const JobHandle& h : handles) {
    all_terminal = all_terminal && (h.status() == JobStatus::Done ||
                                    h.status() == JobStatus::Failed);
  }
  if (!all_terminal) {
    ADD_FAILURE() << "sweep jobs stranded in a non-terminal state";
    return;  // leak the service: its destructor would wait forever
  }
  for (const JobHandle& h : handles) {
    EXPECT_EQ(h.status(), JobStatus::Failed);
    EXPECT_NE(h.error().find("routing did not converge"), std::string::npos)
        << h.error();
  }
  const ServiceStats stats = service->stats();
  EXPECT_EQ(stats.jobs_submitted, handles.size());
  EXPECT_EQ(stats.jobs_submitted, stats.jobs_completed + stats.jobs_failed);
  delete service;
}

/// h(0); measure(0,0); cx(0,1); measure(1,1): op 2 acts on a qubit that
/// is already measured, which route_on_partition cannot route.
Circuit mid_measured_circuit() {
  Circuit c(2, std::nullopt, "mid_measured");
  c.h(0);
  c.measure(0, 0);
  c.cx(0, 1);
  c.measure(1, 1);
  return c;
}

TEST(ExecutionService, SubmitRejectsCircuitsThePipelineCannotRun) {
  // A circuit with no active qubit used to throw out of the next flush()'s
  // plan, stranding every drained handle in Queued; one with no
  // measurement, or with a gate after a measurement, used to fail its
  // whole batch, co-runners included, with its own error. All are now
  // refused at submit(), and a valid job submitted next to them runs
  // normally.
  ExecutionService service(make_toronto27(), fast_service_options());
  Circuit unmeasured(2, std::nullopt, "unmeasured");
  unmeasured.h(0);
  unmeasured.cx(0, 1);
  EXPECT_THROW((void)service.submit(Circuit(3)), std::invalid_argument);
  EXPECT_THROW((void)service.submit(unmeasured), std::invalid_argument);
  try {
    (void)service.submit(mid_measured_circuit());
    ADD_FAILURE() << "submit accepted a non-terminal measurement";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("non-terminal measurement: op 2"),
              std::string::npos)
        << e.what();
  }
  // A gate after a measurement of another qubit is routable and accepted.
  Circuit measured_early(2, std::nullopt, "measured_early");
  measured_early.h(0);
  measured_early.measure(0, 0);
  measured_early.x(1);
  measured_early.measure(1, 1);
  const JobHandle ok = service.submit(mix_circuit(0));
  const JobHandle early = service.submit(measured_early);
  service.flush();
  EXPECT_EQ(ok.status(), JobStatus::Done) << ok.error();
  EXPECT_EQ(early.status(), JobStatus::Done) << early.error();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_submitted, 2u);
  EXPECT_EQ(stats.jobs_completed, 2u);
  EXPECT_EQ(stats.jobs_failed, 0u);
}

TEST(ExecutionService, SubmitRejectsARegisterWiderThanItsActiveQubits) {
  // A 5-qubit register acting on qubits 0-1 used to pass submit, be
  // planned a 2-qubit partition, and fail its whole batch, bell included,
  // with "initial_layout: partition too small". submit() and submit_all()
  // now refuse it naming the first idle qubit, and bell runs alone.
  ExecutionService service(make_toronto27(), fast_service_options());
  Circuit idle(5, std::nullopt, "idle_register");
  idle.h(0);
  idle.cx(0, 1);
  idle.measure(0, 0);
  idle.measure(1, 1);
  const Circuit bell = get_benchmark("bell").circuit;
  try {
    (void)service.submit_all({bell, idle});
    ADD_FAILURE() << "submit_all accepted an idle register qubit";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("circuit 1"), std::string::npos) << what;
    EXPECT_NE(what.find("leaves qubit 2 of its 5-qubit register idle"),
              std::string::npos)
        << what;
  }
  EXPECT_EQ(service.pending_jobs(), 0u);
  EXPECT_EQ(service.stats().jobs_submitted, 0u);

  // The first idle qubit is named, not the first past the active ones; a
  // qubit only a barrier touches is idle, and one only measured is not.
  Circuit gap(4, std::nullopt, "gap");
  gap.h(0);
  gap.barrier();
  gap.measure(0, 0);
  gap.measure(2, 2);
  gap.measure(3, 3);
  try {
    (void)service.submit(gap);
    ADD_FAILURE() << "submit accepted an idle register qubit";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("leaves qubit 1 of"),
              std::string::npos)
        << e.what();
  }

  EXPECT_THROW((void)service.submit(idle), std::invalid_argument);
  const JobHandle ok = service.submit(bell);
  service.flush();
  EXPECT_EQ(ok.status(), JobStatus::Done) << ok.error();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_submitted, 1u);
  EXPECT_EQ(stats.jobs_completed, 1u);
  EXPECT_EQ(stats.jobs_failed, 0u);
}

TEST(ExecutionService, SubmitAllRejectsAMalformedCircuitAndEnqueuesNothing) {
  ExecutionService service(make_toronto27(), fast_service_options());
  Circuit unmeasured(2);
  unmeasured.h(0);
  for (const Circuit& bad : {Circuit(3), unmeasured, mid_measured_circuit()}) {
    try {
      (void)service.submit_all({mix_circuit(0), mix_circuit(1), bad});
      ADD_FAILURE() << "submit_all accepted a malformed circuit";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("circuit 2"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(service.pending_jobs(), 0u);
  EXPECT_EQ(service.stats().jobs_submitted, 0u);
}

TEST(FleetService, SubmitRejectsACircuitWiderThanEveryDevice) {
  // A circuit wider than the widest fleet device used to be accepted and
  // failed only by the plan. submit() and submit_all() now throw
  // CircuitTooWide naming the width and the widest device (and, for
  // submit_all, the index), and enqueue nothing.
  BackendRegistry fleet(
      std::vector<Device>{make_line_device(3), make_line_device(4)});
  ExecutionService service(std::move(fleet), fast_service_options());
  const Circuit alu = get_benchmark("alu").circuit;  // 5 qubits
  try {
    (void)service.submit(alu);
    ADD_FAILURE() << "submit accepted a 5-qubit circuit on a 4-qubit fleet";
  } catch (const CircuitTooWide& e) {
    EXPECT_EQ(e.width, 5);
    EXPECT_EQ(e.device, "line4");
    EXPECT_EQ(e.device_qubits, 4);
    EXPECT_FALSE(e.index.has_value());
    EXPECT_NE(std::string(e.what()).find("5 qubits wide"), std::string::npos)
        << e.what();
  }
  try {
    (void)service.submit_all({get_benchmark("bell").circuit, alu});
    ADD_FAILURE() << "submit_all accepted a 5-qubit circuit";
  } catch (const CircuitTooWide& e) {
    EXPECT_EQ(e.index, std::optional<std::size_t>(1));
    EXPECT_NE(std::string(e.what()).find("circuit 1"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW((void)service.submit(alu), std::invalid_argument);
  EXPECT_EQ(service.pending_jobs(), 0u);
  EXPECT_EQ(service.stats().jobs_submitted, 0u);

  // The register's width counts, not its active qubits: the layout
  // places every qubit of the register.
  Circuit wide_register(5, std::nullopt, "wide_register");
  wide_register.h(0);
  wide_register.cx(0, 1);
  wide_register.measure(0, 0);
  wide_register.measure(1, 1);
  EXPECT_THROW((void)service.submit(wide_register), CircuitTooWide);
  EXPECT_EQ(service.stats().jobs_submitted, 0u);

  // A circuit as wide as the widest device is accepted and runs.
  const JobHandle ok = service.submit(get_benchmark("bell").circuit);
  service.flush();
  EXPECT_EQ(ok.status(), JobStatus::Done) << ok.error();
}

TEST(ExecutionService, SubmitRejectsNonFiniteAnglesNamingTheOp) {
  // A NaN or infinite angle used to be accepted and poison its batch's
  // kernels. submit() now names the op, submit_all() the circuit and the
  // op, and submit_all() enqueues nothing.
  ExecutionService service(make_toronto27(), fast_service_options());
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    Circuit c(2, std::nullopt, "poisoned");
    c.h(0);
    c.cx(0, 1);
    c.rz(bad, 1);
    c.measure(0, 0);
    c.measure(1, 1);
    try {
      (void)service.submit(c);
      ADD_FAILURE() << "submit accepted angle " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("non-finite angle at op 2"),
                std::string::npos)
          << e.what();
    }
    try {
      (void)service.submit_all({mix_circuit(0), c, mix_circuit(1)});
      ADD_FAILURE() << "submit_all accepted angle " << bad;
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("circuit 1"), std::string::npos) << what;
      EXPECT_NE(what.find("non-finite angle at op 2"), std::string::npos)
          << what;
    }
  }
  EXPECT_EQ(service.pending_jobs(), 0u);
  EXPECT_EQ(service.stats().jobs_submitted, 0u);
  const JobHandle ok = service.submit(mix_circuit(0));
  service.flush();
  EXPECT_EQ(ok.status(), JobStatus::Done) << ok.error();
}

TEST(FleetService, DrainsAcrossBackendsWithPerBackendBreakdown) {
  // Two-backend fleet with load balancing: every job completes, both
  // lanes execute batches, and the per-backend stats breakdown sums to
  // the service-wide totals.
  ServiceOptions opts = fast_service_options();
  opts.route_policy = RoutePolicy::LeastLoaded;
  BackendRegistry fleet(
      std::vector<Device>{make_toronto27(), make_toronto27()});
  ExecutionService service(std::move(fleet), opts);
  const auto outcomes = run_jobs(service, 24, 1);
  ASSERT_EQ(outcomes.size(), 24u);

  std::size_t per_backend[2] = {0, 0};
  for (const auto& [name, out] : outcomes) {
    ASSERT_TRUE(out.backend_id == 0 || out.backend_id == 1) << name;
    ++per_backend[out.backend_id];
  }
  EXPECT_GT(per_backend[0], 0u);
  EXPECT_GT(per_backend[1], 0u);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_completed, 24u);
  EXPECT_EQ(stats.jobs_failed, 0u);
  ASSERT_EQ(stats.backends.size(), 2u);
  std::uint64_t sum_completed = 0;
  std::uint64_t sum_batches = 0;
  std::uint64_t sum_hits = 0;
  for (const BackendStats& bs : stats.backends) {
    EXPECT_EQ(bs.device, "ibmq_toronto27");
    EXPECT_EQ(bs.jobs_routed, bs.jobs_completed + bs.jobs_failed);
    EXPECT_GT(bs.batches_executed, 0u);
    sum_completed += bs.jobs_completed;
    sum_batches += bs.batches_executed;
    sum_hits += bs.transpile_cache.hits;
  }
  EXPECT_EQ(sum_completed, stats.jobs_completed);
  EXPECT_EQ(sum_batches, stats.batches_executed);
  EXPECT_EQ(sum_hits, stats.transpile_cache.hits);
  EXPECT_EQ(per_backend[0],
            static_cast<std::size_t>(stats.backends[0].jobs_completed));
}

TEST(FleetService, DeterministicAcrossSubmissionInterleavings) {
  // The fleet extension of the single-backend determinism contract: on a
  // heterogeneous 2-backend fleet, the same 24 jobs submitted serially,
  // in reverse, and from 4 racing threads must give every handle the
  // identical result — same counts, same routing (backend id) and same
  // per-backend batch assignment (batch index).
  auto fleet_service = [] {
    ServiceOptions opts = fast_service_options();
    opts.route_policy = RoutePolicy::LeastLoaded;
    return std::make_unique<ExecutionService>(
        BackendRegistry(
            std::vector<Device>{make_toronto27(), make_manhattan65()}),
        opts);
  };
  auto serial = fleet_service();
  const auto base = run_jobs(*serial, 24, 1);
  bool multiple_backends = false;
  for (const auto& [name, out] : base) {
    multiple_backends |= out.backend_id != base.begin()->second.backend_id;
  }
  EXPECT_TRUE(multiple_backends);

  auto reversed = fleet_service();
  EXPECT_EQ(run_jobs(*reversed, 24, 1, /*reversed=*/true), base);

  auto threaded = fleet_service();
  EXPECT_EQ(run_jobs(*threaded, 24, 4), base);
}

TEST(FleetService, BestEfsRoutesEveryJobToItsLowestErrorDevice) {
  // Acceptance pin: with BestEfs routing and no capacity pressure, every
  // job must execute on the device where its solo EFS is lowest —
  // checked against direct solo_efs_score probes with the same
  // partitioner configuration the service uses.
  ServiceOptions opts = fast_service_options();
  opts.route_policy = RoutePolicy::BestEfs;
  opts.max_batch_size = 0;  // unbounded: fullness never overrides routing
  const Device toronto = make_toronto27();
  const Device manhattan = make_manhattan65();
  BackendRegistry fleet(
      std::vector<Device>{make_toronto27(), make_manhattan65()});
  ExecutionService service(std::move(fleet), opts);

  std::vector<JobHandle> handles;
  std::vector<ProgramShape> shapes;
  for (const char* name : {"bell", "lin", "adder", "alu", "qec", "var"}) {
    const Circuit& c = get_benchmark(name).circuit;
    shapes.push_back(shape_of(c));
    JobOptions jopts;
    jopts.name = name;
    handles.push_back(service.submit(c, jopts));
  }
  service.flush();

  const auto partitioner =
      make_partitioner(Method::QuCP, service.options().sigma, std::nullopt);
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const auto on_toronto = solo_efs_score(toronto, *partitioner, shapes[i]);
    const auto on_manhattan =
        solo_efs_score(manhattan, *partitioner, shapes[i]);
    ASSERT_TRUE(on_toronto && on_manhattan) << handles[i].name();
    const int expected = *on_toronto <= *on_manhattan ? 0 : 1;
    EXPECT_EQ(handles[i].result().batch.backend_id, expected)
        << handles[i].name() << " toronto=" << *on_toronto
        << " manhattan=" << *on_manhattan;
  }
}

TEST(FleetService, FourBackendFleetDrainsAtLeast2p5xFaster) {
  // Acceptance: a 4-backend fleet drains a 64-job queue with >= 2.5x the
  // throughput of the single-backend service on the same job stream,
  // measured as modeled device occupancy (each chip runs its batches
  // back to back; the fleet finishes when its busiest chip does).
  RuntimeModel model;
  model.shots = 4096;
  model.queue_depth = 5;
  auto modeled_drain_s = [&](std::size_t num_backends) {
    ServiceOptions opts = fast_service_options();
    opts.exec.shots = 64;
    opts.route_policy = RoutePolicy::LeastLoaded;
    std::vector<Device> devices;
    for (std::size_t i = 0; i < num_backends; ++i) {
      devices.push_back(make_toronto27());
    }
    ExecutionService service(BackendRegistry(std::move(devices)), opts);
    std::vector<JobHandle> handles;
    for (int i = 0; i < 64; ++i) {
      JobOptions jopts;
      jopts.name = "job" + std::to_string(i);
      handles.push_back(service.submit(mix_circuit(i), jopts));
    }
    service.flush();
    return modeled_fleet_drain_s(handles, num_backends, model);
  };
  const double single = modeled_drain_s(1);
  const double fleet = modeled_drain_s(4);
  EXPECT_GE(single / fleet, 2.5) << "single=" << single << " fleet=" << fleet;
}

TEST(FleetService, UnplaceableOnEveryDeviceFailsWithFleetMessage) {
  ServiceOptions opts = fast_service_options();
  opts.route_policy = RoutePolicy::BestEfs;
  BackendRegistry fleet(
      std::vector<Device>{make_split_device(7), make_split_device(11)});
  ExecutionService service(std::move(fleet), opts);
  const JobHandle big =
      service.submit(get_benchmark("alu").circuit);  // fits neither split
  const JobHandle small = service.submit(get_benchmark("bell").circuit);
  service.flush();
  EXPECT_EQ(big.status(), JobStatus::Failed);
  EXPECT_NE(big.error().find("does not fit on any of the 2 fleet devices"),
            std::string::npos);
  EXPECT_EQ(small.status(), JobStatus::Done);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_failed, 1u);
  EXPECT_EQ(stats.jobs_completed, 1u);
}

TEST(FleetService, ExclusiveJobRunsAloneOnSomeBackend) {
  ServiceOptions opts = fast_service_options();
  opts.route_policy = RoutePolicy::LeastLoaded;
  BackendRegistry fleet(
      std::vector<Device>{make_toronto27(), make_toronto27()});
  ExecutionService service(std::move(fleet), opts);
  JobOptions exclusive;
  exclusive.name = "solo";
  exclusive.exclusive = true;
  const JobHandle solo =
      service.submit(get_benchmark("adder").circuit, exclusive);
  std::vector<JobHandle> rest;
  for (int i = 0; i < 3; ++i) {
    rest.push_back(service.submit(get_benchmark("bell").circuit));
  }
  service.flush();
  EXPECT_EQ(solo.result().batch.batch_size, 1u);
  for (const JobHandle& h : rest) {
    EXPECT_EQ(h.status(), JobStatus::Done);
  }
}

TEST(FleetService, ReservationStatsTrackExclusiveJobs) {
  // Three exclusive jobs on a two-backend fleet, one dispatch cycle: the
  // first two reservations each claim an idle chip (zero modeled wait),
  // the third defers a round and is admitted behind a closed reservation
  // batch — so the service counters record three reservation jobs and
  // exactly one positive wait (sum == max).
  ServiceOptions opts = fast_service_options();
  opts.route_policy = RoutePolicy::LeastLoaded;
  BackendRegistry fleet(
      std::vector<Device>{make_toronto27(), make_toronto27()});
  ExecutionService service(std::move(fleet), opts);
  JobOptions exclusive;
  exclusive.exclusive = true;
  std::vector<JobHandle> handles;
  for (int i = 0; i < 3; ++i) {
    exclusive.name = "solo-" + std::to_string(i);
    handles.push_back(
        service.submit(get_benchmark("adder").circuit, exclusive));
  }
  service.flush();
  for (const JobHandle& h : handles) {
    ASSERT_EQ(h.status(), JobStatus::Done) << h.name();
    EXPECT_EQ(h.result().batch.batch_size, 1u) << h.name();
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.reservation_jobs, 3u);
  EXPECT_GT(stats.reservation_wait_sum_s, 0.0);
  EXPECT_DOUBLE_EQ(stats.reservation_wait_sum_s, stats.reservation_wait_max_s);
}

TEST(FleetService, WaitAccountingIsAuditableAgainstAnIndependentPlan) {
  // The per-backend modeled-wait counters (ServiceStats) must be exactly
  // recomputable from an independent FleetScheduler run over the same
  // jobs: one flush = one dispatch cycle with a zero backlog snapshot, so
  // planning the canonically-sorted PackJobs with the same options must
  // reproduce wait_sum/wait_max per lane. After the flush every batch has
  // completed, so the modeled backlog must have drained back to zero.
  ServiceOptions opts = fast_service_options();
  opts.route_policy = RoutePolicy::LeastLoaded;
  const std::vector<Device> devices{make_toronto27(), make_manhattan65()};
  ExecutionService service(BackendRegistry(devices), opts);

  std::vector<Circuit> circuits;
  for (int i = 0; i < 12; ++i) circuits.push_back(mix_circuit(i));
  std::vector<JobHandle> handles;
  for (const Circuit& c : circuits) handles.push_back(service.submit(c));
  service.flush();
  for (const JobHandle& h : handles) ASSERT_EQ(h.status(), JobStatus::Done);

  // Replay the dispatch: canonical order sorts by (fingerprint, name, id).
  struct Key {
    std::uint64_t fingerprint;
    std::string name;
    std::size_t id;
  };
  std::vector<Key> keys;
  for (std::size_t i = 0; i < circuits.size(); ++i) {
    keys.push_back({circuit_fingerprint(circuits[i]), circuits[i].name(), i});
  }
  std::sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    return std::tie(a.fingerprint, a.name, a.id) <
           std::tie(b.fingerprint, b.name, b.id);
  });
  std::vector<PackJob> pack_jobs;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    pack_jobs.push_back(
        {i, shape_of(circuits[keys[i].id]), keys[i].fingerprint, false});
  }
  PackOptions popts;
  popts.max_batch_size = opts.max_batch_size;
  popts.efs_threshold = opts.efs_threshold;
  popts.runtime.shots = opts.exec.shots;
  BackendRegistry audit(devices);
  FleetScheduler scheduler(audit, opts.route_policy);
  const auto partitioner =
      make_partitioner(Method::QuCP, opts.sigma, std::nullopt);
  const std::vector<double> idle = {0.0, 0.0};
  const FleetPlan plan =
      scheduler.plan(pack_jobs, *partitioner, popts, idle);

  const ServiceStats stats = service.stats();
  ASSERT_EQ(stats.backends.size(), 2u);
  for (std::size_t s = 0; s < 2; ++s) {
    EXPECT_DOUBLE_EQ(stats.backends[s].modeled_wait_sum_s, plan.wait_sum_s[s])
        << "lane " << s;
    EXPECT_DOUBLE_EQ(stats.backends[s].modeled_wait_max_s, plan.wait_max_s[s])
        << "lane " << s;
    EXPECT_DOUBLE_EQ(stats.backends[s].modeled_backlog_s, 0.0) << "lane " << s;
  }
  // The modeled waits are real numbers, not zeros: at least one lane saw
  // a job admitted behind planned work.
  EXPECT_GT(stats.backends[0].modeled_wait_sum_s +
                stats.backends[1].modeled_wait_sum_s,
            0.0);
}

TEST(FleetService, ExpectedLatencyDrainsDeterministicallyAcrossInterleavings) {
  // The queue-aware policy reads lane backlog snapshots, which could in
  // principle vary with worker timing — but one flush cycle starts from
  // zero backlog and canonical order, so routing must stay reproducible
  // across submission interleavings, like every other policy.
  auto fleet_service = [] {
    ServiceOptions opts = fast_service_options();
    opts.route_policy = RoutePolicy::ExpectedLatency;
    return std::make_unique<ExecutionService>(
        BackendRegistry(
            std::vector<Device>{make_toronto27(), make_manhattan65()}),
        opts);
  };
  auto serial = fleet_service();
  const auto base = run_jobs(*serial, 24, 1);
  bool multiple_backends = false;
  for (const auto& [name, out] : base) {
    multiple_backends |= out.backend_id != base.begin()->second.backend_id;
  }
  EXPECT_TRUE(multiple_backends);

  auto reversed = fleet_service();
  EXPECT_EQ(run_jobs(*reversed, 24, 1, /*reversed=*/true), base);

  auto threaded = fleet_service();
  EXPECT_EQ(run_jobs(*threaded, 24, 4), base);
}

TEST(Backend, TranspileCacheHitsAndEviction) {
  const Circuit bell = get_benchmark("bell").circuit;
  const std::vector<int> partition{0, 1, 2, 4};
  const TranspileOptions topts = hardware_aware_options();
  // The byte charge of one bell template, measured on a roomy epoch; a
  // transpile cache of 2.5 templates (a quarter of the epoch budget) holds
  // exactly two.
  std::size_t entry_bytes = 0;
  {
    const Backend probe(make_toronto27());
    (void)probe.epoch()->transpile(bell, partition, topts, 7);
    entry_bytes = probe.epoch()->cache_memory().transpile.bytes;
  }
  ASSERT_GT(entry_bytes, 0u);
  Backend backend(make_toronto27(),
                  kEpochCaches * (2 * entry_bytes + entry_bytes / 2));
  const auto epoch = backend.epoch();

  const TranspiledProgram first =
      epoch->transpile(bell, partition, topts, 7);
  const TranspiledProgram again =
      epoch->transpile(bell, partition, topts, 7);
  EXPECT_EQ(first.physical.ops(), again.physical.ops());
  EXPECT_EQ(first.final_layout, again.final_layout);
  TranspileCacheStats stats = epoch->cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);

  // Once the budget is full, a new key is refused on its first offer and
  // evicts the least recently used on its second.
  (void)epoch->transpile(bell, partition, topts, 8);
  (void)epoch->transpile(bell, partition, topts, 9);
  stats = epoch->cache_stats();
  EXPECT_EQ(stats.refused, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  (void)epoch->transpile(bell, partition, topts, 9);
  stats = epoch->cache_stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  const EpochCacheStats memory = epoch->cache_memory();
  EXPECT_EQ(memory.transpile.bytes, 2 * entry_bytes);
  EXPECT_EQ(memory.used_bytes, memory.transpile.bytes);
  EXPECT_LE(memory.transpile.bytes, memory.transpile.capacity);
  EXPECT_EQ(memory.transpile.capacity, memory.budget_bytes / kEpochCaches);
}

TEST(CircuitFingerprint, SensitiveToContentNotName) {
  Circuit a(2);
  a.h(0);
  a.cx(0, 1);
  Circuit b = a;
  b.set_name("renamed");
  EXPECT_EQ(circuit_fingerprint(a), circuit_fingerprint(b));
  b.x(1);
  EXPECT_NE(circuit_fingerprint(a), circuit_fingerprint(b));
  Circuit c(2);
  c.rx(0.5, 0);
  Circuit d(2);
  d.rx(0.5000001, 0);
  EXPECT_NE(circuit_fingerprint(c), circuit_fingerprint(d));
}

}  // namespace
}  // namespace qucp
