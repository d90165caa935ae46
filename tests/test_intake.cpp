// Intake-path tests: SubmitRing / ShardedIntake unit behavior, and the
// ExecutionService submission path under multi-producer stress.
//
// The stress tests pin the three properties the sharded MPSC intake must
// keep under arbitrary interleavings: no job is lost, no job is duplicated,
// and every producer's jobs stay in its own submission (FIFO) order. The
// determinism test pins the service-level consequence: with Canonical
// ordering and unique names, per-job results are reproducible regardless
// of how 8 submitter threads interleave. CI runs this binary under TSan
// and ASan+UBSan.

#include "service/intake.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "benchmarks/suite.hpp"
#include "hardware/device.hpp"
#include "service/job.hpp"
#include "service/service.hpp"

namespace qucp {
namespace {

using detail::JobPtr;
using detail::ShardedIntake;
using detail::SubmitRing;

JobPtr make_job(std::uint64_t id) {
  auto state = std::make_shared<detail::JobState>();
  state->id = id;
  return state;
}

std::vector<std::uint64_t> pop_all_ids(SubmitRing& ring) {
  std::vector<std::uint64_t> ids;
  JobPtr out;
  while (ring.try_pop(out)) ids.push_back(out->id);
  return ids;
}

TEST(SubmitRing, RoundsCapacityUpToPowerOfTwo) {
  EXPECT_EQ(SubmitRing(0).capacity(), 2u);
  EXPECT_EQ(SubmitRing(1).capacity(), 2u);
  EXPECT_EQ(SubmitRing(3).capacity(), 4u);
  EXPECT_EQ(SubmitRing(8).capacity(), 8u);
  EXPECT_EQ(SubmitRing(9).capacity(), 16u);
}

TEST(SubmitRing, FifoAcrossWraparound) {
  SubmitRing ring(4);
  std::uint64_t next = 0;
  std::uint64_t expect = 0;
  // Push 3 / pop 3 per round: positions wrap the 4-cell ring many times
  // and every pop must still see submission order.
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 3; ++i) ASSERT_TRUE(ring.try_push(make_job(next++)));
    JobPtr out;
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(ring.try_pop(out));
      EXPECT_EQ(out->id, expect++);
    }
  }
  JobPtr out;
  EXPECT_FALSE(ring.try_pop(out));
}

TEST(SubmitRing, FullRingRejectsUntilPopped) {
  SubmitRing ring(4);
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.try_push(make_job(i)));
  }
  EXPECT_FALSE(ring.try_push(make_job(99)));
  JobPtr out;
  ASSERT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out->id, 0u);
  EXPECT_TRUE(ring.try_push(make_job(4)));
  EXPECT_EQ(pop_all_ids(ring), (std::vector<std::uint64_t>{1, 2, 3, 4}));
}

TEST(ShardedIntake, DrainsShardThenTicketOrder) {
  ShardedIntake intake(2, 4);
  // Chronological publish order crosses shards; the drain reads shard 0
  // fully, then shard 1 — deterministic layout, not arrival order.
  ASSERT_TRUE(intake.try_push(make_job(10), 1));
  ASSERT_TRUE(intake.try_push(make_job(1), 0));
  ASSERT_TRUE(intake.try_push(make_job(11), 1));
  ASSERT_TRUE(intake.try_push(make_job(2), 0));
  std::vector<JobPtr> out;
  EXPECT_EQ(intake.drain(out), 4u);
  std::vector<std::uint64_t> ids;
  for (const JobPtr& job : out) ids.push_back(job->id);
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{1, 2, 10, 11}));
}

TEST(ShardedIntake, HomeShardIsStableAndInRange) {
  ShardedIntake intake(4, 4);
  const std::size_t home = intake.home_shard();
  EXPECT_LT(home, 4u);
  EXPECT_EQ(intake.home_shard(), home);
  std::size_t other = 99;
  std::thread([&intake, &other] { other = intake.home_shard(); }).join();
  EXPECT_LT(other, 4u);
}

TEST(ShardedIntake, ZeroShardsThrows) {
  EXPECT_THROW(ShardedIntake(0, 4), std::invalid_argument);
}

TEST(ShardedIntake, MultiProducerStressKeepsPerProducerFifo) {
  constexpr int kProducers = 8;
  constexpr std::uint64_t kPerProducer = 2000;
  // Tiny rings force constant full/retry cycles, randomizing the
  // interleaving between producers and the single drainer.
  ShardedIntake intake(4, 16);
  std::vector<JobPtr> drained;
  std::atomic<int> live{kProducers};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int t = 0; t < kProducers; ++t) {
    producers.emplace_back([&intake, &live, t] {
      const std::size_t shard = intake.home_shard();
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const JobPtr job =
            make_job((static_cast<std::uint64_t>(t) << 32) | i);
        while (!intake.try_push(job, shard)) std::this_thread::yield();
      }
      live.fetch_sub(1, std::memory_order_release);
    });
  }
  while (live.load(std::memory_order_acquire) != 0) {
    (void)intake.drain(drained);
  }
  for (std::thread& t : producers) t.join();
  (void)intake.drain(drained);

  ASSERT_EQ(drained.size(), kProducers * kPerProducer);
  std::set<std::uint64_t> seen;
  std::vector<std::uint64_t> next_seq(kProducers, 0);
  for (const JobPtr& job : drained) {
    ASSERT_TRUE(seen.insert(job->id).second) << "duplicate job " << job->id;
    const int t = static_cast<int>(job->id >> 32);
    const std::uint64_t seq = job->id & 0xffffffffu;
    EXPECT_EQ(seq, next_seq[t]++) << "producer " << t << " out of order";
  }
}

// ---------------------------------------------------------------------------
// Service-level stress: the full submit() path (gate, id assignment, shard
// publish, backpressure, auto-flush) under 8 concurrent producers.

TEST(ServiceIntake, EightProducerStressNoLostNoDuplicateJobs) {
  ServiceOptions opts;
  opts.exec.shots = 1;
  opts.num_workers = 2;
  opts.max_batch_size = 8;
  opts.submit_shards = 4;
  opts.submit_shard_capacity = 32;  // small: exercises backpressure drains
  opts.auto_flush_batch_size = 16;  // dispatch cycles race the submitters
  ExecutionService service(make_toronto27(), opts);
  const Circuit circuit = get_benchmark("bell").circuit;

  constexpr int kThreads = 8;
  constexpr int kPerThread = 100;
  std::vector<std::vector<JobHandle>> handles(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&service, &handles, &circuit, t] {
      handles[static_cast<std::size_t>(t)].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        JobOptions jopts;
        jopts.name = "t" + std::to_string(t) + "#" + std::to_string(i);
        handles[static_cast<std::size_t>(t)].push_back(
            service.submit(circuit, jopts));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  service.flush();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_submitted, kThreads * kPerThread);
  EXPECT_EQ(stats.jobs_completed, kThreads * kPerThread);
  EXPECT_EQ(stats.jobs_failed, 0u);

  std::set<std::uint64_t> ids;
  std::set<std::string> names;
  for (const auto& per_thread : handles) {
    for (const JobHandle& h : per_thread) {
      EXPECT_EQ(h.status(), JobStatus::Done) << h.name();
      EXPECT_TRUE(ids.insert(h.id()).second) << "duplicate id " << h.id();
      EXPECT_TRUE(names.insert(h.name()).second);
    }
  }
  EXPECT_EQ(ids.size(), kThreads * kPerThread);
}

TEST(ServiceIntake, AutoShardCountScalesToHardwareAndHoldsEightProducers) {
  // submit_shards = 0 (the default) resolves from hardware_concurrency,
  // rounded up to a power of two and clamped to [8, 64]. The floor of 8
  // is the no-cliff guarantee: an 8-producer burst homes every producer
  // on its own ring even on small machines, so producers never serialize
  // on a shared shard's CAS loop. An explicit value still overrides.
  {
    ServiceOptions opts;
    ASSERT_EQ(opts.submit_shards, 0u);  // auto is the default
    ExecutionService service(make_toronto27(), opts);
    const std::size_t resolved = service.options().submit_shards;
    EXPECT_GE(resolved, 8u);
    EXPECT_LE(resolved, 64u);
    EXPECT_EQ(resolved & (resolved - 1), 0u) << "power of two, got "
                                             << resolved;
  }
  {
    ServiceOptions opts;
    opts.submit_shards = 2;  // explicit override is honored verbatim
    ExecutionService service(make_toronto27(), opts);
    EXPECT_EQ(service.options().submit_shards, 2u);
  }

  // Burst stress on the resolved default: 8 producers alternating block
  // submit_all() and single submit() at full rate. Every job must land
  // exactly once (no lost, no duplicate ids) with nothing failed.
  ServiceOptions opts;
  opts.exec.shots = 1;
  opts.num_workers = 2;
  opts.max_batch_size = 8;
  opts.auto_flush_batch_size = 32;  // dispatch cycles race the submitters
  ExecutionService service(make_toronto27(), opts);
  const Circuit circuit = get_benchmark("bell").circuit;

  constexpr int kThreads = 8;
  constexpr int kBursts = 10;
  constexpr int kBurstSize = 12;
  std::vector<std::vector<JobHandle>> handles(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&service, &handles, &circuit, t] {
      auto& mine = handles[static_cast<std::size_t>(t)];
      mine.reserve(kBursts * kBurstSize);
      for (int burst = 0; burst < kBursts; ++burst) {
        if (burst % 2 == 0) {
          std::vector<Circuit> block;
          block.reserve(kBurstSize);
          for (int i = 0; i < kBurstSize; ++i) {
            Circuit c = circuit;
            c.set_name("t" + std::to_string(t) + "b" + std::to_string(burst) +
                       "#" + std::to_string(i));
            block.push_back(std::move(c));
          }
          for (JobHandle& h : service.submit_all(std::move(block))) {
            mine.push_back(std::move(h));
          }
        } else {
          for (int i = 0; i < kBurstSize; ++i) {
            JobOptions jopts;
            jopts.name = "t" + std::to_string(t) + "b" + std::to_string(burst) +
                         "#" + std::to_string(i);
            mine.push_back(service.submit(circuit, jopts));
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  service.flush();

  constexpr std::size_t kTotal = static_cast<std::size_t>(kThreads) * kBursts *
                                 kBurstSize;
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_submitted, kTotal);
  EXPECT_EQ(stats.jobs_completed, kTotal);
  EXPECT_EQ(stats.jobs_failed, 0u);
  std::set<std::uint64_t> ids;
  for (const auto& per_thread : handles) {
    for (const JobHandle& h : per_thread) {
      EXPECT_EQ(h.status(), JobStatus::Done) << h.name();
      EXPECT_TRUE(ids.insert(h.id()).second) << "duplicate id " << h.id();
    }
  }
  EXPECT_EQ(ids.size(), kTotal);
}

TEST(ServiceIntake, ResultsDeterministicAcrossInterleavings) {
  // Same job set, different physical interleavings (whatever the scheduler
  // produces each run): with Canonical order, unique names, and one flush,
  // every job's batch assignment and result must be bit-identical.
  const auto run = [] {
    ServiceOptions opts;
    opts.exec.shots = 8;
    opts.num_workers = 2;
    opts.max_batch_size = 4;
    ExecutionService service(make_toronto27(), opts);

    constexpr int kThreads = 4;
    constexpr int kPerThread = 25;
    std::vector<std::vector<JobHandle>> handles(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&service, &handles, t] {
        for (int i = 0; i < kPerThread; ++i) {
          const BenchmarkSpec& spec =
              benchmark_suite()[static_cast<std::size_t>((t * 31 + i) % 8)];
          JobOptions jopts;
          jopts.name = "job-t" + std::to_string(t) + "-" + std::to_string(i);
          handles[static_cast<std::size_t>(t)].push_back(
              service.submit(spec.circuit, jopts));
        }
      });
    }
    for (std::thread& t : threads) t.join();
    service.flush();

    std::map<std::string, std::pair<std::uint64_t, double>> by_name;
    for (const auto& per_thread : handles) {
      for (const JobHandle& h : per_thread) {
        const JobResult& r = h.result();
        by_name[h.name()] = {r.batch.batch_index, r.report.pst_value};
      }
    }
    return by_name;
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
}

TEST(ServiceIntake, BackpressureDispatchesInsteadOfBlocking) {
  ServiceOptions opts;
  opts.exec.shots = 1;
  opts.num_workers = 1;
  opts.max_batch_size = 4;
  opts.submit_shards = 1;
  opts.submit_shard_capacity = 2;  // every third submit drains the ring
  ExecutionService service(make_toronto27(), opts);
  const Circuit circuit = get_benchmark("bell").circuit;
  for (int i = 0; i < 50; ++i) (void)service.submit(circuit);
  service.flush();
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_submitted, 50u);
  EXPECT_EQ(stats.jobs_completed, 50u);
  EXPECT_EQ(stats.jobs_failed, 0u);
}

TEST(ServiceIntake, CancelPendingFailsQueuedJobsOnly) {
  ServiceOptions opts;
  opts.exec.shots = 1;
  ExecutionService service(make_toronto27(), opts);
  const Circuit circuit = get_benchmark("bell").circuit;
  std::vector<JobHandle> handles;
  for (int i = 0; i < 10; ++i) {
    JobOptions jopts;
    jopts.name = "doomed#" + std::to_string(i);
    handles.push_back(service.submit(circuit, jopts));
  }
  EXPECT_EQ(service.cancel_pending(), 10u);
  EXPECT_EQ(service.cancel_pending(), 0u);
  for (const JobHandle& h : handles) {
    EXPECT_EQ(h.status(), JobStatus::Failed);
    EXPECT_NE(h.error().find("cancelled before dispatch"), std::string::npos);
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_cancelled, 10u);
  EXPECT_EQ(stats.jobs_failed, 10u);

  // The service keeps working after a cancel sweep.
  const JobHandle survivor = service.submit(circuit);
  service.flush();
  EXPECT_EQ(survivor.status(), JobStatus::Done);
}

TEST(ServiceIntake, SubmitAllLargerThanTheShardCompletesWithContiguousIds) {
  ServiceOptions opts;
  opts.exec.shots = 1;
  opts.order = JobOrder::Fifo;
  opts.max_batch_size = 4;
  opts.submit_shard_capacity = 8;  // 20 circuits backpressure twice
  ExecutionService service(make_toronto27(), opts);
  std::vector<Circuit> circuits;
  for (int i = 0; i < 20; ++i) {
    circuits.push_back(
        benchmark_suite()[static_cast<std::size_t>(i % 8)].circuit);
  }
  const std::vector<JobHandle> handles = service.submit_all(circuits);
  ASSERT_EQ(handles.size(), 20u);
  for (std::size_t i = 1; i < handles.size(); ++i) {
    EXPECT_EQ(handles[i].id(), handles[i - 1].id() + 1);
  }
  service.flush();
  for (const JobHandle& h : handles) {
    EXPECT_EQ(h.status(), JobStatus::Done);
  }
  EXPECT_EQ(service.stats().jobs_submitted, 20u);
}

TEST(ServiceIntake, OversizedSubmitAllSurvivesConcurrentSubmitters) {
  // A vector larger than its shard backpressure-drains the rings while
  // other producers keep submitting singles, some to the same shard:
  // nothing is lost, duplicated, or wedged, and the vector's ids stay
  // contiguous.
  ServiceOptions opts;
  opts.exec.shots = 1;
  opts.num_workers = 2;
  opts.max_batch_size = 8;
  opts.submit_shards = 2;
  opts.submit_shard_capacity = 8;  // 64-circuit submit_all: 8 ring laps
  ExecutionService service(make_toronto27(), opts);
  const Circuit circuit = get_benchmark("bell").circuit;

  constexpr int kThreads = 4;
  constexpr int kPerThread = 40;
  std::vector<std::vector<JobHandle>> single_handles(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&service, &single_handles, &circuit, t] {
      for (int i = 0; i < kPerThread; ++i) {
        JobOptions jopts;
        jopts.name = "t" + std::to_string(t) + "#" + std::to_string(i);
        single_handles[static_cast<std::size_t>(t)].push_back(
            service.submit(circuit, jopts));
      }
    });
  }
  std::vector<Circuit> bulk;
  for (int i = 0; i < 64; ++i) {
    bulk.push_back(
        benchmark_suite()[static_cast<std::size_t>(i % 8)].circuit);
  }
  const std::vector<JobHandle> bulk_handles =
      service.submit_all(std::move(bulk));
  for (std::thread& t : threads) t.join();
  service.flush();

  constexpr std::size_t kTotal = 64 + kThreads * kPerThread;
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_submitted, kTotal);
  EXPECT_EQ(stats.jobs_completed, kTotal);
  EXPECT_EQ(stats.jobs_failed, 0u);

  std::set<std::uint64_t> ids;
  for (std::size_t i = 0; i < bulk_handles.size(); ++i) {
    const JobHandle& h = bulk_handles[i];
    EXPECT_EQ(h.status(), JobStatus::Done);
    EXPECT_EQ(h.id(), bulk_handles.front().id() + i);
    EXPECT_TRUE(ids.insert(h.id()).second);
  }
  for (const auto& per_thread : single_handles) {
    for (const JobHandle& h : per_thread) {
      EXPECT_EQ(h.status(), JobStatus::Done) << h.name();
      EXPECT_TRUE(ids.insert(h.id()).second);
    }
  }
  EXPECT_EQ(ids.size(), kTotal);
}

TEST(ServiceIntake, SubmitAfterShutdownThrows) {
  ServiceOptions opts;
  opts.exec.shots = 1;
  ExecutionService service(make_toronto27(), opts);
  const Circuit circuit = get_benchmark("bell").circuit;
  service.shutdown();
  EXPECT_THROW((void)service.submit(circuit), std::runtime_error);
  EXPECT_THROW((void)service.submit_all({circuit, circuit}),
               std::runtime_error);
  // A rejected call takes no id, so the counters stay conserved.
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_submitted, 0u);
  EXPECT_EQ(service.pending_jobs(), 0u);
}

}  // namespace
}  // namespace qucp
