// Intake-path tests: the ExecutionService submission path under
// multi-producer stress.
//
// The stress tests pin the properties the intake queue must keep under
// arbitrary interleavings: no job is lost, no job is duplicated, and the
// queue never holds more than intake_capacity jobs. The determinism test
// pins the service-level consequence: with canonical ordering and unique
// names, per-job results are reproducible regardless of how submitter
// threads interleave. CI runs this binary under TSan and ASan+UBSan.

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
#include "service/service.hpp"

namespace qucp {
namespace {

// ---------------------------------------------------------------------------
// Service-level stress: the full submit() path (gate, id assignment, queue
// push, backpressure, auto-flush) under concurrent producers.

TEST(ServiceIntake, EightProducerStressNoLostNoDuplicateJobs) {
  ServiceOptions opts;
  opts.exec.shots = 1;
  opts.num_workers = 2;
  opts.max_batch_size = 8;
  opts.intake_capacity = 32;  // small: exercises backpressure drains
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

TEST(ServiceIntake, DefaultCapacityHoldsEightProducerBursts) {
  // Burst stress on the default capacity: 8 producers alternating block
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
  // produces each run): with canonical order, unique names, and one flush,
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
  opts.intake_capacity = 2;  // every third submit drains the queue
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

TEST(ServiceIntake, SubmitAllLargerThanTheQueueCompletesWithContiguousIds) {
  ServiceOptions opts;
  opts.exec.shots = 1;
  opts.max_batch_size = 4;
  opts.intake_capacity = 8;  // 20 circuits backpressure twice
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
  // A vector larger than the queue backpressure-drains it while other
  // producers keep submitting singles: nothing is lost, duplicated, or
  // wedged, and the vector's ids stay contiguous.
  ServiceOptions opts;
  opts.exec.shots = 1;
  opts.num_workers = 2;
  opts.max_batch_size = 8;
  opts.intake_capacity = 8;  // 64-circuit submit_all: 8 backpressure drains
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

TEST(ServiceIntake, CapacityBoundsTheWholeIntake) {
  // intake_capacity caps the queue, not each producer: with auto-flush off,
  // 4 producers filling an 8-job queue must backpressure-dispatch so that
  // no submit ever leaves more than 8 jobs pending.
  constexpr std::size_t kCapacity = 8;
  ServiceOptions opts;
  opts.exec.shots = 1;
  opts.num_workers = 2;
  opts.max_batch_size = 4;
  opts.intake_capacity = kCapacity;
  ExecutionService service(make_toronto27(), opts);
  const Circuit circuit = get_benchmark("bell").circuit;

  constexpr int kThreads = 4;
  constexpr int kPerThread = 16;
  std::vector<std::vector<JobHandle>> handles(kThreads);
  std::atomic<std::size_t> max_pending{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&service, &handles, &circuit, &max_pending, t] {
      for (int i = 0; i < kPerThread; ++i) {
        JobOptions jopts;
        jopts.name = "t" + std::to_string(t) + "#" + std::to_string(i);
        handles[static_cast<std::size_t>(t)].push_back(
            service.submit(circuit, jopts));
        const std::size_t pending = service.pending_jobs();
        std::size_t seen = max_pending.load();
        while (pending > seen && !max_pending.compare_exchange_weak(seen,
                                                                    pending)) {
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_LE(max_pending.load(), kCapacity);
  service.flush();

  constexpr std::size_t kTotal = kThreads * kPerThread;
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
