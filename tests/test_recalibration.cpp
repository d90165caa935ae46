// Tests for epoch-versioned calibration (service/backend.hpp): the
// CalibrationEpoch swap mechanics, warm-built replacement caches,
// in-flight epoch pinning (a batch executes against its pack-time
// calibration even across a live recalibrate), per-epoch determinism,
// ServiceStats epoch/stall accounting, routing shift away from a degraded
// backend and back after recovery, and an 8-producer stress test that
// recalibrates concurrently with submission. CI runs this binary under
// TSan and ASan+UBSan.

#include "service/backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "benchmarks/suite.hpp"
#include "partition/partitioners.hpp"
#include "service/service.hpp"

namespace qucp {
namespace {

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

/// A copy of `device`'s calibration with every CX error and duration
/// scaled — the "chip drifted" snapshot recalibrate() swaps in. Errors
/// clamp below 1 to stay valid.
Calibration scaled_calibration(const Device& device, double error_factor,
                               double duration_factor = 1.0) {
  Calibration cal = device.calibration();
  for (double& e : cal.cx_error) e = std::min(0.95, e * error_factor);
  for (double& d : cal.cx_duration_ns) d *= duration_factor;
  return cal;
}

TEST(CalibrationEpoch, RecalibrateSwapsEpochAndOldSnapshotSurvives) {
  Backend backend(make_toronto27());
  const auto e0 = backend.epoch();
  EXPECT_EQ(e0->id(), 0u);
  EXPECT_EQ(backend.epoch_id(), 0u);
  EXPECT_EQ(backend.recalibrations(), 0u);

  const double old_cx0 = e0->device().calibration().cx_error[0];
  const double build_s =
      backend.recalibrate(scaled_calibration(e0->device(), 2.0));
  EXPECT_GE(build_s, 0.0);

  const auto e1 = backend.epoch();
  EXPECT_EQ(e1->id(), 1u);
  EXPECT_EQ(backend.epoch_id(), 1u);
  EXPECT_EQ(backend.recalibrations(), 1u);
  EXPECT_GE(backend.recalibration_build_s(), build_s);

  // The pinned old epoch is untouched: same id, same calibration. The new
  // epoch carries the drifted data; topology and identity are preserved.
  EXPECT_EQ(e0->id(), 0u);
  EXPECT_DOUBLE_EQ(e0->device().calibration().cx_error[0], old_cx0);
  EXPECT_DOUBLE_EQ(e1->device().calibration().cx_error[0],
                   std::min(0.95, old_cx0 * 2.0));
  EXPECT_EQ(e1->device().name(), e0->device().name());
  EXPECT_EQ(e1->device().num_qubits(), e0->device().num_qubits());

  // Monotonic ids across repeated recalibrations.
  (void)backend.recalibrate(scaled_calibration(e1->device(), 1.5));
  EXPECT_EQ(backend.epoch_id(), 2u);
  EXPECT_EQ(backend.recalibrations(), 2u);
}

TEST(CalibrationEpoch, InvalidCalibrationThrowsAndLeavesEpochUntouched) {
  Backend backend(make_toronto27());
  const auto before = backend.epoch();
  Calibration bad = before->device().calibration();
  bad.cx_error[0] = 1.5;  // errors must stay within [0, 1)
  EXPECT_THROW((void)backend.recalibrate(bad), std::invalid_argument);
  Calibration wrong_size = before->device().calibration();
  wrong_size.q1_error.pop_back();
  EXPECT_THROW((void)backend.recalibrate(wrong_size), std::invalid_argument);
  EXPECT_EQ(backend.epoch_id(), 0u);
  EXPECT_EQ(backend.recalibrations(), 0u);
  EXPECT_EQ(backend.epoch().get(), before.get());
}

TEST(CalibrationEpoch, ReplacementCachesAreWarmBuiltAndFresh) {
  Backend backend(make_toronto27());
  // Serve allocations at widths 2 and 4 (a batch of both, so non-empty
  // states are memoized too) and transpile-cache traffic on epoch 0.
  const auto old_epoch = backend.epoch();
  const auto partitioner = make_partitioner(Method::QuCP, 4.0, std::nullopt);
  const std::vector<ProgramShape> batch{{4, 3, 2}, {2, 1, 1}};
  ASSERT_TRUE(partitioner
                  ->allocate(old_epoch->device(), batch,
                            &old_epoch->candidate_index())
                  .has_value());
  const Circuit bell = get_benchmark("bell").circuit;
  const std::vector<int> partition{0, 1, 2, 4};
  (void)old_epoch->transpile(bell, partition, hardware_aware_options(), 7);
  (void)old_epoch->transpile(bell, partition, hardware_aware_options(), 7);
  EXPECT_EQ(old_epoch->cache_stats().hits, 1u);

  const std::vector<int> old_sizes =
      old_epoch->candidate_index().cached_sizes();
  EXPECT_EQ(old_sizes, (std::vector<int>{2, 4}));

  (void)backend.recalibrate(scaled_calibration(old_epoch->device(), 1.5));

  // The successor's candidate index was warm-built with the empty state of
  // each width the predecessor served — one build per width, nothing
  // else — and every result cache starts empty: nothing transpiled under
  // the old calibration can leak through.
  const auto fresh = backend.epoch();
  const CandidateIndex& index = fresh->candidate_index();
  EXPECT_EQ(index.cached_sizes(), old_sizes);
  const EpochCacheStats warmed = fresh->cache_memory();
  EXPECT_EQ(warmed.allocation_states.entries, old_sizes.size());
  EXPECT_EQ(warmed.allocation_states.misses, old_sizes.size());
  EXPECT_EQ(warmed.allocation_states.hits, 0u);
  EXPECT_EQ(warmed.used_bytes, warmed.allocation_states.bytes);
  const TranspileCacheStats stats = fresh->cache_stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);

  // The first allocation at each warmed width is served from the memo:
  // it reads no allocation_states miss, and the state it uses was built
  // from the new calibration (bit-identical to the index-less path).
  for (const int k : old_sizes) {
    const std::vector<ProgramShape> solo{{k, 1, 1}};
    const auto got = partitioner->allocate(fresh->device(), solo, &index);
    const auto want = partitioner->allocate(fresh->device(), solo);
    ASSERT_TRUE(got.has_value()) << k;
    ASSERT_TRUE(want.has_value()) << k;
    EXPECT_EQ(got->front().qubits, want->front().qubits) << k;
    EXPECT_EQ(got->front().efs.score, want->front().efs.score) << k;
  }
  const CacheStats after = index.state_stats();
  EXPECT_EQ(after.misses - warmed.allocation_states.misses, 0u);
  EXPECT_EQ(after.hits, old_sizes.size());
}

TEST(CalibrationEpoch, InFlightBatchExecutesAgainstPinnedEpochBitIdentically) {
  // A batch that pinned epoch 0 at pack time must produce bit-identical
  // results when it executes after a recalibration — the core guarantee
  // that lets recalibrate() run without draining the lane.
  Backend backend(make_toronto27());
  const std::vector<Circuit> programs{get_benchmark("adder").circuit,
                                      get_benchmark("alu").circuit};
  ParallelOptions opts;
  opts.exec.shots = 256;

  const auto pinned = backend.epoch();
  const BatchReport before = run_batch_pipeline(
      *pinned, programs, batch_assignments(*pinned, programs, opts), {}, opts);

  (void)backend.recalibrate(
      scaled_calibration(backend.epoch()->device(), 8.0, 4.0));

  const BatchReport after = run_batch_pipeline(
      *pinned, programs, batch_assignments(*pinned, programs, opts), {}, opts);
  ASSERT_EQ(after.programs.size(), before.programs.size());
  for (std::size_t i = 0; i < after.programs.size(); ++i) {
    EXPECT_EQ(after.programs[i].partition, before.programs[i].partition);
    EXPECT_EQ(after.programs[i].counts.data(), before.programs[i].counts.data());
    EXPECT_DOUBLE_EQ(after.programs[i].efs, before.programs[i].efs);
    EXPECT_DOUBLE_EQ(after.programs[i].pst_value, before.programs[i].pst_value);
    EXPECT_DOUBLE_EQ(after.programs[i].jsd_value, before.programs[i].jsd_value);
  }
  EXPECT_DOUBLE_EQ(after.makespan_ns, before.makespan_ns);

  // The current epoch sees the degraded chip: the same batch on the
  // backend's current epoch reports a worse makespan, since every CX now
  // takes 4x as long.
  const BatchReport degraded = run_batch_pipeline(
      *backend.epoch(), programs,
      batch_assignments(*backend.epoch(), programs, opts), {}, opts);
  EXPECT_GT(degraded.makespan_ns, before.makespan_ns);
}

/// Submit `jobs` uniquely-named circuits, flush, and digest every result
/// (routing + counts) into a comparable map.
std::map<std::string, std::pair<int, double>> run_segment(
    ExecutionService& service, int jobs, int segment) {
  std::vector<JobHandle> handles;
  for (int i = 0; i < jobs; ++i) {
    const BenchmarkSpec& spec =
        benchmark_suite()[static_cast<std::size_t>(i % 8)];
    JobOptions jopts;
    jopts.name = "s" + std::to_string(segment) + "#" + std::to_string(i);
    handles.push_back(service.submit(spec.circuit, jopts));
  }
  service.flush();
  std::map<std::string, std::pair<int, double>> out;
  for (const JobHandle& h : handles) {
    out[h.name()] = {h.result().batch.backend_id, h.result().report.pst_value};
  }
  return out;
}

TEST(CalibrationEpoch, SameRecalibrationScheduleIsDeterministic) {
  // Per-epoch determinism golden: the same job stream with the same
  // recalibration schedule (flush, recalibrate, flush) run twice must give
  // every job the identical routing and result — epoch swaps are part of
  // the deterministic state machine, not a source of noise.
  const auto run = [] {
    ServiceOptions opts;
    opts.exec.shots = 64;
    opts.num_workers = 2;
    opts.max_batch_size = 4;
    ExecutionService service(make_toronto27(), opts);
    auto a = run_segment(service, 12, 0);
    (void)service.backend().recalibrate(
        scaled_calibration(service.backend().epoch()->device(), 4.0, 2.0));
    auto b = run_segment(service, 12, 1);
    a.insert(b.begin(), b.end());
    return a;
  };
  EXPECT_EQ(run(), run());
}

TEST(CalibrationEpoch, ServiceStatsReportEpochAndBuildAccounting) {
  ServiceOptions opts;
  opts.exec.shots = 16;
  ExecutionService service(make_toronto27(), opts);
  (void)run_segment(service, 4, 0);
  ServiceStats stats = service.stats();
  ASSERT_EQ(stats.backends.size(), 1u);
  EXPECT_EQ(stats.backends[0].calibration_epoch, 0u);
  EXPECT_EQ(stats.recalibrations, 0u);
  EXPECT_EQ(stats.stale_epoch_batches, 0u);

  (void)service.backend().recalibrate(
      scaled_calibration(service.backend().epoch()->device(), 2.0));
  (void)run_segment(service, 4, 1);
  stats = service.stats();
  EXPECT_EQ(stats.backends[0].calibration_epoch, 1u);
  EXPECT_EQ(stats.backends[0].recalibrations, 1u);
  EXPECT_GT(stats.backends[0].recalibration_build_s, 0.0);
  EXPECT_EQ(stats.recalibrations, 1u);
  EXPECT_DOUBLE_EQ(stats.recalibration_build_s,
                   stats.backends[0].recalibration_build_s);
  // Both flushes completed with no dispatch/recalibration overlap, so no
  // batch finished against a superseded epoch.
  EXPECT_EQ(stats.stale_epoch_batches, 0u);
}

TEST(CalibrationEpoch, RoutingShiftsAwayFromDegradedBackendAndBack) {
  // The drift scenario end-to-end on the live service: two identical
  // chips, so routing ties to backend 0; backend 0 degrades (CX errors x8,
  // durations x5) and both calibration-aware policies shift the stream to
  // backend 1; recalibrating back restores the original preference.
  for (const RoutePolicy policy :
       {RoutePolicy::BestEfs, RoutePolicy::ExpectedLatency}) {
    ServiceOptions opts;
    opts.exec.shots = 16;
    opts.num_workers = 2;
    opts.max_batch_size = 0;  // unbounded: fullness never overrides routing
    opts.route_policy = policy;
    BackendRegistry fleet(
        std::vector<Device>{make_toronto27(), make_toronto27()});
    ExecutionService service(std::move(fleet), opts);
    const Calibration healthy =
        service.backend(0).epoch()->device().calibration();
    const Circuit bell = get_benchmark("bell").circuit;

    // Four identical 2-qubit jobs per segment: few enough that the EFS
    // allocator co-places them all on one chip (toronto27 takes 5 bell
    // pairs per batch before the probe rejects), identical so
    // ExpectedLatency's open-batch modeling keeps the whole segment on
    // the preferred chip.
    const auto routed_delta = [&service, &bell](int segment) {
      const ServiceStats before = service.stats();
      std::vector<JobHandle> handles;
      for (int i = 0; i < 4; ++i) {
        JobOptions jopts;
        jopts.name = "seg" + std::to_string(segment) + "#" +
                     std::to_string(i);
        handles.push_back(service.submit(bell, jopts));
      }
      service.flush();
      for (const JobHandle& h : handles) {
        EXPECT_EQ(h.status(), JobStatus::Done) << h.name();
      }
      const ServiceStats after = service.stats();
      return std::pair<std::uint64_t, std::uint64_t>{
          after.backends[0].jobs_routed - before.backends[0].jobs_routed,
          after.backends[1].jobs_routed - before.backends[1].jobs_routed};
    };

    const auto baseline = routed_delta(0);
    EXPECT_EQ(baseline.first, 4u) << route_policy_name(policy);

    (void)service.backend(0).recalibrate(
        scaled_calibration(service.backend(0).epoch()->device(), 8.0, 5.0));
    const auto degraded = routed_delta(1);
    EXPECT_EQ(degraded.second, 4u)
        << route_policy_name(policy) << ": traffic did not shift away";

    (void)service.backend(0).recalibrate(healthy);
    const auto restored = routed_delta(2);
    EXPECT_EQ(restored.first, 4u)
        << route_policy_name(policy) << ": traffic did not shift back";
  }
}

TEST(RecalibrationStress, EightProducersRaceLiveRecalibrations) {
  // 8 producer threads submit through the intake queue with auto-flush
  // racing them, while the main thread publishes new calibration epochs as
  // fast as it can build them. Every job must complete, ids stay unique,
  // and the stats stay consistent — and under TSan this is the data-race
  // pin for the whole epoch-swap path (plan-time pinning, warm builds,
  // stale-batch accounting).
  ServiceOptions opts;
  opts.exec.shots = 1;
  opts.num_workers = 2;
  opts.max_batch_size = 8;
  opts.intake_capacity = 32;
  opts.auto_flush_batch_size = 16;
  ExecutionService service(make_toronto27(), opts);
  const Calibration base = service.backend().epoch()->device().calibration();
  const Circuit circuit = get_benchmark("bell").circuit;

  constexpr int kThreads = 8;
  constexpr int kPerThread = 60;
  std::vector<std::vector<JobHandle>> handles(kThreads);
  std::atomic<int> live{kThreads};
  std::vector<std::thread> producers;
  producers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&service, &handles, &circuit, &live, t] {
      handles[static_cast<std::size_t>(t)].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) {
        JobOptions jopts;
        jopts.name = "t" + std::to_string(t) + "#" + std::to_string(i);
        handles[static_cast<std::size_t>(t)].push_back(
            service.submit(circuit, jopts));
      }
      live.fetch_sub(1, std::memory_order_release);
    });
  }
  std::uint64_t recals = 0;
  while (live.load(std::memory_order_acquire) != 0) {
    Calibration cal = base;
    const double factor = 1.0 + 0.1 * static_cast<double>(recals % 5);
    for (double& e : cal.cx_error) e = std::min(0.95, e * factor);
    (void)service.backend().recalibrate(std::move(cal));
    ++recals;
    std::this_thread::yield();
  }
  for (std::thread& t : producers) t.join();
  service.flush();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_submitted, kThreads * kPerThread);
  EXPECT_EQ(stats.jobs_completed, kThreads * kPerThread);
  EXPECT_EQ(stats.jobs_failed, 0u);
  EXPECT_EQ(stats.recalibrations, recals);
  EXPECT_EQ(service.backend().epoch_id(), recals);
  EXPECT_EQ(stats.backends[0].calibration_epoch, recals);
  // Batches packed just before a swap legitimately complete against the
  // older epoch; the count can never exceed the batches executed.
  EXPECT_LE(stats.stale_epoch_batches, stats.batches_executed);

  std::set<std::uint64_t> ids;
  for (const auto& per_thread : handles) {
    for (const JobHandle& h : per_thread) {
      ASSERT_EQ(h.status(), JobStatus::Done) << h.name();
      EXPECT_TRUE(ids.insert(h.id()).second) << "duplicate id " << h.id();
      EXPECT_FALSE(h.result().report.partition.empty()) << h.name();
    }
  }
  EXPECT_EQ(ids.size(), kThreads * kPerThread);
}

}  // namespace
}  // namespace qucp
