// Tests for BoundedCache (common/bounded_cache.hpp) and the byte budget a
// calibration epoch splits across its four caches.
//
// A cache never holds more bytes than its capacity, evicts its own least
// recently used entries first, and a value it handed out survives the
// entry's eviction. Under pressure assign() stores a new key only on its
// second sighting; insert() always stores. Through an epoch: a stream of
// distinct circuits keeps every cache within its share of the budget after
// every batch, one cache's churn never evicts another cache's entries,
// lanes racing on one structure's fused entry each get their own binding's
// program, a tight budget yields exactly what a budget of 0 does, and the
// service reports entries, bytes, hits, misses, evictions and refused
// stores per cache.

#include "common/bounded_cache.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/parallel.hpp"
#include "hardware/device.hpp"
#include "mapping/transpiler.hpp"
#include "partition/partitioners.hpp"
#include "same_kernels.hpp"
#include "service/backend.hpp"
#include "service/service.hpp"
#include "sim/fusion.hpp"

namespace qucp {
namespace {

using Cache = BoundedCache<int, std::string>;

std::shared_ptr<const std::string> value(const std::string& s) {
  return std::make_shared<const std::string>(s);
}

/// The charge of one entry of `bytes`: what a cache holding only it holds.
std::size_t charge_of(std::size_t bytes) {
  Cache probe(std::size_t{1} << 20);
  probe.insert(0, value("x"), bytes);
  return probe.stats().bytes;
}

TEST(BoundedCache, EvictsItsLeastRecentlyUsedEntriesToFit) {
  const std::size_t entry = charge_of(100);
  Cache cache(3 * entry);
  for (int k = 0; k < 3; ++k) cache.insert(k, value(std::to_string(k)), 100);
  EXPECT_EQ(cache.stats().entries, 3u);
  EXPECT_EQ(cache.stats().bytes, 3 * entry);

  // A hit makes 0 the most recently used, so 1 goes first.
  ASSERT_NE(cache.find(0), nullptr);
  cache.insert(3, value("3"), 100);
  EXPECT_EQ(cache.peek(1), nullptr);
  EXPECT_NE(cache.peek(0), nullptr);
  // An entry twice the size evicts the two least recently used: 2, then 0.
  cache.insert(4, value("4"), 100 + entry);
  EXPECT_EQ(cache.peek(2), nullptr);
  EXPECT_EQ(cache.peek(0), nullptr);
  EXPECT_NE(cache.peek(3), nullptr);

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.capacity, 3 * entry);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, 3 * entry);
  EXPECT_EQ(stats.evictions, 3u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 0u);  // peek counts nothing
  EXPECT_EQ(cache.find(1), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(BoundedCache, BytesNeverExceedCapacityAfterAnyInsert) {
  Rng rng(99);
  const std::size_t capacity = 20 * charge_of(1000);
  Cache cache(capacity);
  for (int k = 0; k < 500; ++k) {
    cache.insert(k, value("v"), static_cast<std::size_t>(rng.integer(0, 3000)));
    ASSERT_LE(cache.stats().bytes, capacity) << "insert " << k;
  }
  EXPECT_GT(cache.stats().evictions, 0u);
}

TEST(BoundedCache, HandedOutValueSurvivesEviction) {
  Cache cache(charge_of(10));
  cache.insert(1, value("first"), 10);
  const std::shared_ptr<const std::string> held = cache.find(1);
  ASSERT_NE(held, nullptr);
  cache.insert(2, value("second"), 10);  // evicts 1
  EXPECT_EQ(cache.peek(1), nullptr);
  EXPECT_EQ(*held, "first");
}

TEST(BoundedCache, EntryLargerThanCapacityIsServedButNotStored) {
  Cache cache(3 * charge_of(100));
  cache.insert(1, value("small"), 100);
  const auto big = value("big");
  // Returned to the caller, not stored, and nothing else is evicted for it.
  EXPECT_EQ(cache.insert(2, big, 4 * charge_of(100)), big);
  EXPECT_EQ(cache.peek(2), nullptr);
  EXPECT_NE(cache.peek(1), nullptr);
  EXPECT_EQ(cache.stats().evictions, 0u);

  // Capacity 0 stores nothing at all.
  Cache none(0);
  const auto v = value("v");
  EXPECT_EQ(none.insert(1, v, 0), v);
  EXPECT_EQ(none.find(1), nullptr);
  EXPECT_EQ(none.stats().entries, 0u);
}

TEST(BoundedCache, InsertKeepsTheResidentValueAndAssignReplacesIt) {
  Cache cache(std::size_t{1} << 20);
  const auto first = value("first");
  EXPECT_EQ(cache.insert(1, first, 10), first);
  EXPECT_EQ(cache.insert(1, value("racer"), 10), first);  // lost the race
  cache.assign(1, value("replaced"), 500);
  EXPECT_EQ(*cache.peek(1), "replaced");
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().bytes, charge_of(500));
  EXPECT_EQ(cache.stats().evictions, 0u);  // a replacement is no eviction
}

TEST(BoundedCacheAdmission, AFirstSightingIsServedAndTheSecondEvicts) {
  const std::size_t entry = charge_of(100);
  Cache cache(2 * entry);
  EXPECT_TRUE(cache.assign(1, value("1"), 100));
  EXPECT_TRUE(cache.assign(2, value("2"), 100));
  // 3 would evict and was never offered: its caller keeps the value, the
  // cache keeps what it had.
  EXPECT_FALSE(cache.assign(3, value("3"), 100));
  EXPECT_EQ(cache.peek(3), nullptr);
  EXPECT_NE(cache.peek(2), nullptr);
  CacheStats stats = cache.stats();
  EXPECT_EQ(stats.refused, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.bytes, 2 * entry);

  // Its second offer is stored and evicts the least recently used entry.
  ASSERT_NE(cache.find(1), nullptr);
  EXPECT_TRUE(cache.assign(3, value("3"), 100));
  EXPECT_EQ(*cache.peek(3), "3");
  EXPECT_EQ(cache.peek(2), nullptr);
  EXPECT_NE(cache.peek(1), nullptr);
  stats = cache.stats();
  EXPECT_EQ(stats.refused, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(BoundedCacheAdmission, StoresThatFitAndReplacementsAreKeptAtOnce) {
  const std::size_t entry = charge_of(100);
  Cache cache(3 * entry);
  for (int k = 0; k < 3; ++k) {
    EXPECT_TRUE(cache.assign(k, value(std::to_string(k)), 100)) << k;
  }
  // Full: replacing a resident key is no admission, even when the larger
  // value evicts another entry.
  EXPECT_TRUE(cache.assign(2, value("2'"), 100 + entry));
  EXPECT_EQ(*cache.peek(2), "2'");
  EXPECT_EQ(cache.peek(0), nullptr);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.refused, 0u);
  EXPECT_EQ(stats.evictions, 1u);
  // A value larger than the capacity is neither stored nor refused.
  EXPECT_FALSE(cache.assign(9, value("big"), 4 * entry));
  EXPECT_EQ(cache.stats().refused, 0u);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(BoundedCacheAdmission, InsertStoresAFirstSightingUnderPressure) {
  const std::size_t entry = charge_of(100);
  Cache cache(2 * entry);
  cache.insert(1, value("1"), 100);
  cache.insert(2, value("2"), 100);
  const auto v = value("3");
  EXPECT_EQ(cache.insert(3, v, 100), v);
  EXPECT_EQ(cache.peek(3), v);
  EXPECT_EQ(cache.peek(1), nullptr);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.refused, 0u);
  EXPECT_EQ(stats.evictions, 1u);
}

/// Every key hashes alike: each collides with every other in the
/// doorkeeper.
struct CollidingHash {
  std::size_t operator()(int) const noexcept { return 42; }
};

TEST(BoundedCacheAdmission, DoorkeeperCollisionsNeverServeAWrongValue) {
  const std::size_t entry = charge_of(100);
  BoundedCache<int, std::string, CollidingHash> cache(2 * entry);
  cache.assign(1, value("1"), 100);
  cache.assign(2, value("2"), 100);
  EXPECT_FALSE(cache.assign(3, value("3"), 100));
  // 4 collides with 3's sighting, so it is admitted early.
  EXPECT_TRUE(cache.assign(4, value("4"), 100));
  EXPECT_EQ(cache.peek(3), nullptr);
  EXPECT_EQ(*cache.peek(4), "4");
  // Lookups compare full keys: 3, admitted on its own second offer, is
  // served its own value and 4 keeps its own.
  EXPECT_TRUE(cache.assign(3, value("3"), 100));
  EXPECT_EQ(*cache.find(3), "3");
  EXPECT_EQ(*cache.find(4), "4");
  EXPECT_EQ(cache.find(5), nullptr);
  EXPECT_EQ(cache.stats().refused, 1u);
}

TEST(BoundedCacheAdmission, ASightingOverwrittenInTheDoorkeeperIsForgotten) {
  const std::size_t entry = charge_of(100);
  Cache cache(2 * entry);
  cache.assign(-1, value("a"), 100);
  cache.assign(-2, value("b"), 100);
  EXPECT_FALSE(cache.assign(7, value("7"), 100));
  // Enough distinct one-use keys to overwrite every doorkeeper slot many
  // times over: all are refused, and 7's sighting goes with its slot.
  const int others = 8 * static_cast<int>(Cache::kDoorkeeperSlots);
  for (int k = 1000; k < 1000 + others; ++k) {
    ASSERT_FALSE(cache.assign(k, value("x"), 100)) << k;
  }
  EXPECT_FALSE(cache.assign(7, value("7"), 100));
  EXPECT_EQ(cache.peek(7), nullptr);
  EXPECT_EQ(*cache.peek(-1), "a");
  EXPECT_EQ(*cache.peek(-2), "b");
  EXPECT_EQ(cache.stats().refused, static_cast<std::uint64_t>(others) + 2);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

/// Random logical circuit on k qubits: H, CX, RZ and RY, then measure all.
Circuit random_logical(Rng& rng, int k, int gates) {
  Circuit c(k, k);
  for (int i = 0; i < gates; ++i) {
    const int a = static_cast<int>(rng.index(static_cast<std::size_t>(k)));
    const int b =
        (a + 1 + static_cast<int>(rng.index(static_cast<std::size_t>(k - 1)))) %
        k;
    switch (rng.index(4)) {
      case 0:
        c.h(a);
        break;
      case 1:
        c.cx(a, b);
        break;
      case 2:
        c.rz(rng.uniform(-3.0, 3.0), a);
        break;
      default:
        c.ry(rng.uniform(-3.0, 3.0), a);
        break;
    }
  }
  for (int q = 0; q < k; ++q) c.measure(q, q);
  return c;
}

/// Allocate and run one batch of `programs` on `epoch`, as run_parallel
/// does but through the epoch's caches.
void run_batch(const CalibrationEpoch& epoch, const Partitioner& partitioner,
               const std::vector<Circuit>& programs) {
  std::vector<ProgramShape> shapes;
  for (const Circuit& c : programs) shapes.push_back(shape_of(c));
  const auto assignments = allocate_batch(epoch.device(), partitioner, shapes,
                                          &epoch.candidate_index());
  ASSERT_TRUE(assignments.has_value());
  ParallelOptions options;
  options.exec.shots = 16;
  (void)run_batch_pipeline(epoch, programs, *assignments, {}, options);
}

void expect_within_budget(const EpochCacheStats& s, const std::string& at) {
  const std::size_t share = s.budget_bytes / kEpochCaches;
  for (const CacheStats* c : {&s.transpile, &s.allocation_states, &s.fused,
                              &s.executables}) {
    EXPECT_EQ(c->capacity, share) << at;
    EXPECT_LE(c->bytes, share) << at;
  }
  EXPECT_EQ(s.used_bytes, s.transpile.bytes + s.allocation_states.bytes +
                              s.fused.bytes + s.executables.bytes)
      << at;
  EXPECT_LE(s.used_bytes, s.budget_bytes) << at;
}

TEST(EpochCaches, DistinctCircuitStreamStaysWithinTheBudget) {
  // Each step below inserts into one cache of the epoch (allocation
  // states, transpile templates, fused programs with their fusion plans,
  // executables and their outcomes); the budget is checked after each.
  constexpr std::size_t kBudget = std::size_t{160} << 10;
  const CalibrationEpoch epoch(0, make_toronto27(), kBudget);
  const auto partitioner = make_partitioner(Method::QuCP, 4.0, std::nullopt);
  const TranspileOptions topts = hardware_aware_options();
  ExecOptions exec;
  exec.shots = 16;
  Rng rng(2024);
  for (int job = 0; job < 120; ++job) {
    const std::string at = "job " + std::to_string(job);
    const Circuit c =
        random_logical(rng, 2 + static_cast<int>(rng.index(3)), 24);
    const auto assignment = allocate_batch(epoch.device(), *partitioner,
                                           std::vector{shape_of(c)},
                                           &epoch.candidate_index());
    ASSERT_TRUE(assignment.has_value()) << at;
    expect_within_budget(epoch.cache_memory(), at + " allocate");
    TranspiledProgram tp =
        epoch.transpile(c, assignment->front().qubits, topts, 1);
    expect_within_budget(epoch.cache_memory(), at + " transpile");
    (void)epoch.compiled_program(c);
    expect_within_budget(epoch.cache_memory(), at + " fuse");
    (void)epoch.execute({{std::move(tp.physical), "p"}}, exec);
    expect_within_budget(epoch.cache_memory(), at + " execute");
  }
  // The budget binds: the one-use caches refused first sightings, and
  // every cache holds entries.
  const EpochCacheStats s = epoch.cache_memory();
  EXPECT_GT(s.transpile.refused, 0u);
  EXPECT_GT(s.fused.refused, 0u);
  EXPECT_GT(s.executables.refused, 0u);
  for (const CacheStats* c : {&s.transpile, &s.allocation_states, &s.fused,
                              &s.executables}) {
    EXPECT_GT(c->entries, 0u);
  }
}

TEST(EpochCaches, FusedChurnNeverEvictsAnExecutable) {
  const Device device = make_toronto27();
  const CompiledProgramCache cache(device, std::size_t{64} << 10);
  Circuit physical(device.num_qubits(), 2);
  physical.h(0);
  physical.cx(0, 1);
  physical.rz(0.3, 1);
  physical.measure(0, 0);
  physical.measure(1, 1);
  const CircuitFingerprints fp = circuit_fingerprints(physical);
  const auto exe = cache.executable(physical, fp);

  // One-use churn: every fused program is distinct.
  Rng rng(7);
  for (int i = 0; i < 400; ++i) (void)cache.fused(random_logical(rng, 3, 20));
  const CompiledProgramCache::Stats s = cache.stats();
  ASSERT_GT(s.fused.refused, 0u);
  EXPECT_EQ(s.executables.evictions, 0u);
  EXPECT_EQ(cache.executable(physical, fp), exe);  // still the cached binding
  EXPECT_EQ(cache.stats().executables.misses, 1u);
}

TEST(EpochCaches, OutcomeMemoIsChargedToItsExecutable) {
  const Device device = make_toronto27();
  const CompiledProgramCache cache(device);
  Circuit physical(device.num_qubits(), 2);
  physical.h(0);
  physical.cx(0, 1);
  physical.rz(0.3, 1);
  physical.measure(0, 0);
  physical.measure(1, 1);
  const CircuitFingerprints fp = circuit_fingerprints(physical);
  (void)cache.executable(physical, fp);
  const std::size_t bare = cache.stats().executables.bytes;

  const Distribution dist(2, {{0, 0.5}, {3, 0.5}});
  cache.store_outcome(fp, SchedulePolicy::ALAP, OutcomeKey{}, dist);
  const std::size_t with_one = cache.stats().executables.bytes;
  EXPECT_GT(with_one, bare);
  OutcomeKey shifted;
  shifted.shifts = {1.0, 2.0};
  cache.store_outcome(fp, SchedulePolicy::ALAP, shifted, dist);
  EXPECT_GT(cache.stats().executables.bytes, with_one);
  ASSERT_NE(cache.outcome(fp, SchedulePolicy::ALAP, shifted), nullptr);

  // A new binding drops the outcomes and their charge.
  Circuit rebound = physical;
  rebound.set_param(2, 0, 0.7);
  (void)cache.executable(rebound, circuit_fingerprints(rebound));
  EXPECT_EQ(cache.stats().executables.bytes, bare);
  EXPECT_EQ(cache.outcome(fp, SchedulePolicy::ALAP, shifted), nullptr);
  EXPECT_EQ(cache.stats().executables.misses, 1u);
}

TEST(EpochCaches, ConcurrentLanesStayWithinTheBudget) {
  // Lanes of one backend share its epoch: stream distinct batches from
  // several threads at once (TSan and ASan run this in CI).
  constexpr std::size_t kBudget = std::size_t{192} << 10;
  const CalibrationEpoch epoch(0, make_toronto27(), kBudget);
  constexpr int kThreads = 4;
  std::vector<std::thread> lanes;
  for (int t = 0; t < kThreads; ++t) {
    lanes.emplace_back([&epoch, t] {
      const auto partitioner =
          make_partitioner(Method::QuCP, 4.0, std::nullopt);
      Rng rng(1000 + static_cast<std::uint64_t>(t));
      for (int batch = 0; batch < 12; ++batch) {
        std::vector<Circuit> programs;
        for (int p = 0; p < 2; ++p) {
          programs.push_back(
              random_logical(rng, 2 + static_cast<int>(rng.index(3)), 16));
        }
        // Every lane also re-runs one shared batch, so lanes hit each
        // other's entries as well as inserting their own.
        Rng shared(77);
        programs.push_back(random_logical(shared, 3, 16));
        run_batch(epoch, *partitioner, programs);
        const EpochCacheStats s = epoch.cache_memory();
        EXPECT_LE(s.used_bytes, s.budget_bytes);
      }
    });
  }
  for (std::thread& lane : lanes) lane.join();
  const EpochCacheStats s = epoch.cache_memory();
  expect_within_budget(s, "after join");
  EXPECT_GT(s.executables.hits + s.fused.hits, 0u);
}

TEST(EpochCaches, RacingBindingsOfOneStructureEachGetTheirOwnProgram) {
  // Lanes scoring one sweep race on one structure's fused entry, each
  // lookup replacing the binding another lane just stored (TSan and ASan
  // run this in CI).
  constexpr std::size_t kBudget = std::size_t{64} << 10;
  const CalibrationEpoch epoch(0, make_toronto27(), kBudget);
  Rng rng(31);
  std::vector<Circuit> bindings(2, random_logical(rng, 3, 16));
  for (std::size_t i = 0; i < bindings[1].size(); ++i) {
    for (std::size_t j = 0; j < bindings[1].ops()[i].params.size(); ++j) {
      bindings[1].set_param(i, j, rng.uniform(-3.0, 3.0));
    }
  }
  ASSERT_EQ(structural_fingerprint(bindings[0]),
            structural_fingerprint(bindings[1]));
  ASSERT_NE(circuit_fingerprint(bindings[0]), circuit_fingerprint(bindings[1]));
  const CompiledProgram want[2] = {CompiledProgram::compile(bindings[0]),
                                   CompiledProgram::compile(bindings[1])};
  constexpr int kThreads = 4;
  std::vector<std::thread> lanes;
  for (int t = 0; t < kThreads; ++t) {
    lanes.emplace_back([&, t] {
      for (int i = 0; i < 64; ++i) {
        const std::size_t b = static_cast<std::size_t>(t + i) % 2;
        const auto program = epoch.compiled_program(bindings[b]);
        EXPECT_TRUE(test_programs::same_kernels(*program, want[b]))
            << "thread " << t << " call " << i;
      }
    });
  }
  for (std::thread& lane : lanes) lane.join();
  const EpochCacheStats s = epoch.cache_memory();
  expect_within_budget(s, "after join");
  EXPECT_EQ(s.fused.entries, 1u);
}

/// Every output one batch yields through an epoch.
struct BatchOutputs {
  std::vector<TranspiledProgram> transpiled;
  std::vector<Distribution> ideal;
  ParallelRunReport noisy;
};

/// Allocate, transpile and run `programs` on `epoch`, and take each
/// program's ideal distribution from its fused program.
BatchOutputs run_outputs(const CalibrationEpoch& epoch,
                         const Partitioner& partitioner,
                         const std::vector<Circuit>& programs) {
  BatchOutputs out;
  std::vector<ProgramShape> shapes;
  for (const Circuit& c : programs) shapes.push_back(shape_of(c));
  const auto assignments = allocate_batch(epoch.device(), partitioner, shapes,
                                          &epoch.candidate_index());
  if (!assignments.has_value()) {
    ADD_FAILURE() << "batch did not fit";
    return out;
  }
  const TranspileOptions topts = hardware_aware_options();
  std::vector<PhysicalProgram> physical;
  for (std::size_t p = 0; p < programs.size(); ++p) {
    const Circuit& c = programs[p];
    out.transpiled.push_back(
        epoch.transpile(c, (*assignments)[p].qubits, topts, 1));
    out.ideal.push_back(ideal_distribution(*epoch.compiled_program(c)));
    physical.push_back(
        {out.transpiled.back().physical, "p" + std::to_string(p)});
  }
  ExecOptions exec;
  exec.shots = 64;
  out.noisy = epoch.execute(std::move(physical), exec);
  return out;
}

void expect_same_distribution(const Distribution& got,
                              const Distribution& want,
                              const std::string& at) {
  EXPECT_EQ(got.num_bits(), want.num_bits()) << at;
  ASSERT_EQ(got.probs().size(), want.probs().size()) << at;
  for (std::size_t i = 0; i < got.probs().size(); ++i) {
    EXPECT_EQ(got.probs()[i].first, want.probs()[i].first) << at;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.probs()[i].second),
              std::bit_cast<std::uint64_t>(want.probs()[i].second))
        << at << " outcome " << got.probs()[i].first;
  }
}

void expect_same_outputs(const BatchOutputs& got, const BatchOutputs& want,
                         const std::string& at) {
  ASSERT_EQ(got.transpiled.size(), want.transpiled.size()) << at;
  for (std::size_t p = 0; p < got.transpiled.size(); ++p) {
    const TranspiledProgram& a = got.transpiled[p];
    const TranspiledProgram& b = want.transpiled[p];
    EXPECT_EQ(a.physical.ops(), b.physical.ops()) << at;
    EXPECT_EQ(a.initial_layout, b.initial_layout) << at;
    EXPECT_EQ(a.final_layout, b.final_layout) << at;
    EXPECT_EQ(a.swaps_added, b.swaps_added) << at;
    expect_same_distribution(got.ideal[p], want.ideal[p], at + " ideal");
  }
  ASSERT_EQ(got.noisy.programs.size(), want.noisy.programs.size()) << at;
  for (std::size_t p = 0; p < got.noisy.programs.size(); ++p) {
    const ProgramOutcome& a = got.noisy.programs[p];
    const ProgramOutcome& b = want.noisy.programs[p];
    expect_same_distribution(a.distribution, b.distribution, at + " noisy");
    EXPECT_EQ(a.counts.data(), b.counts.data()) << at;
  }
}

/// A stream of two-program batches mixing distinct circuits, exact
/// repeats and fresh bindings of structures seen before.
class MixedStream {
 public:
  explicit MixedStream(std::uint64_t seed) : rng_(seed) {}

  std::vector<Circuit> next() {
    std::vector<Circuit> batch;
    for (int p = 0; p < 2; ++p) {
      const std::size_t roll = seen_.empty() ? 0 : rng_.index(4);
      if (roll < 2) {
        seen_.push_back(
            random_logical(rng_, 2 + static_cast<int>(rng_.index(3)), 16));
        batch.push_back(seen_.back());
      } else if (roll == 2) {
        batch.push_back(seen_[rng_.index(seen_.size())]);
      } else {
        Circuit c = seen_[rng_.index(seen_.size())];
        for (std::size_t i = 0; i < c.size(); ++i) {
          for (std::size_t j = 0; j < c.ops()[i].params.size(); ++j) {
            c.set_param(i, j, rng_.uniform(-3.0, 3.0));
          }
        }
        batch.push_back(std::move(c));
      }
    }
    return batch;
  }

 private:
  Rng rng_;
  std::vector<Circuit> seen_;
};

/// A budget that refuses, admits and evicts in each per-circuit cache
/// within a few dozen batches of MixedStream.
constexpr std::size_t kTightBudget = std::size_t{96} << 10;

void expect_admission_at_work(const EpochCacheStats& s) {
  for (const CacheStats* c : {&s.transpile, &s.fused, &s.executables}) {
    EXPECT_GT(c->refused, 0u);
    EXPECT_GT(c->evictions, 0u);
    EXPECT_GT(c->hits, 0u);
  }
}

TEST(EpochCaches, AdmissionChangesNoOutputAgainstABudgetOfZero) {
  const CalibrationEpoch tight(0, make_toronto27(), kTightBudget);
  const CalibrationEpoch none(0, make_toronto27(), 0);
  const auto partitioner = make_partitioner(Method::QuCP, 4.0, std::nullopt);
  MixedStream stream(4242);
  for (int batch = 0; batch < 80; ++batch) {
    const std::vector<Circuit> programs = stream.next();
    expect_same_outputs(run_outputs(tight, *partitioner, programs),
                        run_outputs(none, *partitioner, programs),
                        "batch " + std::to_string(batch));
  }
  expect_admission_at_work(tight.cache_memory());
  expect_within_budget(tight.cache_memory(), "tight");
}

TEST(EpochCaches, ConcurrentAdmissionChangesNoOutputAgainstABudgetOfZero) {
  // Lanes share one tight epoch, racing on its doorkeepers (TSan and ASan
  // run this in CI); each checks its batches against a budget-0 epoch.
  const CalibrationEpoch tight(0, make_toronto27(), kTightBudget);
  const CalibrationEpoch none(0, make_toronto27(), 0);
  constexpr int kThreads = 4;
  std::vector<std::thread> lanes;
  for (int t = 0; t < kThreads; ++t) {
    lanes.emplace_back([&, t] {
      const auto partitioner =
          make_partitioner(Method::QuCP, 4.0, std::nullopt);
      // Two lanes per stream seed, so lanes repeat each other's circuits.
      MixedStream stream(500 + static_cast<std::uint64_t>(t % 2));
      for (int batch = 0; batch < 30; ++batch) {
        const std::vector<Circuit> programs = stream.next();
        expect_same_outputs(run_outputs(tight, *partitioner, programs),
                            run_outputs(none, *partitioner, programs),
                            "lane " + std::to_string(t) + " batch " +
                                std::to_string(batch));
      }
    });
  }
  for (std::thread& lane : lanes) lane.join();
  expect_admission_at_work(tight.cache_memory());
  expect_within_budget(tight.cache_memory(), "after join");
}

TEST(EpochCaches, ServiceStatsReportEveryCachePerBackend) {
  ServiceOptions opts;
  opts.exec.shots = 32;
  opts.num_workers = 1;
  opts.cache_budget_bytes = std::size_t{1} << 20;
  ExecutionService service(make_toronto27(), opts);
  Rng rng(5);
  std::vector<JobHandle> handles;
  for (int i = 0; i < 8; ++i) {
    Circuit c = random_logical(rng, 3, 12);
    handles.push_back(service.submit(c));
    handles.push_back(service.submit(c));  // an exact repeat
  }
  service.flush();
  for (const JobHandle& h : handles) {
    ASSERT_EQ(h.status(), JobStatus::Done) << h.error();
  }
  const ServiceStats stats = service.stats();
  ASSERT_EQ(stats.backends.size(), 1u);
  const EpochCacheStats& s = stats.backends[0].caches;
  EXPECT_EQ(s.budget_bytes, opts.cache_budget_bytes);
  expect_within_budget(s, "service");
  for (const CacheStats* c : {&s.transpile, &s.allocation_states, &s.fused,
                              &s.executables}) {
    EXPECT_GT(c->entries, 0u);
    EXPECT_GT(c->bytes, 0u);
    EXPECT_GT(c->misses, 0u);
  }
  EXPECT_GT(s.allocation_states.hits, 0u);
  EXPECT_GT(s.fused.hits, 0u);  // the exact repeats
  EXPECT_EQ(s.transpile.misses, stats.backends[0].transpile_cache.misses);
  EXPECT_EQ(s.transpile.entries, stats.backends[0].transpile_cache.entries);
  // Sixteen jobs never fill a 1 MiB budget, so nothing was refused.
  for (const CacheStats* c : {&s.transpile, &s.allocation_states, &s.fused,
                              &s.executables}) {
    EXPECT_EQ(c->refused, 0u);
  }
  EXPECT_EQ(s.transpile.refused, stats.backends[0].transpile_cache.refused);
  EXPECT_EQ(stats.transpile_cache.refused,
            stats.backends[0].transpile_cache.refused);
}

}  // namespace
}  // namespace qucp
