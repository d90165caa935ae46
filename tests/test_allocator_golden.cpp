// Golden suite for the CandidateIndex-backed allocator: across randomized
// batch streams on every bundled topology, allocation through a persistent
// index and through the zero-budget index an index-less call walks must
// both produce bit-identical results to the index-less reference loops
// (tests/reference_allocator.hpp) — the same candidate partitions, chosen
// in the same order, with the same EFS doubles — for every candidate-based
// partitioner, and the packer must make identical packing decisions. This
// is the contract that lets the service use the memoized allocator without
// a behavior flag. The candidate generator itself is pinned by a hash of
// its output.

#include "partition/candidate_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "partition/candidates.hpp"
#include "partition/partitioners.hpp"
#include "reference_allocator.hpp"
#include "service/fleet.hpp"

namespace qucp {
namespace {

std::vector<Device> bundled_devices() {
  std::vector<Device> devices;
  devices.push_back(make_melbourne16());
  devices.push_back(make_toronto27());
  devices.push_back(make_manhattan65());
  devices.push_back(make_line_device(9));
  devices.push_back(make_grid_device(4, 5));
  return devices;
}

using reference::PartitionerPair;

/// Every candidate-based partitioner with its reference twin; QuMC gets
/// random per-pair estimates.
std::vector<PartitionerPair> candidate_partitioners(const Device& device,
                                                    Rng& rng) {
  std::vector<PartitionerPair> out;
  out.push_back(reference::pair_of(Method::QuCP));
  CrosstalkModel estimates;
  for (const auto& [e1, e2] : device.topology().one_hop_edge_pairs()) {
    if (rng.bernoulli(0.5)) {
      estimates.add_pair(e1, e2, rng.uniform(1.0, 8.0));
    }
  }
  out.push_back(reference::pair_of(Method::QuMC, 4.0, estimates));
  out.push_back(reference::pair_of(Method::QuCloud));
  out.push_back(reference::pair_of(Method::MultiQC));
  return out;
}

/// Random batch of shapes; sizes occasionally too large so infeasible
/// batches (nullopt) are part of the golden stream.
std::vector<ProgramShape> random_batch(Rng& rng, int max_qubits) {
  const int batch_size = static_cast<int>(rng.integer(1, 5));
  std::vector<ProgramShape> shapes;
  for (int i = 0; i < batch_size; ++i) {
    ProgramShape s;
    s.num_qubits = static_cast<int>(rng.integer(1, max_qubits));
    s.num_2q = static_cast<int>(rng.integer(0, 30));
    s.num_1q = static_cast<int>(rng.integer(0, 40));
    if (s.num_qubits < 2) s.num_2q = 0;
    shapes.push_back(s);
  }
  return shapes;
}

void expect_identical(
    const std::optional<std::vector<PartitionAssignment>>& reference,
    const std::optional<std::vector<PartitionAssignment>>& indexed,
    const std::string& context) {
  ASSERT_EQ(reference.has_value(), indexed.has_value()) << context;
  if (!reference) return;
  ASSERT_EQ(reference->size(), indexed->size()) << context;
  for (std::size_t i = 0; i < reference->size(); ++i) {
    const PartitionAssignment& a = (*reference)[i];
    const PartitionAssignment& b = (*indexed)[i];
    EXPECT_EQ(a.qubits, b.qubits) << context << " program " << i;
    // EXPECT_EQ on doubles: the claim is bit-identity, not closeness.
    EXPECT_EQ(a.efs.score, b.efs.score) << context << " program " << i;
    EXPECT_EQ(a.efs.avg_2q, b.efs.avg_2q) << context << " program " << i;
    EXPECT_EQ(a.efs.avg_1q, b.efs.avg_1q) << context << " program " << i;
    EXPECT_EQ(a.efs.readout_sum, b.efs.readout_sum)
        << context << " program " << i;
    EXPECT_EQ(a.efs.crosstalk_edges, b.efs.crosstalk_edges)
        << context << " program " << i;
  }
}

TEST(AllocatorGolden, IndexedAllocationBitIdenticalOnAllTopologies) {
  Rng rng(20260730);
  for (const Device& device : bundled_devices()) {
    CandidateIndex index(device);  // persists across batches, like Backend's
    const int max_qubits = std::min(6, device.num_qubits());
    auto partitioners = candidate_partitioners(device, rng);
    for (int batch = 0; batch < 24; ++batch) {
      std::vector<ProgramShape> shapes = random_batch(rng, max_qubits);
      const std::vector<std::size_t> order = allocation_order(shapes);
      std::vector<ProgramShape> ordered;
      for (std::size_t idx : order) ordered.push_back(shapes[idx]);
      for (const auto& [subject, oracle] : partitioners) {
        const std::string context = device.name() + "/" + subject->name() +
                                    "/batch" + std::to_string(batch);
        const auto reference = oracle->allocate(device, ordered);
        expect_identical(reference, subject->allocate(device, ordered, &index),
                         context);
        expect_identical(reference, subject->allocate(device, ordered),
                         context + "/zero-budget");
      }
    }
  }
}

TEST(AllocatorGolden, CopiedQumcPartitionerOutlivesItsOriginal) {
  // A partitioner owns its estimates and builds its crosstalk policy per
  // call, so a copy must keep allocating correctly once the original (and
  // everything it owned) is gone.
  const Device device = make_toronto27();
  Rng rng(1729);
  CrosstalkModel estimates;
  for (const auto& [e1, e2] : device.topology().one_hop_edge_pairs()) {
    estimates.add_pair(e1, e2, rng.uniform(1.0, 8.0));
  }
  auto original =
      std::make_unique<MethodPartitioner>(Method::QuMC, 4.0, estimates);
  const MethodPartitioner copy = *original;
  original.reset();
  const auto oracle = reference::qumc(estimates);
  for (int batch = 0; batch < 8; ++batch) {
    std::vector<ProgramShape> shapes = random_batch(rng, 6);
    const std::vector<std::size_t> order = allocation_order(shapes);
    std::vector<ProgramShape> ordered;
    for (std::size_t idx : order) ordered.push_back(shapes[idx]);
    CandidateIndex index(device);
    const std::string context = "batch" + std::to_string(batch);
    const auto want = oracle->allocate(device, ordered);
    expect_identical(want, copy.allocate(device, ordered, &index), context);
    expect_identical(want, copy.allocate(device, ordered),
                     context + "/zero-budget");
  }
}

TEST(AllocatorGolden, CandidateGenerationHashIsPinned) {
  // partition_candidates is the one candidate generator: the memo builds
  // its states from it, so the indexed-vs-reference goldens above and
  // below compare it with itself and cannot see a change to it. Pin its
  // output — every set, in order — over every bundled device, a seeded
  // stream of allocations (grown by committing a candidate, as the greedy
  // allocators do, or by scattered qubits) and widths 1-6. The value was
  // computed before the generator was last restructured; a deliberate
  // change to the heuristic must update it.
  Rng rng(20261017);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  std::size_t total = 0;
  for (const Device& device : bundled_devices()) {
    const int n = device.num_qubits();
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<int> allocated;
      std::vector<char> taken(static_cast<std::size_t>(n), 0);
      for (int round = 0; round < 5; ++round) {
        const int k = static_cast<int>(rng.integer(1, 6));
        const auto candidates = partition_candidates(device, k, allocated);
        mix(static_cast<std::uint64_t>(k));
        mix(candidates.size());
        for (const auto& part : candidates) {
          for (int q : part) mix(static_cast<std::uint64_t>(q));
        }
        total += candidates.size();
        if (!candidates.empty() && rng.bernoulli(0.7)) {
          const auto& pick = candidates[static_cast<std::size_t>(rng.integer(
              0, static_cast<std::int64_t>(candidates.size()) - 1))];
          for (int q : pick) taken[static_cast<std::size_t>(q)] = 1;
        } else {
          for (int q = 0; q < n; ++q) {
            if (rng.bernoulli(0.1)) taken[static_cast<std::size_t>(q)] = 1;
          }
        }
        allocated.clear();
        for (int q = 0; q < n; ++q) {
          if (taken[static_cast<std::size_t>(q)]) allocated.push_back(q);
        }
      }
    }
  }
  EXPECT_GT(total, 1000u) << total;
  EXPECT_EQ(h, 0x8783d43a6cfc38e3ULL) << std::hex << "0x" << h;
}

TEST(AllocatorGolden, PackerDecisionsIdenticalWithIndex) {
  const Device device = make_toronto27();
  CandidateIndex index(device);
  const auto partitioner = make_partitioner(Method::QuCP, 4.0, std::nullopt);
  const auto oracle = reference::qucp();
  Rng rng(99);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<PackJob> jobs;
    const int n = static_cast<int>(rng.integer(1, 12));
    for (int i = 0; i < n; ++i) {
      ProgramShape s;
      s.num_qubits = static_cast<int>(rng.integer(1, 6));
      s.num_2q = s.num_qubits >= 2 ? static_cast<int>(rng.integer(0, 20)) : 0;
      s.num_1q = static_cast<int>(rng.integer(0, 20));
      jobs.push_back({static_cast<std::size_t>(i), s,
                      rng.next_u64(), rng.bernoulli(0.15)});
    }
    PackOptions opts;
    opts.max_batch_size = static_cast<int>(rng.integer(1, 5));
    opts.efs_threshold = rng.bernoulli(0.5) ? rng.uniform(0.0, 0.5)
                                            : PackOptions{}.efs_threshold;
    std::map<std::uint64_t, double> cache_ref;
    std::map<std::uint64_t, double> cache_idx;
    const FleetSlot slot_ref{&device, nullptr, &cache_ref};
    const FleetSlot slot_idx{&device, &index, &cache_idx};
    RoutingPolicy policy(RoutePolicy::BestEfs);  // one slot: not consulted
    const FleetPlan reference = pack_fleet(
        std::span<const FleetSlot>(&slot_ref, 1), jobs, *oracle, opts, policy);
    const FleetPlan indexed = pack_fleet(
        std::span<const FleetSlot>(&slot_idx, 1), jobs, *partitioner, opts,
        policy);
    ASSERT_EQ(reference.batches[0].size(), indexed.batches[0].size()) << trial;
    for (std::size_t b = 0; b < reference.batches[0].size(); ++b) {
      EXPECT_EQ(reference.batches[0][b].jobs, indexed.batches[0][b].jobs)
          << trial << " batch " << b;
    }
    EXPECT_EQ(reference.unplaceable, indexed.unplaceable) << trial;
    EXPECT_EQ(reference.spill_events, indexed.spill_events) << trial;
    EXPECT_EQ(cache_ref, cache_idx) << trial;
  }
}

TEST(AllocatorGolden, IndexValidatesPartitionSize) {
  const Device device = make_line_device(5);
  CandidateIndex index(device);
  EXPECT_THROW((void)index.state(index.empty_key(0)), std::invalid_argument);
  EXPECT_THROW((void)index.state(index.empty_key(-3)), std::invalid_argument);
  // A rejected width is neither looked up nor recorded.
  EXPECT_EQ(index.state_stats().misses, 0u);
  EXPECT_TRUE(index.cached_sizes().empty());
  EXPECT_EQ(index.state(index.empty_key(2))->size(),
            partition_candidates(device, 2, {}).size());
  EXPECT_EQ(index.cached_sizes(), (std::vector<int>{2}));
}

TEST(AllocatorGolden, OversizedProgramsYieldNoCandidates) {
  const Device device = make_line_device(4);
  CandidateIndex index(device);
  const auto partitioner = make_partitioner(Method::QuCP, 4.0, std::nullopt);
  const std::vector<ProgramShape> programs{ProgramShape{5, 3, 3}};
  EXPECT_FALSE(partitioner->allocate(device, programs, &index).has_value());
  EXPECT_FALSE(partitioner->allocate(device, programs).has_value());
  EXPECT_FALSE(reference::qucp()->allocate(device, programs).has_value());
}

/// An allocate() outcome that also captures a thrown invalid_argument, so
/// golden comparisons cover the error path too.
struct Outcome {
  std::optional<std::vector<PartitionAssignment>> result;
  std::string error;
};

Outcome run_allocate(const Partitioner& partitioner, const Device& device,
                     std::span<const ProgramShape> programs,
                     const CandidateIndex* index) {
  Outcome out;
  try {
    out.result = partitioner.allocate(device, programs, index);
  } catch (const std::invalid_argument& e) {
    out.error = e.what();
  }
  return out;
}

void expect_same_outcome(const Outcome& reference, const Outcome& indexed,
                         const std::string& context) {
  EXPECT_EQ(reference.error, indexed.error) << context;
  expect_identical(reference.result, indexed.result, context);
}

TEST(AllocatorGolden, MemoSharedAcrossPoliciesBitIdentical) {
  // One index per topology serves QuCP at two sigmas, QuMC, QuCloud and
  // MultiQC interleaved, so memoized states built under one policy are
  // rescored under the others; each must match its reference twin.
  // Batches include widths that do not fit and 2q gates on a 1-qubit
  // program (efs_score's "needs an edge" throw, which must still fire when
  // the state comes from the memo).
  Rng rng(20261017);
  std::vector<Device> devices;
  devices.push_back(make_melbourne16());
  devices.push_back(make_toronto27());
  devices.push_back(make_manhattan65());
  for (const Device& device : devices) {
    CandidateIndex index(device);
    std::vector<PartitionerPair> partitioners;
    partitioners.push_back(reference::pair_of(Method::QuCP, 4.0));
    partitioners.push_back(reference::pair_of(Method::QuCP, 2.0));
    CrosstalkModel estimates;
    for (const auto& [e1, e2] : device.topology().one_hop_edge_pairs()) {
      if (rng.bernoulli(0.5)) estimates.add_pair(e1, e2, rng.uniform(1.0, 8.0));
    }
    partitioners.push_back(reference::pair_of(Method::QuMC, 4.0, estimates));
    partitioners.push_back(reference::pair_of(Method::QuCloud));
    partitioners.push_back(reference::pair_of(Method::MultiQC));

    const int n = device.num_qubits();
    for (int batch = 0; batch < 40; ++batch) {
      std::vector<ProgramShape> shapes;
      const int batch_size = static_cast<int>(rng.integer(1, 6));
      for (int i = 0; i < batch_size; ++i) {
        ProgramShape s;
        s.num_qubits = rng.bernoulli(0.05)
                           ? n + 1
                           : static_cast<int>(rng.integer(1, 7));
        s.num_2q = static_cast<int>(rng.integer(0, 30));
        s.num_1q = static_cast<int>(rng.integer(0, 40));
        if (s.num_qubits < 2 && rng.bernoulli(0.7)) s.num_2q = 0;
        shapes.push_back(s);
      }
      const std::vector<std::size_t> order = allocation_order(shapes);
      std::vector<ProgramShape> ordered;
      for (std::size_t idx : order) ordered.push_back(shapes[idx]);
      // Start from a different partitioner each batch.
      const std::size_t first =
          static_cast<std::size_t>(rng.integer(0, 4));
      for (std::size_t p = 0; p < partitioners.size(); ++p) {
        const PartitionerPair& pair =
            partitioners[(first + p) % partitioners.size()];
        const std::string context = device.name() + "/" +
                                    pair.subject->name() + "/batch" +
                                    std::to_string(batch);
        const Outcome reference =
            run_allocate(*pair.oracle, device, ordered, nullptr);
        expect_same_outcome(
            reference, run_allocate(*pair.subject, device, ordered, &index),
            context);
        expect_same_outcome(
            reference, run_allocate(*pair.subject, device, ordered, nullptr),
            context + "/zero-budget");
      }
    }

    // The 1-qubit state is memoized by now; a 1-qubit program with 2q
    // gates must still throw on the hit, for every partitioner.
    const std::vector<ProgramShape> plain{ProgramShape{1, 0, 3}};
    const std::vector<ProgramShape> needs_edge{ProgramShape{1, 2, 3}};
    for (const auto& [subject, oracle] : partitioners) {
      ASSERT_TRUE(subject->allocate(device, plain, &index).has_value());
      const Outcome hit = run_allocate(*subject, device, needs_edge, &index);
      EXPECT_EQ(hit.error, "efs_score: program needs an edge")
          << device.name() << "/" << subject->name();
      expect_same_outcome(
          run_allocate(*oracle, device, needs_edge, nullptr), hit,
          device.name() + "/" + subject->name() + "/needs_edge");
    }
    EXPECT_LE(index.state_stats().bytes, kDefaultCacheBytes);
  }
}

TEST(AllocatorGolden, MemoStatesMatchReferenceOnArbitraryMasks) {
  // Greedy allocations only reach unions of connected partitions; pin the
  // memoized states on arbitrary allocated sets too (isolated qubits,
  // scattered edges): the same candidates as partition_candidates and,
  // per candidate, efs_score's breakdown under a flat sigma and under
  // per-pair estimates.
  Rng rng(5150);
  std::vector<Device> devices;
  devices.push_back(make_melbourne16());
  devices.push_back(make_toronto27());
  devices.push_back(make_manhattan65());
  for (const Device& device : devices) {
    CandidateIndex index(device);
    const CrosstalkPolicy sigma(4.0);
    CrosstalkModel estimates;
    for (const auto& [e1, e2] : device.topology().one_hop_edge_pairs()) {
      estimates.add_pair(e1, e2, rng.uniform(1.0, 8.0));
    }
    const CrosstalkPolicy measured(estimates);
    for (int trial = 0; trial < 60; ++trial) {
      const int k = static_cast<int>(rng.integer(1, 5));
      CandidateIndex::StateKey key = index.empty_key(k);
      std::vector<int> allocated;
      for (int q = 0; q < device.num_qubits(); ++q) {
        if (rng.bernoulli(0.25)) allocated.push_back(q);
      }
      key.allocate(allocated);
      const auto state = index.state(key);
      const auto reference = partition_candidates(device, k, allocated);
      ASSERT_EQ(state->size(), reference.size()) << device.name();
      ProgramShape shape{k, k >= 2 ? 5 : 0, 7};
      for (std::size_t i = 0; i < reference.size(); ++i) {
        const std::span<const int> part = state->part(i);
        ASSERT_EQ(std::vector<int>(part.begin(), part.end()), reference[i]);
        for (const CrosstalkPolicy* policy : {&sigma, &measured}) {
          const EfsBreakdown want =
              efs_score(device, reference[i], shape, allocated, *policy);
          const EfsBreakdown got = state->score(i, shape, *policy);
          const std::string context = device.name() + "/trial" +
                                      std::to_string(trial) + "/cand" +
                                      std::to_string(i);
          EXPECT_EQ(want.score, got.score) << context;
          EXPECT_EQ(want.avg_2q, got.avg_2q) << context;
          EXPECT_EQ(want.avg_1q, got.avg_1q) << context;
          EXPECT_EQ(want.readout_sum, got.readout_sum) << context;
          EXPECT_EQ(want.crosstalk_edges, got.crosstalk_edges) << context;
        }
      }
    }
  }
}

TEST(AllocatorGolden, ConcurrentAllocationMatchesSingleThreaded) {
  // Dispatch probes and every lane's batch pipeline share one epoch index:
  // four threads allocate overlapping batch lists on one cold index and
  // must each reproduce the single-threaded reference results.
  const Device device = make_toronto27();
  const auto qucp = make_partitioner(Method::QuCP, 4.0, std::nullopt);
  const auto multiqc = make_partitioner(Method::MultiQC, 4.0, std::nullopt);
  const auto qucp_oracle = reference::qucp(4.0);
  const auto multiqc_oracle = reference::multiqc();
  Rng rng(4242);
  std::vector<std::vector<ProgramShape>> batches;
  for (int b = 0; b < 24; ++b) {
    std::vector<ProgramShape> shapes = random_batch(rng, 6);
    const std::vector<std::size_t> order = allocation_order(shapes);
    std::vector<ProgramShape> ordered;
    for (std::size_t idx : order) ordered.push_back(shapes[idx]);
    batches.push_back(std::move(ordered));
  }
  const auto partitioner_of = [&](std::size_t b) -> const Partitioner& {
    return b % 3 == 0 ? *multiqc : *qucp;
  };
  std::vector<std::optional<std::vector<PartitionAssignment>>> reference;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const Partitioner& oracle =
        b % 3 == 0 ? *multiqc_oracle : *qucp_oracle;
    reference.push_back(oracle.allocate(device, batches[b]));
  }

  CandidateIndex index(device);
  constexpr int kThreads = 4;
  std::vector<std::vector<std::optional<std::vector<PartitionAssignment>>>>
      got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks every batch, starting at a different offset, so
      // the threads race on the same memo keys.
      got[t].resize(batches.size());
      for (std::size_t i = 0; i < batches.size(); ++i) {
        const std::size_t b = (i + static_cast<std::size_t>(t) * 5) %
                              batches.size();
        got[t][b] = partitioner_of(b).allocate(device, batches[b], &index);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    for (std::size_t b = 0; b < batches.size(); ++b) {
      expect_identical(reference[b], got[t][b],
                       "thread" + std::to_string(t) + "/batch" +
                           std::to_string(b));
    }
  }
}

TEST(AllocatorGolden, MemoStaysBoundedAndResultsUnchanged) {
  // Flood one index with more distinct (allocated set, k) states than its
  // byte capacity holds: the memo must stay within its capacity after every
  // insert and fill it, a state handed out before its eviction must stay
  // readable, and allocations must still match the reference afterwards.
  const Device device = make_manhattan65();
  constexpr std::size_t kCapacity = std::size_t{256} << 10;
  CandidateIndex index(device, kCapacity);
  const auto qucp = make_partitioner(Method::QuCP, 4.0, std::nullopt);
  const std::vector<ProgramShape> golden_batch = {
      {5, 10, 10}, {4, 7, 8}, {3, 4, 6}, {2, 3, 3}};
  const auto want = reference::qucp(4.0)->allocate(device, golden_batch);
  expect_identical(want, qucp->allocate(device, golden_batch, &index),
                   "before flood");
  const std::shared_ptr<const CandidateIndex::State> early =
      index.state(index.empty_key(3));
  const std::size_t early_size = early->size();
  const EfsBreakdown early_score =
      early->score(0, ProgramShape{3, 2, 2}, CrosstalkPolicy(4.0));

  Rng rng(31337);
  std::set<std::pair<std::vector<std::uint64_t>, int>> distinct;
  std::size_t largest = 0;  // largest per-state charge seen
  while (index.state_stats().evictions < 200) {
    CandidateIndex::StateKey key =
        index.empty_key(static_cast<int>(rng.integer(1, 4)));
    std::vector<int> qubits;
    for (int q = 0; q < device.num_qubits(); ++q) {
      if (rng.bernoulli(0.2)) qubits.push_back(q);
    }
    key.allocate(qubits);
    const bool fresh = distinct.insert({key.allocated, key.k}).second;
    const CacheStats before = index.state_stats();
    (void)index.state(key);
    const CacheStats after = index.state_stats();
    if (fresh && after.evictions == before.evictions) {
      ASSERT_EQ(after.entries, before.entries + 1);
      largest = std::max(largest, after.bytes - before.bytes);
    }
    ASSERT_LE(after.bytes, kCapacity);
  }
  // Full: the memo evicted only to make room, so what is left of its
  // capacity cannot hold another state.
  EXPECT_LT(kCapacity - index.state_stats().bytes, largest);

  ASSERT_EQ(early->size(), early_size);
  const EfsBreakdown again =
      early->score(0, ProgramShape{3, 2, 2}, CrosstalkPolicy(4.0));
  EXPECT_EQ(again.score, early_score.score);
  expect_identical(want, qucp->allocate(device, golden_batch, &index),
                   "after flood");
}

}  // namespace
}  // namespace qucp
