#pragma once
// CandidateIndex: memoized allocation states for the EFS allocators.
//
// A greedy allocator (Partitioner::allocate, solo_efs_score) places a
// batch one program at a time, and each placement generates the candidate
// parts of the current allocation state and scores them. Every
// candidate-based partitioner walks those states through an index: the
// caller's persistent one, or a zero-budget one of its own that memoizes
// nothing. Dispatch probes and lane pipelines replay the same prefixes
// batch after batch, so the index memoizes whole allocation states:
// state(key) returns, for one (allocated-qubit set, k), the candidate
// parts in partition_candidates order, each candidate's static EFS base
// (plain average CX error, 1q errors, readout sum) and induced edges, and
// per candidate edge the allocated edges one hop away (Topology::one_hop,
// in edge-id order). Those are all policy-independent, so State::score()
// rescores a candidate under any CrosstalkPolicy: QuCP at any sigma, QuMC,
// QuCloud and MultiQC share entries.
//
// State::score() is the one implementation of Eq. 1: efs_score (the
// first-fit methods' scorer) builds a one-candidate State and scores it.
// tests/reference_allocator.hpp keeps an independent Eq. 1 loop
// (reference::efs_score) and the index-less greedy loops built on it, and
// tests/test_allocator_golden.cpp compares the two bit for bit.
//
// A miss builds its state from partition_candidates(device, k, allocated)
// — the one candidate generator — so the memo cannot drift from it.
// Misses are rare on service traffic (a fraction of a percent of lookups
// on e2ebench's workloads), since every batch walks states its
// predecessors already built.
//
// Key: the allocated set as a bitmask over device qubits plus k — values
// only, never an address, so an entry cannot leak between indexes.
// Lifetime: the memo lives and dies with its index (one per calibration
// epoch, so a recalibration starts it cold). It is a BoundedCache
// (common/bounded_cache.hpp) holding at most the bytes it is given — the
// epoch's share for it — and evicts least recently used states first, so
// the hot ones (the empty allocation of each width) survive a stream of
// one-use ones. Entries are shared_ptr, so eviction never frees a state a
// caller is still reading. The index also records the widths it has
// built states for; Backend::recalibrate warm-builds the empty state of
// each on the successor epoch's index off-lane.
//
// Thread-safety: memo states are published through the BoundedCache and
// immutable afterwards, and the width set has its own mutex, so dispatch
// probes and every lane's batch pipeline share one index.

#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <vector>

#include "common/bounded_cache.hpp"
#include "partition/efs.hpp"

namespace qucp {

class CandidateIndex {
 public:
  /// Memo key: the allocated-qubit set (bit q of word q / 64) and the
  /// partition width k.
  struct StateKey {
    std::vector<std::uint64_t> allocated;
    int k = 0;
    bool operator==(const StateKey&) const = default;
    /// Add `qubits` to the allocated set.
    void allocate(std::span<const int> qubits);
  };

  /// Everything EFS scoring derives from a list of candidates against one
  /// allocation, independent of the crosstalk policy. An index's states
  /// hold partition_candidates' list (sorted sets, lexicographic). score()
  /// reads the device, so a State must not outlive it.
  class State {
   public:
    /// The state of `candidates` (k qubits each, kept in the order given)
    /// against the qubits in `allocated`.
    State(const Device& device, int k, std::span<const int> allocated,
          std::span<const std::vector<int>> candidates);

    [[nodiscard]] std::size_t size() const noexcept { return base_.size(); }
    /// Qubits of candidate i, in the order given.
    [[nodiscard]] std::span<const int> part(std::size_t i) const noexcept {
      return {parts_.data() + i * static_cast<std::size_t>(k_),
              static_cast<std::size_t>(k_)};
    }
    /// Eq. 1 for candidate i under `policy`: efs_score(device, part(i),
    /// shape, allocated, policy). `crosstalk_edges` is left empty unless
    /// `with_edges` is set. Throws std::invalid_argument when the shape's
    /// width is not k or it has 2q gates and k < 2.
    [[nodiscard]] EfsBreakdown score(std::size_t i, const ProgramShape& shape,
                                     const CrosstalkPolicy& policy,
                                     bool with_edges = true) const;
    /// Heap footprint estimate (cache budget charge).
    [[nodiscard]] std::size_t bytes() const noexcept;

   private:
    /// Static (allocation-independent) EFS components of one candidate:
    /// edge errors in induced-edge order, 1q and readout errors in the
    /// candidate's qubit order.
    struct BaseScore {
      double edge_error_total = 0.0;  ///< sum of min(1, cx_error) over edges
      int num_edges = 0;              ///< induced partition-internal edges
      double q1_total = 0.0;          ///< sum of 1q errors over the qubits
      double readout_sum = 0.0;       ///< sum of readout errors
    };

    const Device* device_;
    int k_;
    std::vector<int> parts_;           ///< k qubits per candidate
    std::vector<BaseScore> base_;      ///< per candidate
    /// Candidate i's induced edges are edges_[edge_begin_[i]..[i + 1]).
    std::vector<std::uint32_t> edge_begin_;
    std::vector<int> edges_;
    /// Allocated edges one hop from edges_[j], in edge-id order:
    /// hops_[hop_begin_[j]..[j + 1]).
    std::vector<std::uint32_t> hop_begin_;
    std::vector<int> hops_;
  };

  /// The device must outlive the index (a CalibrationEpoch owns both).
  /// The state memo holds at most `state_cache_bytes`; 0 stores nothing,
  /// so every state() builds its state afresh.
  explicit CandidateIndex(const Device& device,
                          std::size_t state_cache_bytes = kDefaultCacheBytes)
      : device_(&device), states_(state_cache_bytes) {}

  CandidateIndex(const CandidateIndex&) = delete;
  CandidateIndex& operator=(const CandidateIndex&) = delete;

  /// Widths the index has built states for, ascending. Backend::
  /// recalibrate warm-builds the empty state of each on the successor
  /// epoch (CalibrationEpoch::warm), so its first dispatch cycle misses no
  /// single-program allocation.
  [[nodiscard]] std::vector<int> cached_sizes() const;

  /// An empty allocation (no qubit allocated) at width k.
  [[nodiscard]] StateKey empty_key(int k) const;

  /// Memoized state for `key`, built from partition_candidates on a miss.
  /// Throws std::invalid_argument for k <= 0.
  [[nodiscard]] std::shared_ptr<const State> state(const StateKey& key) const;

  /// Counters of the state memo.
  [[nodiscard]] CacheStats state_stats() const { return states_.stats(); }

 private:
  struct KeyHash {
    std::size_t operator()(const StateKey& key) const noexcept;
  };

  [[nodiscard]] std::shared_ptr<const State> build_state(
      const StateKey& key) const;

  const Device* device_;
  mutable BoundedCache<StateKey, State, KeyHash> states_;
  mutable std::mutex sizes_mutex_;
  mutable std::set<int> sizes_;  ///< widths built, under sizes_mutex_
};

}  // namespace qucp
