#pragma once
// CandidateIndex: persistent, incremental EFS candidate cache.
//
// Candidate generation + EFS scoring used to be recomputed from scratch by
// every efs_greedy_allocate / solo_efs call, which made the allocator the
// per-batch floor of the ExecutionService (~55 us/batch on toronto27).
// Both computations are almost entirely allocation-independent:
//
//   * The greedy growth from a start qubit reads the usable mask only
//     within hop distance 2 of the part it grows (frontier membership at
//     distance 1; connectivity counts and local edge errors at distance 2).
//     A growth whose radius-2 ball avoids every allocated qubit therefore
//     reproduces its empty-mask result verbatim, and a growth that failed
//     under the empty mask (connected component < k) fails under any mask.
//   * An EFS crosstalk flag needs a partition edge within hop distance 1
//     of an allocated edge. A candidate whose qubits all sit at distance
//     >= 2 from every allocated qubit scores exactly its static base:
//     plain average CX error, average 1q error, readout sum.
//
// The index is built once per Device (a CalibrationEpoch owns one, like
// its CompiledProgramCache) and caches, per partition size k: the per-start
// empty-mask growths, the deduplicated candidate list, and per-candidate
// base scores accumulated in the same floating-point order efs_score uses.
// An AllocationSession derives the candidates of one allocation state: it
// tracks the allocated set plus a distance-2 dirty mask, reuses cached
// growths for the clean majority, and regrows only the dirty fringe.
//
// On top of that the index memoizes whole allocation states. state(key)
// returns, for one (allocated-qubit set, k), the candidate parts in
// partition_candidates order, each candidate's base score and induced
// edges, and per candidate edge the allocated edges one hop away (in the
// edge-id order efs_score walks them). Those are all policy-independent,
// so State::score() rescores a candidate under any CrosstalkPolicy with
// efs_score's exact accumulation order: QuCP at any sigma, QuMC, QuCloud
// and MultiQC share entries and stay bit-identical to the non-indexed
// path, which tests/test_allocator_golden.cpp pins. The greedy allocators
// walk a qubit bitmask through states and build a session only on a miss.
//
// Key: the allocated set as a bitmask over device qubits plus k — values
// only, never an address, so an entry cannot leak between indexes.
// Lifetime: the memo lives and dies with its index (one per calibration
// epoch, so a recalibration starts it cold). It is a BoundedCache
// (common/bounded_cache.hpp) holding at most the bytes it is given — the
// epoch's share for it — and evicts least recently used states first, so
// the hot ones (the empty allocation of each width) survive a stream of
// one-use ones. Entries are shared_ptr, so eviction never frees a state a
// caller is still reading.
//
// Thread-safety: per-k entries and memo states are built under or
// published through a mutex and immutable afterwards, so dispatch probes
// and every lane's batch pipeline share one index; an AllocationSession
// is single-caller scratch.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/bounded_cache.hpp"
#include "partition/efs.hpp"

namespace qucp {

class CandidateIndex {
 public:
  /// Static (allocation-independent) EFS components of one candidate,
  /// accumulated in efs_score's exact summation order.
  struct BaseScore {
    double edge_error_total = 0.0;  ///< sum of min(1, cx_error) over edges
    int num_edges = 0;              ///< induced partition-internal edges
    double q1_total = 0.0;          ///< sum of 1q errors over the qubits
    double readout_sum = 0.0;       ///< sum of readout errors
  };

  /// Immutable per-partition-size cache entry.
  struct PerK {
    /// candidates[] index of the completed empty-mask growth per start
    /// qubit, -1 when the start's connected component has < k qubits (in
    /// which case the growth fails under every allocation mask).
    std::vector<int> growth_of_start;
    std::vector<std::vector<int>> candidates;  ///< sorted parts, set order
    std::vector<BaseScore> base;               ///< parallel to candidates
    /// Induced internal edge ids per candidate (edge-id order, exactly
    /// what topology().induced_edges returns), parallel to candidates.
    std::vector<std::vector<int>> cand_edges;
  };

  /// Memo key: the allocated-qubit set (bit q of word q / 64) and the
  /// partition width k.
  struct StateKey {
    std::vector<std::uint64_t> allocated;
    int k = 0;
    bool operator==(const StateKey&) const = default;
    /// Add `qubits` to the allocated set.
    void allocate(std::span<const int> qubits);
  };

  /// Everything candidate generation and EFS scoring derive from one
  /// allocation state, independent of the crosstalk policy. Candidates
  /// are in partition_candidates order (sorted sets, lexicographic).
  /// score() reads the index's device, so a State must not be used after
  /// its index is gone.
  class State {
   public:
    [[nodiscard]] std::size_t size() const noexcept { return base_.size(); }
    /// Sorted qubits of candidate i.
    [[nodiscard]] std::span<const int> part(std::size_t i) const noexcept {
      return {parts_.data() + i * static_cast<std::size_t>(k_),
              static_cast<std::size_t>(k_)};
    }
    /// efs_score(device, part(i), shape, allocated, policy), bit for bit.
    /// `crosstalk_edges` is left empty unless `with_edges` is set.
    [[nodiscard]] EfsBreakdown score(std::size_t i, const ProgramShape& shape,
                                     const CrosstalkPolicy& policy,
                                     bool with_edges = true) const;
    /// Heap footprint estimate (cache budget charge).
    [[nodiscard]] std::size_t bytes() const noexcept;

   private:
    friend class CandidateIndex;
    const Device* device_ = nullptr;
    int k_ = 0;
    std::vector<int> parts_;           ///< k qubits per candidate
    std::vector<BaseScore> base_;      ///< per candidate
    /// Candidate i's induced edges are edges_[edge_begin_[i]..[i + 1]).
    std::vector<std::uint32_t> edge_begin_;
    std::vector<int> edges_;
    /// Allocated edges one hop from edges_[j] (efs_score's d == 1 test),
    /// in edge-id order: hops_[hop_begin_[j]..[j + 1]).
    std::vector<std::uint32_t> hop_begin_;
    std::vector<int> hops_;
  };

  /// The device must outlive the index (a CalibrationEpoch owns both).
  /// The state memo holds at most `state_cache_bytes`.
  explicit CandidateIndex(const Device& device,
                          std::size_t state_cache_bytes = kDefaultCacheBytes)
      : device_(&device), states_(state_cache_bytes) {}

  CandidateIndex(const CandidateIndex&) = delete;
  CandidateIndex& operator=(const CandidateIndex&) = delete;

  [[nodiscard]] const Device& device() const noexcept { return *device_; }

  /// Per-size cache entry, built on first use. The reference stays valid
  /// for the index's lifetime. Throws std::invalid_argument for k <= 0
  /// (mirroring partition_candidates).
  [[nodiscard]] const PerK& per_k(int k) const;

  /// Partition sizes cached so far (for stats/tests).
  [[nodiscard]] std::size_t sizes_cached() const;

  /// The cached partition sizes themselves, ascending. Used by
  /// Backend::recalibrate to warm-build a replacement index off-lane with
  /// the same working set the retiring index accumulated, so the first
  /// dispatch cycle on a fresh calibration epoch pays no per_k builds.
  [[nodiscard]] std::vector<int> cached_sizes() const;

  /// An empty allocation (no qubit allocated) at width k.
  [[nodiscard]] StateKey empty_key(int k) const;

  /// Memoized state for `key`, derived through an AllocationSession on a
  /// miss. Throws std::invalid_argument for k <= 0.
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
  mutable std::mutex mutex_;
  mutable std::map<int, std::unique_ptr<PerK>> cache_;
  mutable BoundedCache<StateKey, State, KeyHash> states_;
};

/// Derives the candidates of one allocation state against a
/// CandidateIndex: the same sets in the same order as
/// partition_candidates(), reusing the index for everything outside the
/// dirty fringe of the allocated qubits. Cheap to construct; not
/// thread-safe (one session per caller).
class AllocationSession {
 public:
  struct Candidate {
    /// Sorted qubit set; points into the shared index or session scratch,
    /// valid until the next candidates() call.
    const std::vector<int>* part = nullptr;
    /// Cached base score; null for fringe candidates regrown this session.
    const CandidateIndex::BaseScore* base = nullptr;
    /// Cached induced internal edges; null for regrown candidates.
    const std::vector<int>* edges = nullptr;
  };

  explicit AllocationSession(const CandidateIndex& index);

  /// Candidate partitions of size k avoiding the committed allocation —
  /// the same sets in the same (lexicographic) order as
  /// partition_candidates(device, k, allocated()). The returned reference
  /// is invalidated by the next candidates() call.
  [[nodiscard]] const std::vector<Candidate>& candidates(int k);

  /// Grant `partition` (disjoint from the current allocation) and dirty
  /// its distance-2 fringe.
  void commit(std::span<const int> partition);

 private:
  const CandidateIndex* index_;
  std::vector<int> allocated_;   ///< committed qubits, commit order
  std::vector<char> usable_;     ///< !allocated, per device qubit
  std::vector<char> near2_;      ///< within hop distance 2 of allocation
  std::vector<char> in_part_;    ///< grow_candidate scratch (all zero)
  /// Per-qubit frontier quality under usable_ (grow_candidate's conn/err
  /// terms, pure functions of the mask), rebuilt lazily after commits.
  std::vector<int> conn_;
  std::vector<double> err_;
  bool quality_stale_ = true;
  std::vector<std::vector<int>> regrown_;  ///< fringe growths, this query
  std::vector<Candidate> result_;
};

}  // namespace qucp
