#pragma once
// Backend: a device endpoint for the ExecutionService, versioned by
// calibration epoch.
//
// Everything a backend derives from its calibration — the Device snapshot
// itself, the CandidateIndex, the transpile cache, the compiled-program
// cache, and the executor's derived noise constants —
// lives inside an immutable CalibrationEpoch. The Backend owns a
// shared_ptr to the current epoch and swaps it RCU-style on
// recalibrate(): the replacement epoch's caches are warm-built on the
// calling thread (off-lane — no dispatch cycle or worker ever waits on
// the build), then the pointer swap publishes the whole cache set
// atomically. Holders of the old epoch (in-flight batches, a dispatch
// cycle mid-plan) keep executing against the calibration they were packed
// under; the old epoch retires when its last shared_ptr drops.
//
// The transpile cache key covers everything a transpile reads: the circuit's fingerprint, the target partition, and an options
// fingerprint the caller derives from the method configuration (placement
// style, optimize flags, CNA crosstalk context). Transpilation is
// deterministic, so a cache hit is observationally identical to a fresh
// transpile — and because the cache lives inside the epoch, a hit can
// never serve a result transpiled under a different calibration.
//
// The circuit key is the *structural* fingerprint, and every entry is a
// TranspileTemplate (mapping/parametric.hpp) built from the first binding
// seen, holding that binding's transpiled program. A job whose structure
// matches but whose angles differ binds the template in one cheap pass —
// bit-identical to a from-scratch transpile — instead of re-placing and
// re-routing. Bindings the template rejects (an angle flipping one of the
// optimizer's recorded identity decisions) fall back to a from-scratch
// template rebuild, which also replaces the cached entry so a degenerate
// first binding (e.g. an all-zero VQE start) does not pin a
// fallback-prone template forever. Parameterless circuits have an empty
// binding, so after the first build they are always exact hits.
//
// All four caches of an epoch — transpile templates, CandidateIndex
// states, and the CompiledProgramCache's fused programs (each entry a
// structure's fusion plan plus its last binding) and executables — are
// BoundedCaches (common/bounded_cache.hpp) splitting one byte budget
// evenly; each evicts only its own least recently used entries, and the
// three per-circuit ones, once full, store a new key only on its second
// sighting. cache_memory() reports entries, bytes, hits, misses,
// evictions and refused stores per cache. A budget-0 epoch stores nothing
// but runs the same code: every lookup misses, so each transpile call
// builds its template (one counted miss per call), each allocation builds
// its states and each execution its executables.
// tests/test_parametric.cpp pins its transpiles against the untraced
// pipeline of tests/reference_transpile.hpp.
//
// Backend itself only versions epochs: every device, cache and execution
// query goes through a pinned epoch(), so a caller that reads the device,
// transpiles and then reads cache counters sees one calibration snapshot
// even across a concurrent recalibrate().

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "hardware/device.hpp"
#include "mapping/parametric.hpp"
#include "mapping/transpiler.hpp"
#include "partition/candidate_index.hpp"
#include "sim/executor.hpp"
#include "sim/fusion.hpp"

namespace qucp {

struct TranspileCacheStats {
  std::uint64_t hits = 0;    ///< exact-binding hits (identical circuit)
  std::uint64_t misses = 0;  ///< no usable entry; full transpile performed
  std::uint64_t evictions = 0;
  /// First sightings of a key served but not stored: storing them would
  /// have evicted (BoundedCache's admission).
  std::uint64_t refused = 0;
  std::size_t entries = 0;
  /// Structure matched with different angles; served by template bind.
  std::uint64_t structural_hits = 0;
  /// Structure matched but the binding flipped a recorded optimizer
  /// decision; rebuilt from scratch.
  std::uint64_t bind_fallbacks = 0;
};

/// Per-cache counters of one calibration epoch and the budget they share.
struct EpochCacheStats {
  std::size_t budget_bytes = 0;  ///< the epoch's cache budget
  std::size_t used_bytes = 0;    ///< held by all four caches together
  CacheStats transpile;          ///< transpile templates
  CacheStats allocation_states;  ///< CandidateIndex state memo
  CacheStats fused;  ///< fusion plans + last bindings (ideal pipeline)
  CacheStats executables;        ///< noisy executables and their outcomes
};

/// One immutable calibration snapshot plus every cache derived from it.
/// Construction is cheap (the caches fill lazily); warm() optionally
/// pre-builds the empty allocation states of the widths a predecessor
/// epoch served.
/// All methods are const and internally synchronized, so concurrent
/// service workers share one epoch exactly as they shared the old
/// Backend. An epoch never mutates its calibration — drift is modeled by
/// building a successor epoch, not by touching this one.
class CalibrationEpoch {
 public:
  /// The epoch's four caches split `cache_budget_bytes` evenly; with 0
  /// they store nothing.
  CalibrationEpoch(std::uint64_t id, Device device,
                   std::size_t cache_budget_bytes);

  CalibrationEpoch(const CalibrationEpoch&) = delete;
  CalibrationEpoch& operator=(const CalibrationEpoch&) = delete;

  /// Monotonic per-backend epoch number (0 = construction epoch).
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

  [[nodiscard]] const Device& device() const noexcept { return device_; }

  /// Persistent incremental-EFS candidate cache built against this
  /// epoch's device snapshot (see partition/candidate_index.hpp).
  /// Thread-safe; valid because the epoch never exposes a mutable Device.
  [[nodiscard]] const CandidateIndex& candidate_index() const noexcept {
    return candidate_index_;
  }

  /// Persistent program-compilation cache (sim/fusion.hpp). Thread-safe.
  [[nodiscard]] const CompiledProgramCache& program_cache() const noexcept {
    return program_cache_;
  }

  /// Fused compilation of `logical` (CompiledProgramCache::fused).
  [[nodiscard]] std::shared_ptr<const CompiledProgram> compiled_program(
      const Circuit& logical) const {
    return program_cache_.fused(logical);
  }

  /// Transpile `logical` onto `partition`, consulting the epoch's cache
  /// first: a transpile_sweep() of one. `options_fp` must fingerprint
  /// every TranspileOptions field that can differ between calls.
  /// Thread-safe.
  [[nodiscard]] TranspiledProgram transpile(const Circuit& logical,
                                            std::span<const int> partition,
                                            const TranspileOptions& options,
                                            std::uint64_t options_fp) const;

  /// Sweep transpile: serve N circuits that share one structural
  /// fingerprint on one partition with a single cache probe, then one
  /// bind() per circuit whose binding differs from the entry's. Every
  /// cache counter counts per circuit, exactly as N sequential
  /// transpile() calls would: an unseen key counts one miss and builds the
  /// template, exact-binding repeats count hits, successful binds count
  /// structural hits, and a binding the template rejects counts a bind
  /// fallback and rebuilds, replacing the entry the remaining circuits
  /// bind against. `out` is cleared and filled with one program per
  /// circuit. Thread-safe.
  void transpile_sweep(std::span<const Circuit* const> circuits,
                       std::span<const int> partition,
                       const TranspileOptions& options,
                       std::uint64_t options_fp,
                       std::vector<TranspiledProgram>& out) const;

  /// Execute pre-mapped programs on this epoch's simulated hardware.
  [[nodiscard]] ParallelRunReport execute(std::vector<PhysicalProgram> programs,
                                          const ExecOptions& options) const;

  [[nodiscard]] TranspileCacheStats cache_stats() const;

  /// Entries, bytes, hits, misses, evictions and refused stores of each
  /// cache.
  [[nodiscard]] EpochCacheStats cache_memory() const;

  /// Pre-build the empty allocation state of each width in
  /// `partition_sizes` (typically the widths the predecessor epoch's
  /// CandidateIndex served), so the first dispatch cycle on this epoch
  /// finds every single-program allocation memoized. Widths outside
  /// [1, num_qubits] are skipped. Part of recalibrate()'s off-lane work.
  void warm(std::span<const int> partition_sizes) const;

 private:
  struct CacheKey {
    std::uint64_t circuit_fp = 0;
    std::uint64_t options_fp = 0;
    std::vector<int> partition;
    [[nodiscard]] bool operator==(const CacheKey&) const = default;
  };
  struct CacheKeyHash {
    std::size_t operator()(const CacheKey& key) const noexcept;
  };

  std::uint64_t id_ = 0;
  Device device_;
  std::size_t cache_budget_bytes_;
  CandidateIndex candidate_index_;  ///< built against device_ (declared above)
  DerivedNoise derived_noise_;      ///< derived from device_
  /// Shared so a sweep keeps binding against its probed template while
  /// another thread replaces or evicts the entry.
  mutable BoundedCache<CacheKey, TranspileTemplate, CacheKeyHash> cache_;
  mutable std::mutex mutex_;  ///< guards stats_
  mutable TranspileCacheStats stats_;
  /// Compiled programs (fused, and executables scheduled against device_)
  /// shared by every execution on this epoch (shared_ptr entries, so
  /// eviction never invalidates an in-flight replay).
  CompiledProgramCache program_cache_;
};

class Backend {
 public:
  /// Each epoch this backend ever builds gets a cache budget of
  /// `cache_budget_bytes`; with 0 its caches store nothing.
  explicit Backend(Device device,
                   std::size_t cache_budget_bytes = kDefaultCacheBudgetBytes);

  /// Pin the current calibration epoch. The returned shared_ptr keeps the
  /// epoch (device, caches, derived constants) alive across any number of
  /// concurrent recalibrate() calls — this is how in-flight batches keep
  /// executing against their pack-time calibration.
  [[nodiscard]] std::shared_ptr<const CalibrationEpoch> epoch() const;

  /// Current epoch number (0 until the first recalibrate()).
  [[nodiscard]] std::uint64_t epoch_id() const;

  /// Swap in a new calibration without draining anything: validates
  /// `cal` against the device topology, builds a successor epoch with a
  /// fresh cache set on the calling thread (warm-building the empty
  /// allocation state of each width the retiring epoch served), then
  /// atomically publishes it. Dispatch cycles pick the new epoch up at
  /// their next pack boundary; batches already packed complete against
  /// their pinned epoch. Returns the off-lane build time in seconds (the
  /// "stall" a drain-the-world design would have imposed on the lane).
  /// Concurrent recalibrate() calls serialize; throws
  /// std::invalid_argument (leaving the current epoch untouched) when
  /// `cal` fails validation.
  double recalibrate(Calibration cal);

  /// Epochs published by recalibrate() so far.
  [[nodiscard]] std::uint64_t recalibrations() const noexcept {
    return recalibrations_.load(std::memory_order_relaxed);
  }
  /// Total off-lane epoch build seconds across every recalibrate().
  [[nodiscard]] double recalibration_build_s() const noexcept {
    return recalibration_build_s_.load(std::memory_order_relaxed);
  }

 private:
  std::size_t cache_budget_bytes_;
  mutable std::mutex epoch_mutex_;  ///< guards the epoch_ pointer swap
  std::shared_ptr<const CalibrationEpoch> epoch_;
  std::mutex recal_mutex_;  ///< serializes concurrent recalibrate() calls
  std::atomic<std::uint64_t> recalibrations_{0};
  std::atomic<double> recalibration_build_s_{0.0};
};

}  // namespace qucp
