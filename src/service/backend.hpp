#pragma once
// Backend: a device endpoint for the ExecutionService, versioned by
// calibration epoch.
//
// Everything a backend derives from its calibration — the Device snapshot
// itself, the CandidateIndex, the transpile cache, the compiled-program
// and gate-matrix caches, and the executor's derived noise constants —
// lives inside an immutable CalibrationEpoch. The Backend owns a
// shared_ptr to the current epoch and swaps it RCU-style on
// recalibrate(): the replacement epoch's caches are warm-built on the
// calling thread (off-lane — no dispatch cycle or worker ever waits on
// the build), then the pointer swap publishes the whole cache set
// atomically. Holders of the old epoch (in-flight batches, a dispatch
// cycle mid-plan) keep executing against the calibration they were packed
// under; the old epoch retires when its last shared_ptr drops.
//
// The transpile cache key covers everything transpile_to_partition()
// reads: the circuit's fingerprint, the target partition, and an options
// fingerprint the caller derives from the method configuration (placement
// style, optimize flags, CNA crosstalk context). Transpilation is
// deterministic, so a cache hit is observationally identical to a fresh
// transpile — and because the cache lives inside the epoch, a hit can
// never serve a result transpiled under a different calibration.
//
// The circuit key is the *structural* fingerprint: entries for
// parameterized circuits store a TranspileTemplate (mapping/parametric.hpp)
// alongside the transpiled program of the first binding seen. A job whose
// structure matches but whose angles differ binds the template in one
// cheap pass — bit-identical to a from-scratch transpile — instead of
// re-placing and re-routing. Bindings the template rejects (an angle
// flipping one of the optimizer's recorded identity decisions) fall back
// to a from-scratch template rebuild, which also replaces the cached entry
// so a degenerate first binding (e.g. an all-zero VQE start) does not pin
// a fallback-prone template forever. A capacity-0 epoch caches nothing and
// transpiles every call from scratch; that is the reference the template
// path is pinned against (tests/test_parametric.cpp).
//
// Backend itself only versions epochs: every device, cache and execution
// query goes through a pinned epoch(), so a caller that reads the device,
// transpiles and then reads cache counters sees one calibration snapshot
// even across a concurrent recalibrate().

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "circuit/gate_cache.hpp"
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
  std::size_t entries = 0;
  /// Structure matched with different angles; served by template bind.
  std::uint64_t structural_hits = 0;
  /// Structure matched but the binding flipped a recorded optimizer
  /// decision (or the entry had no template); rebuilt from scratch.
  std::uint64_t bind_fallbacks = 0;
  /// Total nanoseconds spent in successful template binds.
  std::uint64_t bind_ns = 0;
};

/// One immutable calibration snapshot plus every cache derived from it.
/// Construction is cheap (the caches fill lazily); warm() optionally
/// pre-builds the candidate lists a predecessor epoch had accumulated.
/// All methods are const and internally synchronized, so concurrent
/// service workers share one epoch exactly as they shared the old
/// Backend. An epoch never mutates its calibration — drift is modeled by
/// building a successor epoch, not by touching this one.
class CalibrationEpoch {
 public:
  /// `transpile_cache_capacity` = 0 disables transpile caching.
  CalibrationEpoch(std::uint64_t id, Device device,
                   std::size_t transpile_cache_capacity);

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

  /// Executor noise constants derived from this epoch's calibration once,
  /// instead of per gate application (sim/executor.hpp).
  [[nodiscard]] const DerivedNoise& derived_noise() const noexcept {
    return derived_noise_;
  }

  /// Persistent program-compilation cache (sim/fusion.hpp). Thread-safe.
  [[nodiscard]] const CompiledProgramCache& program_cache() const noexcept {
    return program_cache_;
  }

  /// Fused compilation of `logical`, memoized per circuit fingerprint.
  [[nodiscard]] std::shared_ptr<const CompiledProgram> compiled_program(
      const Circuit& logical) const {
    return program_cache_.fused(logical);
  }

  /// Transpile `logical` onto `partition`, consulting the epoch's cache
  /// first. `options_fp` must fingerprint every TranspileOptions field
  /// that can differ between calls. Thread-safe.
  [[nodiscard]] TranspiledProgram transpile(const Circuit& logical,
                                            std::span<const int> partition,
                                            const TranspileOptions& options,
                                            std::uint64_t options_fp) const;

  /// Batched sweep transpile: serve N circuits that share one structural
  /// fingerprint on one partition with a single cache probe and one
  /// bind_many pass — the per-circuit lock/lookup/bind round-trips of N
  /// transpile() calls collapse to one. Results and every cache counter
  /// are identical to calling transpile() on each circuit in order
  /// (bind_ns aside — it is timing): the first unseen circuit still
  /// counts the miss and builds the template, exact-binding repeats still
  /// count hits, and a binding the template rejects still falls back
  /// through the one-at-a-time path (replacing the entry, after which the
  /// remaining circuits re-probe the replacement). `out` is cleared and
  /// filled with one program per circuit. Thread-safe.
  void transpile_sweep(std::span<const Circuit* const> circuits,
                       std::span<const int> partition,
                       const TranspileOptions& options,
                       std::uint64_t options_fp,
                       std::vector<TranspiledProgram>& out) const;

  /// Execute pre-mapped programs on this epoch's simulated hardware.
  [[nodiscard]] ParallelRunReport execute(std::vector<PhysicalProgram> programs,
                                          const ExecOptions& options) const;

  [[nodiscard]] TranspileCacheStats cache_stats() const;

  /// Distinct (kind, params) gate unitaries memoized by this epoch.
  [[nodiscard]] std::size_t gate_cache_entries() const {
    return gate_cache_.entries();
  }

  /// Pre-build the candidate lists for `partition_sizes` (typically the
  /// predecessor epoch's working set) so the first dispatch cycle on this
  /// epoch pays no per_k builds. Part of recalibrate()'s off-lane work.
  void warm(std::span<const int> partition_sizes) const;

 private:
  struct CacheKey {
    std::uint64_t circuit_fp = 0;
    std::uint64_t options_fp = 0;
    std::vector<int> partition;
    [[nodiscard]] bool operator<(const CacheKey& o) const {
      if (circuit_fp != o.circuit_fp) return circuit_fp < o.circuit_fp;
      if (options_fp != o.options_fp) return options_fp < o.options_fp;
      return partition < o.partition;
    }
  };

  /// One cached transpilation. `tmpl` is non-null only for parameterized
  /// entries that built a template; `binding0` is the parameter binding
  /// `result` was transpiled from (empty for parameterless circuits, where
  /// the key already pins exact values).
  struct CacheEntry {
    TranspiledProgram result;
    std::vector<double> binding0;
    std::shared_ptr<const TranspileTemplate> tmpl;
  };

  std::uint64_t id_ = 0;
  Device device_;
  CandidateIndex candidate_index_;  ///< built against device_ (declared above)
  DerivedNoise derived_noise_;      ///< derived from device_.calibration()
  std::size_t capacity_;
  mutable std::mutex mutex_;
  mutable std::map<CacheKey, CacheEntry> cache_;
  mutable std::deque<CacheKey> insertion_order_;  ///< FIFO eviction queue
  mutable TranspileCacheStats stats_;
  /// Gate unitaries shared by every execution on this epoch (its own
  /// mutex; never cleared, so references handed to the simulator stay
  /// valid for the epoch's lifetime).
  mutable GateMatrixCache gate_cache_;
  /// Compiled (fused / lowered per-op) programs shared by every execution
  /// on this epoch (its own mutex; shared_ptr entries, so eviction never
  /// invalidates an in-flight replay).
  mutable CompiledProgramCache program_cache_;
};

class Backend {
 public:
  /// `transpile_cache_capacity` = 0 disables transpile caching; it
  /// applies to every epoch this backend ever builds.
  explicit Backend(Device device, std::size_t transpile_cache_capacity = 1024);

  /// Pin the current calibration epoch. The returned shared_ptr keeps the
  /// epoch (device, caches, derived constants) alive across any number of
  /// concurrent recalibrate() calls — this is how in-flight batches keep
  /// executing against their pack-time calibration.
  [[nodiscard]] std::shared_ptr<const CalibrationEpoch> epoch() const;

  /// Current epoch number (0 until the first recalibrate()).
  [[nodiscard]] std::uint64_t epoch_id() const;

  /// Swap in a new calibration without draining anything: validates
  /// `cal` against the device topology, builds a successor epoch with a
  /// fresh cache set on the calling thread (warm-building the candidate
  /// sizes the retiring epoch had accumulated), then atomically publishes
  /// it. Dispatch cycles pick the new epoch up at their next pack
  /// boundary; batches already packed complete against their pinned
  /// epoch. Returns the off-lane build time in seconds (the "stall" a
  /// drain-the-world design would have imposed on the lane). Concurrent
  /// recalibrate() calls serialize; throws std::invalid_argument (leaving
  /// the current epoch untouched) when `cal` fails validation.
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
  std::size_t capacity_;
  mutable std::mutex epoch_mutex_;  ///< guards the epoch_ pointer swap
  std::shared_ptr<const CalibrationEpoch> epoch_;
  std::mutex recal_mutex_;  ///< serializes concurrent recalibrate() calls
  std::atomic<std::uint64_t> recalibrations_{0};
  std::atomic<double> recalibration_build_s_{0.0};
};

}  // namespace qucp
