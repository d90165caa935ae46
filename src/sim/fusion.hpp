#pragma once
// Program-level gate fusion and per-program kernel compilation.
//
// A CompiledProgram walks a Circuit once and fuses maximal runs of
// adjacent gates into single dense kernels:
//
//   - consecutive 1q gates on the same qubit collapse into one 2x2, so a
//     rotation ladder pays one kernel sweep instead of one per gate;
//   - 1q gates adjacent to a 2q gate on a shared qubit are absorbed into
//     that gate's 4x4, as are consecutive 2q gates on the same qubit pair
//     (in either operand order).
//
// The existing compiled-gate classification (kern::compile_unitary:
// diag / antidiag / CX / SWAP / generalized-permutation / dense) is then
// re-applied to each fused product, so fusion that lands back on a
// structured matrix (e.g. an RZ ladder fusing to a diagonal) still takes
// the cheap kernel path. Fusion never reorders across barriers or
// measurements: a barrier or measure closes every block it touches, and
// blocks only absorb gates on their own qubits, so any two non-commuting
// ops keep their program order. Fused replay therefore agrees with
// gate-by-gate replay to simulation accuracy (pinned at <= 1e-10 by
// tests/test_fusion.cpp).
//
// Fusion itself is split in two. A FusionPlan is the *structural* half:
// which gates land in which blocks, the exact order of matrix products,
// and what gets emitted — everything the fusion state machine decides,
// none of which depends on parameter values (adjacency and operand
// overlap are pure structure). CompiledProgram::materialize() replays a
// plan against a concrete circuit's gate matrices, performing the same
// multiplications in the same order the from-scratch path would, so the
// result is bit-identical to CompiledProgram::compile() — which is now
// literally materialize(FusionPlan::build(c), c). CompiledProgramCache
// keeps one entry per structural_fingerprint holding the plan and the
// last binding it materialized, so a parameter sweep over one ansatz
// re-runs only the cheap matrix products per iteration, never the fusion
// walk, and an exact repeat costs one lookup.
//
// The noisy executor's unfused sibling is split the same way. An
// ExecutableStructure is the structural half of a physical program: the
// CX-lowered op skeleton with a lowered -> source index for every op whose
// matrix depends on an angle (SWAP -> 3 CX and CZ -> H.CX.H carry none),
// and — scheduled against the owning epoch's device — the ALAP/ASAP
// schedule, its time order, the active qubits and each CX's edge id. A
// CompiledExecutable is one binding of it: materialize() builds only the
// parametric ops' kernels from the binding's angles.
//
// Angle-free ops (CX, H, X, SX, ... — including the CX/H that SWAP and CZ
// lower to) hold no kernel of their own. Their kernels, superket forms
// included, depend on the gate kind alone, so fixed_kernel() compiles each
// once per process and every structure points its angle-free ops into
// that table. A shared kernel's `q` names operand positions, not device
// qubits: replay takes the operands from the lowered gate, so it stays
// bit for bit the per-op compile's. That keeps a cached structure down to
// its skeleton and schedule, and a structure build compiles nothing.
// Replay is gate by gate, each gate in one density sweep together with its
// idle relaxation and depolarizing, arithmetic identical bit for bit to
// the Matrix-taking transform in tests/reference_density.hpp. The executor replays this per-op stream
// under every noise setting, noiseless runs included; fused programs serve
// the ideal pipeline. CompiledProgramCache memoizes fused programs per
// structural fingerprint and executables per (structural fingerprint,
// schedule policy); it lives on a calibration epoch next to
// CandidateIndex, so a recalibration starts it cold. execute_parallel
// without an epoch compiles through a zero-budget one, which keeps
// nothing.
//
// Each executable entry also memoizes outcomes of its last binding: the
// exact noisy Distribution execute_parallel computed for it, keyed by an
// OutcomeKey — every input of that program's simulation beyond the binding
// and the epoch's device: the time deltas applied to its cached schedule,
// the crosstalk gamma of each amplified CX and whether the native kernels
// are active. An exact repeat skips the density-matrix walk; only
// sampling runs. At most kMaxOutcomeVariants keys are held per entry
// (oldest replaced first), a new binding clears them, and the entry's
// byte charge follows them, so the memo counts against the executable
// cache's byte bound like everything else.

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/bounded_cache.hpp"
#include "hardware/device.hpp"
#include "schedule/schedule.hpp"
#include "sim/counts.hpp"
#include "sim/kernels.hpp"

namespace qucp {

/// One fused (or per-op compiled) unitary with every kernel form the
/// simulators need, precompiled:
///   - `sv`: the k-qubit unitary itself (statevector replay; for k == 2 it
///     doubles as the density row pass over the superket's row bits);
///   - `dm`: the superket companion for density replay — k == 1: the
///     compiled 4x4 U (x) conj(U) gate, k == 2: the compiled conj(U)
///     column pass.
struct FusedOp {
  kern::CompiledUnitary sv;
  kern::CompiledUnitary dm;
  int q[2] = {-1, -1};  ///< qubit operands; q[0] = high local bit for k == 2

  [[nodiscard]] int k() const noexcept { return sv.k; }
  /// False for the placeholder entries a CompiledExecutable keeps at
  /// barrier/measure positions.
  [[nodiscard]] bool is_unitary() const noexcept { return q[0] >= 0; }
};

/// The process-wide kernel of an angle-free unitary kind (the kinds
/// fixed_gate_matrix() covers), compiled once on first use from its fixed
/// matrix exactly as a per-op compile would; `q` holds the operand
/// positions {0, -1} or {0, 1}. Any other kind maps to a placeholder with
/// is_unitary() == false. Thread-safe; the reference stays valid for the
/// process lifetime.
[[nodiscard]] const FusedOp& fixed_kernel(GateKind kind);

/// The structural half of fusion: the block layout and the exact ordered
/// sequence of matrix operations the fusion state machine performs on a
/// circuit of a given structure. Built once per structural_fingerprint
/// and replayed against any circuit sharing that structure (same kinds,
/// operands, order — parameter values free).
class FusionPlan {
 public:
  enum class Op : std::uint8_t {
    kNew1,      ///< open 1q block `block` from gate `gate`'s 2x2
    kMul1,      ///< block.m = gate * block.m (2x2)
    kLift1Mul,  ///< block.m = lift1(gate, flag=high) * block.m (4x4)
    kNew2,      ///< open 2q block `block` from gate `gate`'s 4x4
    kMul2,      ///< block.m = gate * block.m (4x4; flag = operand-swapped)
    kAbsorb,    ///< block.m = block.m * lift1(block `src`, flag=high)
    kEmit,      ///< classify + emit block `block` as the next FusedOp
  };
  struct Step {
    Op op = Op::kEmit;
    std::uint32_t block = 0;  ///< target block id
    std::uint32_t gate = 0;   ///< source op index (matrix-consuming steps)
    std::uint32_t src = 0;    ///< kAbsorb: absorbed 1q block id
    bool flag = false;        ///< high-operand lift / operand-swapped mul
  };
  struct BlockInfo {
    std::uint8_t k = 0;
    int q0 = -1;
    int q1 = -1;
  };

  /// Run the fusion state machine over `circuit`, recording structure only.
  [[nodiscard]] static FusionPlan build(const Circuit& circuit);

  [[nodiscard]] const std::vector<Step>& steps() const noexcept {
    return steps_;
  }
  [[nodiscard]] const std::vector<BlockInfo>& blocks() const noexcept {
    return blocks_;
  }
  [[nodiscard]] const std::vector<std::pair<int, int>>& measurements()
      const noexcept {
    return measurements_;
  }
  [[nodiscard]] int num_qubits() const noexcept { return num_qubits_; }
  [[nodiscard]] int num_clbits() const noexcept { return num_clbits_; }
  [[nodiscard]] std::size_t source_gate_count() const noexcept {
    return source_gates_;
  }
  /// Op count of the circuit the plan was built from (materialize guard).
  [[nodiscard]] std::size_t source_size() const noexcept {
    return source_size_;
  }
  /// FusedOps an emit pass produces (kEmit step count).
  [[nodiscard]] std::size_t emitted() const noexcept { return emitted_; }
  /// Heap footprint estimate (cache budget charge).
  [[nodiscard]] std::size_t bytes() const noexcept;

 private:
  int num_qubits_ = 0;
  int num_clbits_ = 0;
  std::vector<Step> steps_;
  std::vector<BlockInfo> blocks_;
  std::vector<std::pair<int, int>> measurements_;
  std::size_t source_gates_ = 0;
  std::size_t source_size_ = 0;
  std::size_t emitted_ = 0;
};

/// A circuit compiled to a fused kernel stream plus its measurement map.
class CompiledProgram {
 public:
  /// Fuse and compile `circuit`. Accepts any simulable circuit (unitary
  /// gates, barriers, measurements). Equivalent to (and implemented as)
  /// materialize(FusionPlan::build(circuit), circuit).
  [[nodiscard]] static CompiledProgram compile(const Circuit& circuit);

  /// Replay `plan` against `circuit`'s gate matrices. `circuit` must have
  /// the structure the plan was built from (same structural_fingerprint);
  /// throws std::invalid_argument on an op-count/qubit-count mismatch.
  /// Bit-identical to compile(circuit): same products, same order.
  [[nodiscard]] static CompiledProgram materialize(const FusionPlan& plan,
                                                   const Circuit& circuit);

  [[nodiscard]] int num_qubits() const noexcept { return num_qubits_; }
  [[nodiscard]] int num_clbits() const noexcept { return num_clbits_; }
  /// Fused unitary stream, in a program-order-compatible interleaving.
  [[nodiscard]] const std::vector<FusedOp>& ops() const noexcept {
    return ops_;
  }
  /// (qubit, clbit) pairs in program order.
  [[nodiscard]] const std::vector<std::pair<int, int>>& measurements()
      const noexcept {
    return measurements_;
  }
  /// Unitary gates in the source circuit (what fusion started from).
  [[nodiscard]] std::size_t source_gate_count() const noexcept {
    return source_gates_;
  }
  /// Heap footprint estimate (cache budget charge).
  [[nodiscard]] std::size_t bytes() const noexcept;

 private:
  int num_qubits_ = 0;
  int num_clbits_ = 0;
  std::vector<FusedOp> ops_;
  std::vector<std::pair<int, int>> measurements_;
  std::size_t source_gates_ = 0;
};

/// The structural half of a physical program compiled for the noisy
/// executor: everything that depends only on its structural_fingerprint
/// and on the device it was scheduled against. Its angle-free ops use the
/// shared fixed_kernel() table; a CompiledExecutable supplies the
/// parametric kernels per binding.
class ExecutableStructure {
 public:
  /// A lowered op whose matrix depends on an angle, and the source op it
  /// was copied from (lowering passes parametric gates through unchanged).
  struct ParamOp {
    std::uint32_t lowered = 0;
    std::uint32_t source = 0;
  };

  /// Lower `physical`, index its parametric ops and check every
  /// two-qubit op against `device`'s coupling map; when all are coupled,
  /// schedule under `policy` and record the time order and CX edge ids.
  [[nodiscard]] static ExecutableStructure build(const Circuit& physical,
                                                 const Device& device,
                                                 SchedulePolicy policy);

  /// Lowered circuit of the binding the structure was built from.
  [[nodiscard]] const Circuit& lowered() const noexcept { return lowered_; }
  [[nodiscard]] const std::vector<ParamOp>& parametric() const noexcept {
    return parametric_;
  }
  /// Op count of the source circuit (materialize guard).
  [[nodiscard]] std::size_t source_size() const noexcept {
    return source_size_;
  }

  /// False when some two-qubit op sits on an uncoupled pair of the device
  /// (the structure is then unscheduled).
  [[nodiscard]] bool coupled() const noexcept { return coupled_; }
  /// Schedule of lowered(), before any cross-program alignment.
  [[nodiscard]] const Schedule& schedule() const noexcept { return schedule_; }
  /// Lowered op indices stably sorted by schedule start time.
  [[nodiscard]] const std::vector<std::uint32_t>& time_order() const noexcept {
    return time_order_;
  }
  /// Device qubits the lowered circuit touches, ascending.
  [[nodiscard]] const std::vector<int>& active_qubits() const noexcept {
    return active_;
  }
  /// Device edge id per lowered op: the CX's edge, -1 for every other op.
  [[nodiscard]] const std::vector<int>& cx_edges() const noexcept {
    return cx_edges_;
  }
  /// Heap footprint estimate (cache budget charge).
  [[nodiscard]] std::size_t bytes() const noexcept;

 private:
  friend class CompiledExecutable;

  Circuit lowered_;
  std::vector<ParamOp> parametric_;
  /// Per lowered op: its GateKind (a fixed_kernel() index), or
  /// ~(parametric index) when < 0.
  std::vector<std::int32_t> slot_;
  std::size_t source_size_ = 0;
  bool coupled_ = true;
  Schedule schedule_;
  std::vector<std::uint32_t> time_order_;
  std::vector<int> active_;
  std::vector<int> cx_edges_;
};

/// One binding of an ExecutableStructure: the structure plus the kernels of
/// its parametric ops, built from this binding's angles with
/// gate_matrix_into — the same values gate_matrix gives, so replay is bit
/// for bit the from-scratch lowering's.
class CompiledExecutable {
 public:
  /// Bind `physical`'s angles into `structure`. `physical` must have the
  /// structure it was built from (same structural_fingerprint); throws
  /// std::invalid_argument on an op-count/qubit-count mismatch.
  [[nodiscard]] static CompiledExecutable materialize(
      std::shared_ptr<const ExecutableStructure> structure,
      const Circuit& physical);

  [[nodiscard]] const ExecutableStructure& structure() const noexcept {
    return *structure_;
  }
  /// Kernel of lowered op `i` for this binding (a placeholder with
  /// is_unitary() == false at barrier/measure positions).
  [[nodiscard]] const FusedOp& channel(std::size_t i) const {
    const std::int32_t slot = structure_->slot_[i];
    return slot >= 0 ? fixed_kernel(static_cast<GateKind>(slot))
                     : bound_[static_cast<std::size_t>(~slot)];
  }
  /// Heap footprint estimate of this binding's own kernels (the structure
  /// is charged separately).
  [[nodiscard]] std::size_t bytes() const noexcept;

 private:
  std::shared_ptr<const ExecutableStructure> structure_;
  std::vector<FusedOp> bound_;  ///< parallel to structure().parametric()
};

/// Everything a program's exact noisy distribution depends on in
/// execute_parallel beyond its exact binding, the device and the device's
/// DerivedNoise. Compared exactly: doubles bit for bit.
struct OutcomeKey {
  /// Whether the native kernels ran (the scalar and AVX2 kernels round
  /// differently).
  bool native = false;
  /// Time deltas added to the cached schedule, in the order applied: the
  /// ALAP alignment shift, then each crosstalk-serialization delay.
  std::vector<double> shifts;
  /// (lowered op, gamma) of every CX whose crosstalk gamma is not 1,
  /// ascending by op.
  std::vector<std::pair<std::uint32_t, double>> gammas;

  [[nodiscard]] bool operator==(const OutcomeKey& other) const noexcept;
};

/// Exact outcome distribution of a compiled (fused) program under ideal
/// execution — the cached-program fast path of
/// ideal_distribution(const Circuit&).
[[nodiscard]] Distribution ideal_distribution(const CompiledProgram& program);

/// Thread-safe per-epoch memo of compiled programs. Fused programs are
/// keyed by structural fingerprint and executables by (structural
/// fingerprint, schedule policy); each entry holds the structural half
/// (FusionPlan / ExecutableStructure) and the last binding it
/// materialized, so an exact repeat costs one lookup and a fresh binding
/// skips the structural build. Executable entries also keep up to
/// kMaxOutcomeVariants noisy outcomes of that binding (outcome()). Both
/// are BoundedCaches of `bytes_per_cache` each (a quarter of the epoch's
/// budget), so an endless stream of distinct circuits evicts
/// least-recently-used entries instead of growing without limit, and each
/// cache evicts only its own. Entries are returned as shared_ptr, so
/// eviction can never invalidate a program a simulation is replaying.
class CompiledProgramCache {
 public:
  /// Outcomes held per executable entry; the oldest is replaced first.
  static constexpr std::size_t kMaxOutcomeVariants = 8;

  /// Per-cache counters (BoundedCache::stats of each).
  struct Stats {
    CacheStats fused;
    CacheStats executables;
  };

  /// Executables are scheduled against `device`, which must outlive the
  /// cache (a CalibrationEpoch passes its own device snapshot). Fused
  /// programs and executables may each hold `bytes_per_cache`.
  explicit CompiledProgramCache(
      const Device& device,
      std::size_t bytes_per_cache = kDefaultCacheBytes)
      : device_(&device),
        fused_(bytes_per_cache),
        executables_(bytes_per_cache) {}

  /// Fused compilation of `circuit` (ideal pipeline): the entry's program
  /// on an exact repeat of its last binding under the current kernel mode
  /// (kern::native_kernels_active(), whose 4x4 products round differently);
  /// otherwise this binding materialized from the structure's plan (built
  /// on first sight), which then replaces the entry's binding.
  [[nodiscard]] std::shared_ptr<const CompiledProgram> fused(
      const Circuit& circuit) const;

  /// Noisy-pipeline compilation of `physical`, whose fingerprints `fp`
  /// (circuit_fingerprints(physical)) the caller computes once for this
  /// call and the outcome memo's: the structure is built once per
  /// (structural fingerprint, `policy`), then only the parametric kernels
  /// are materialized per fresh binding.
  [[nodiscard]] std::shared_ptr<const CompiledExecutable> executable(
      const Circuit& physical, const CircuitFingerprints& fp,
      SchedulePolicy policy = SchedulePolicy::ALAP) const;

  /// The outcome stored for the program of fingerprints `fp` under `key`,
  /// or null. Only the entry's current binding (the last executable()
  /// materialized) holds outcomes.
  [[nodiscard]] std::shared_ptr<const Distribution> outcome(
      const CircuitFingerprints& fp, SchedulePolicy policy,
      const OutcomeKey& key) const;
  /// Remember `distribution` as the outcome of the program of fingerprints
  /// `fp` under `key`, growing the entry's byte charge. Dropped when the
  /// entry has moved on to another binding since executable().
  void store_outcome(const CircuitFingerprints& fp, SchedulePolicy policy,
                     OutcomeKey key, const Distribution& distribution) const;

  /// Fusion plan of `circuit`'s structure: the fused() entry's plan. On
  /// first sight of the structure it builds the entry, binding `circuit`.
  [[nodiscard]] std::shared_ptr<const FusionPlan> plan(
      const Circuit& circuit) const;

  /// Device the executables are scheduled against.
  [[nodiscard]] const Device& device() const noexcept { return *device_; }

  /// Counters of each cache. An executable miss is one structure build;
  /// its hits include exact repeats.
  [[nodiscard]] Stats stats() const;

  /// Fusion walks actually performed / avoided: the fused cache's misses
  /// and hits (exact repeats included).
  [[nodiscard]] std::uint64_t plan_builds() const;
  [[nodiscard]] std::uint64_t plan_hits() const;

  /// outcome() lookups served from the memo / that found nothing (each
  /// miss is one density-matrix simulation).
  [[nodiscard]] std::uint64_t outcome_hits() const;
  [[nodiscard]] std::uint64_t outcome_builds() const;

 private:
  struct ExecutableKey {
    std::uint64_t structural = 0;
    SchedulePolicy policy = SchedulePolicy::ALAP;
    [[nodiscard]] bool operator==(const ExecutableKey&) const = default;
  };
  struct ExecutableKeyHash {
    std::size_t operator()(const ExecutableKey& k) const noexcept {
      return static_cast<std::size_t>(
          k.structural ^ (static_cast<std::uint64_t>(k.policy) + 1) *
                             0x9E3779B97F4A7C15ull);
    }
  };
  struct OutcomeVariant {
    OutcomeKey key;
    std::shared_ptr<const Distribution> distribution;
  };
  /// Immutable once cached: a new binding replaces the entry.
  struct FusedEntry {
    std::shared_ptr<const FusionPlan> plan;
    std::shared_ptr<const CompiledProgram> last;  ///< last binding seen
    std::uint64_t last_exact = 0;  ///< circuit_fingerprint of `last`
    bool native = false;  ///< kernel mode `last` was materialized under

    [[nodiscard]] std::size_t bytes() const noexcept;
  };
  /// Immutable once cached: a new binding or outcome replaces the entry.
  struct ExecutableEntry {
    std::shared_ptr<const ExecutableStructure> structure;
    std::shared_ptr<const CompiledExecutable> last;  ///< last binding seen
    std::uint64_t last_exact = 0;  ///< circuit_fingerprint of `last`
    /// Outcomes of `last`, oldest first, at most kMaxOutcomeVariants.
    std::vector<OutcomeVariant> outcomes;

    [[nodiscard]] std::size_t bytes() const noexcept;
  };

  /// Materialize `circuit` (fingerprints `fp`) from `entry`'s plan, or
  /// from a fresh plan when `entry` is null, and store the result as the
  /// structure's entry.
  std::shared_ptr<const FusedEntry> bind(
      const std::shared_ptr<const FusedEntry>& entry,
      const CircuitFingerprints& fp, const Circuit& circuit) const;

  const Device* device_;
  mutable BoundedCache<std::uint64_t, FusedEntry> fused_;  ///< structural key
  mutable BoundedCache<ExecutableKey, ExecutableEntry, ExecutableKeyHash>
      executables_;
  mutable std::atomic<std::uint64_t> outcome_hits_{0};
  mutable std::atomic<std::uint64_t> outcome_builds_{0};
};

}  // namespace qucp
