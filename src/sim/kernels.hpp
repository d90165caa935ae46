#pragma once
// Statevector-style update kernels shared by Statevector and DensityMatrix.
//
// A compiled 1- or 2-qubit unitary on an n-qubit amplitude vector touches
// each amplitude once: the 2^(n-k) "base" indices (target bits clear) are
// enumerated directly by bit-insertion — spread a dense counter across the
// non-target bit positions — instead of skip-scanning all 2^n indices and
// discarding the ones with a target bit set. Gates reach the kernels only
// in compiled form (compile_unitary, hoisted to program-compile time by
// sim/fusion.hpp), with the amplitudes of each pair or quad held in
// registers; the executor lowers every gate to k <= 2, so there is no
// larger-k path.
//
// DensityMatrix reuses these kernels by treating rho as a superket of
// length dim^2: rho -> U rho U^dag is (U (x) conj(U)) |rho>. A 1q gate is
// one 4x4 pass on bits (q + n, q); a 2q gate is a pass of U on the row
// bits (q + n) and one of conj(U) on the column bits (q).
//
// A noisy executor op — idle relaxation on each operand, the gate,
// depolarizing — updates rho in 2^k x 2^k local blocks over its operands'
// row and column bits, so apply_noisy_gate runs the whole sequence block
// by block in one sweep. It is the only kernel that applies noise to rho:
// a pre-measurement idle window is a one-qubit NoisyGate with relaxation
// and no gate pass. Each step applies one per-quad / per-block formula,
// the same in every sweep it is part of; both kernel TUs are compiled
// without floating-point contraction so that holds wherever a formula is
// inlined.
//
// The sweep visits only the live blocks (NoisyGate::zero and ::tied): it
// skips the entries of qubits no op has touched yet, which are exact
// zeros, and the entries whose row and column differ on a qubit past its
// last gate, which nothing reads again. Superket bit 0 is never skipped,
// so every op keeps the AVX2 layout and pairing it has over the full
// superket and each kept entry sees the same instructions in the same op
// order.
//
// Kernels whose base loop is large are split across std::thread workers
// (disjoint index ranges, join before return); small states — everything
// the paper's <= 5-qubit programs produce — stay single-threaded.

#include <cstddef>
#include <span>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/matrix.hpp"

namespace qucp::kern {

/// Base loops at least this large are split across hardware threads.
inline constexpr std::size_t kParallelGrain = std::size_t{1} << 16;

/// CPU SIMD capabilities relevant to the dense kernels, probed via cpuid.
struct CpuFeatures {
  bool avx2 = false;
  bool fma = false;
};

/// Probe the executing CPU (not the compile target) for AVX2/FMA.
[[nodiscard]] CpuFeatures detect_cpu_features() noexcept;

/// True when this binary carries the AVX2/FMA dense-kernel variants
/// (built with the QUCP_NATIVE_KERNELS CMake option).
[[nodiscard]] bool native_kernels_compiled() noexcept;

/// True when dense 1q/2q kernels currently dispatch to the AVX2/FMA
/// variants: compiled in, CPU supports avx2+fma, and not disabled via
/// set_native_kernels(false) or QUCP_NATIVE_KERNELS=0 in the environment.
[[nodiscard]] bool native_kernels_active() noexcept;

/// Enable/disable the native dense kernels at runtime (process-wide).
/// A no-op beyond bookkeeping when they are not compiled in or the CPU
/// lacks the features; used by benches and golden tests to compare the
/// scalar and SIMD paths within one binary.
void set_native_kernels(bool enable) noexcept;

/// Worker-thread cap resolution rule for parallel_for, exposed as a pure
/// function so the edge cases are testable: an explicit override (> 0)
/// wins, then a positive integer in `env_value` (the QUCP_KERNEL_THREADS
/// variable), then `hardware` — where 0, which the standard allows
/// hardware_concurrency() to report when the core count is unknown, maps
/// to 1 instead of poisoning the chunk math. Always returns >= 1.
[[nodiscard]] int resolve_parallel_threads(int override_threads,
                                           const char* env_value,
                                           unsigned hardware) noexcept;

/// Effective parallel_for thread cap for the calling thread: the
/// thread-local override when set, else QUCP_KERNEL_THREADS, else the
/// hardware concurrency (cached; glibc re-reads sysfs per call). >= 1.
[[nodiscard]] int parallel_threads() noexcept;

/// Scoped thread cap: applies `n` for the guard's lifetime when n > 0, a
/// no-op otherwise. Restores the previous override either way. An
/// ExecutionService worker caps itself at hw/num_workers this way so N
/// concurrent batch simulations cannot oversubscribe the machine N-fold.
class ParallelThreadsGuard {
 public:
  explicit ParallelThreadsGuard(int n) noexcept;
  ~ParallelThreadsGuard();
  ParallelThreadsGuard(const ParallelThreadsGuard&) = delete;
  ParallelThreadsGuard& operator=(const ParallelThreadsGuard&) = delete;

 private:
  int previous_;
};

/// Run fn(begin, end) over [0, count), split across up to
/// parallel_threads() workers when count is large. fn must be race-free on
/// disjoint ranges. Threads are joined before returning.
template <typename F>
void parallel_for(std::size_t count, F&& fn) {
  const auto max_workers = static_cast<std::size_t>(parallel_threads());
  if (count < 2 * kParallelGrain || max_workers <= 1) {
    fn(std::size_t{0}, count);
    return;
  }
  // Both operands are >= 2 here (count >= 2 * grain and max_workers >= 2),
  // so the chunk math below never divides by zero or strands elements.
  const std::size_t num_chunks =
      std::min<std::size_t>(max_workers, count / kParallelGrain);
  const std::size_t chunk = (count + num_chunks - 1) / num_chunks;
  std::vector<std::thread> workers;
  workers.reserve(num_chunks - 1);
  for (std::size_t c = 1; c < num_chunks; ++c) {
    const std::size_t begin = c * chunk;
    const std::size_t end = std::min(count, begin + chunk);
    if (begin >= end) break;
    workers.emplace_back([&fn, begin, end] { fn(begin, end); });
  }
  fn(std::size_t{0}, std::min(count, chunk));
  for (std::thread& w : workers) w.join();
}

/// Insert a zero bit at position `bit`: the counter's bits at and above
/// `bit` shift up one, producing the base index with that bit clear.
[[nodiscard]] inline std::size_t insert_bit(std::size_t counter,
                                            int bit) noexcept {
  const std::size_t low = (std::size_t{1} << bit) - 1;
  return ((counter & ~low) << 1) | (counter & low);
}

/// A 1- or 2-qubit unitary pre-classified for the fast paths below:
/// the structure tag (diagonal / antidiagonal / CX / SWAP / generalized
/// permutation / dense) and the unpacked real/imaginary coefficients are
/// computed once, so replayed gates skip per-call detection entirely.
struct CompiledUnitary {
  enum class Tag : std::uint8_t {
    kDiag1,   ///< diag(v0, v1): Z, S, T, RZ, U1
    kAnti1,   ///< antidiag(v0, v1): X, Y
    kDense1,  ///< general 2x2
    kCxPerm,  ///< CX pattern: swap the hi=1 pair
    kSwapPerm,///< SWAP pattern: exchange the mixed pair
    kDiag2,   ///< diagonal 4x4: CZ, controlled phases
    kPerm2,   ///< generalized permutation 4x4
    kDense2,  ///< general 4x4
  };
  Tag tag = Tag::kDense1;
  int k = 1;           ///< operand count (1 or 2)
  int src[4] = {};     ///< kPerm2: source local index per row
  double re[16] = {};  ///< coefficients (dense: row-major; perm/diag: per row)
  double im[16] = {};
};

/// Classify and unpack a 1q (u.size() == 4) or 2q (u.size() == 16)
/// row-major unitary.
[[nodiscard]] CompiledUnitary compile_unitary(std::span<const cx> u);

/// Apply a compiled 1q/2q unitary; targets follows gate_matrix's operand
/// order (targets[0] = high local bit).
void apply_compiled(std::span<cx> amps, int n, std::span<const int> targets,
                    const CompiledUnitary& cu);

/// Closed-form coefficients of one qubit's thermal-relaxation channel
/// (DensityMatrix::apply_relaxation): on each 2x2 sub-block over the
/// qubit's (row, column) bits, rho00 += gamma rho11, the coherences scale
/// by decay and rho11 by keep.
struct RelaxCoeffs {
  double gamma = 0.0;
  double decay = 1.0;
  double keep = 1.0;
};

/// Coefficients of the k-qubit uniform depolarizing channel (the depol_p
/// of DensityMatrix::apply_noisy_gate): rho -> c1 rho + c2 [ptrace(rho)
/// (x) I] * inv_ldim, with inv_ldim = 2^-k.
struct DepolCoeffs {
  double c1 = 1.0;
  double c2 = 0.0;
  double inv_ldim = 1.0;
};

/// One gate of the noisy density-matrix walk: optional relaxation on each
/// operand (operand order), the compiled gate, then optional depolarizing,
/// over the live entries of rho. Both masks must leave the operands' bits
/// clear; 0 and 0 sweep every block.
struct NoisyGate {
  std::span<const int> qubits;  ///< 1 or 2 local qubits; [0] = high bit
  /// k == 1: the superket U (x) conj(U) on bits (q + n, q), or null for no
  /// gate pass; k == 2: conj(U) on the column bits.
  const CompiledUnitary* col = nullptr;
  /// k == 2 only: U on the row bits; must carry col's tag.
  const CompiledUnitary* row = nullptr;
  const RelaxCoeffs* relax[2] = {};  ///< per operand; null = no idle window
  const DepolCoeffs* depol = nullptr;  ///< null = no gate error
  /// Superket bits known to be clear in every nonzero entry (the row and
  /// column bits of qubits no op has touched): the entries with one set
  /// are neither read nor written.
  std::size_t zero = 0;
  /// Column bits q whose row twin q + n is tied to them (qubits past their
  /// last gate): only the entries whose row and column agree on q are
  /// updated; the others are left stale.
  std::size_t tied = 0;
};

/// Apply a NoisyGate in one sweep over the live 2^k x 2^k local blocks of
/// an n-qubit superket rho: relaxation per operand, the row pass, the
/// column pass and depolarizing, in that order, each one per-quad /
/// per-block formula — one pass over rho instead of up to five.
void apply_noisy_gate(std::span<cx> rho, int n, const NoisyGate& g);

namespace detail {

/// A NoisyGate resolved against a superket: block layout, the bits the
/// block index walks, plus, per step, the masks and in-block offsets of
/// the quads it updates. Built once per apply_noisy_gate call and shared
/// by the scalar and AVX2 sweeps.
struct NoisyPlan {
  /// One quad-level step: relaxation on one operand (mh = row mask, ml =
  /// column mask) or one gate pass (mh/ml = high/low operand masks).
  struct Step {
    std::size_t mh = 0;
    std::size_t ml = 0;
    std::size_t off[4] = {};  ///< quad bases within the block
    int count = 0;
  };
  int k = 1;
  int n = 0;
  int positions[4] = {};  ///< the block's superket bits, ascending
  /// Superket bits the block index is deposited into: every bit outside
  /// the block, the zero mask and the tied row bits. Always holds bit 0
  /// when bit 0 is outside the block.
  std::size_t free = 0;
  std::size_t tied = 0;  ///< NoisyGate::tied without bit 0
  std::size_t blocks = 0;
  Step relax[2];
  Step row;  ///< k == 2: U on the row bits
  /// k == 1: the superket gate, or no pass when NoisyGate::col is null;
  /// k == 2: conj(U) on the columns.
  Step col;
  std::size_t row_off[4] = {};  ///< k == 2 depolarizing: row bits of s
  std::size_t col_off[4] = {};  ///< k == 2 depolarizing: column bits of s
  NoisyGate gate;

  /// The walk's counter at block t: t's bits deposited into the free bits
  /// in ascending order. It costs one step per bit of t, so a range body
  /// calls it once, for its first block, and steps on with next().
  [[nodiscard]] std::size_t counter(std::size_t t) const noexcept {
    std::size_t c = 0;
    for (std::size_t m = free; t != 0; m &= m - 1, t >>= 1) {
      if ((t & 1) != 0) c |= m & (~m + 1);
    }
    return c;
  }

  /// The counter of the block after the one at counter c, at one carry
  /// through the fixed bits however many there are. The counter leaves out
  /// the tied row bits, so the chain from block to block is three
  /// operations. Where the AVX2 body pairs blocks, the pair's second block
  /// is at c | 1 and the next pair starts at next(c | 1).
  [[nodiscard]] std::size_t next(std::size_t c) const noexcept {
    return ((c | ~free) + 1) & free;
  }

  /// Superket index of the base of the block at counter c: c plus the row
  /// twin of each set tied column bit.
  [[nodiscard]] std::size_t base(std::size_t c) const noexcept {
    return c | ((c & tied) << n);
  }

  /// The tag the sweeps specialize on. A walk with no gate pass takes
  /// kCxPerm, whose unused gate body keeps the loop lightest.
  [[nodiscard]] CompiledUnitary::Tag tag() const noexcept {
    return gate.col != nullptr ? gate.col->tag : CompiledUnitary::Tag::kCxPerm;
  }
};

/// The plan of `g` on an n-qubit superket of `size` elements.
[[nodiscard]] NoisyPlan make_plan(int n, const NoisyGate& g,
                                  std::size_t size);

/// Call fn(std::integral_constant<Tag, T>{}) with `tag` lifted to a
/// template argument, so 2q sweeps specialize on the tag outside their
/// loops. Non-2q tags map to the dense body.
template <typename F>
void with_tag2(CompiledUnitary::Tag tag, F&& fn) {
  using Tag = CompiledUnitary::Tag;
  switch (tag) {
    case Tag::kCxPerm:
      fn(std::integral_constant<Tag, Tag::kCxPerm>{});
      return;
    case Tag::kSwapPerm:
      fn(std::integral_constant<Tag, Tag::kSwapPerm>{});
      return;
    case Tag::kDiag2:
      fn(std::integral_constant<Tag, Tag::kDiag2>{});
      return;
    case Tag::kPerm2:
      fn(std::integral_constant<Tag, Tag::kPerm2>{});
      return;
    default:
      fn(std::integral_constant<Tag, Tag::kDense2>{});
      return;
  }
}

// Internal range bodies of the dense 1q/2q kernels, dispatched per CPU.
// The _avx2 variants live in kernels_avx2.cpp, compiled for x86-64-v3 only
// under the QUCP_NATIVE_KERNELS CMake option and only ever called after a
// cpuid check; the scalar bodies in kernels.cpp are the portable fallback.
// Where the lowest target bit is >= 1 the AVX2 bodies process two adjacent
// quads per step, so `begin` and `end` must then be even.
void dense1_range_avx2(cx* a, std::size_t begin, std::size_t end, int target,
                       std::size_t mask, const CompiledUnitary& cu);
void dense2_range_avx2(cx* a, std::size_t begin, std::size_t end,
                       std::size_t mh, std::size_t ml, int p0, int p1,
                       const CompiledUnitary& cu);
void diag2_range_avx2(cx* a, std::size_t begin, std::size_t end,
                      std::size_t mh, std::size_t ml, int p0, int p1,
                      const CompiledUnitary& cu);
void perm2_range_avx2(cx* a, std::size_t begin, std::size_t end,
                      std::size_t mh, std::size_t ml, int p0, int p1,
                      const CompiledUnitary& cu);

// Range body of the noisy-gate sweep (`begin`/`end` count blocks).
void noisy_range_avx2(cx* rho, std::size_t begin, std::size_t end,
                      const NoisyPlan& plan);

// 4x4 complex matrix products for FusionPlan::materialize's per-binding
// block assembly (sim/fusion.cpp) — the matmul chain an angle sweep replays
// per binding. All matrices are row-major spans of cx; `out` may alias
// either operand (products accumulate in registers and store once).
// Results match the scalar products to ~1 ulp per term (FMA), not bitwise.
//
// mul4_avx2:      out = a * b
// swap_mul4_avx2: m = swap_operands(u) * m, the operand-reorder fused into
//                 the coefficient loads (swapped(u)[r][c] = u[s[r]][s[c]],
//                 s = {0,2,1,3}) so no reordered copy is materialized.
// lift_mul4_avx2: m = lift1(u, high) * m for a 2x2 `u`, exploiting the
//                 lifted matrix's sparsity: each output row mixes two rows
//                 of m (8 complex row-scale FMAs instead of a full mul4).
// mul4_lift_avx2: m = m * lift1(u, high), the kAbsorb orientation; each
//                 output row mixes columns of the same row of m.
void mul4_avx2(cx* out, const cx* a, const cx* b);
void swap_mul4_avx2(cx* m, const cx* u);
void lift_mul4_avx2(cx* m, const cx* u, bool high);
void mul4_lift_avx2(cx* m, const cx* u, bool high);

}  // namespace detail

}  // namespace qucp::kern
