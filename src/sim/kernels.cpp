#include "sim/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <limits>

namespace qucp::kern {

namespace {

/// Per-thread parallel_for cap override (0 = unset). Thread-local so each
/// ExecutionService worker caps its own kernel fan-out independently.
thread_local int t_parallel_threads_override = 0;

/// Process-wide runtime switch for the native dense kernels. Starts from
/// the QUCP_NATIVE_KERNELS environment variable ("0" disables) so one
/// binary can be A/B'd without recompiling.
std::atomic<bool>& native_enabled_flag() noexcept {
  static std::atomic<bool> flag{[] {
    const char* env = std::getenv("QUCP_NATIVE_KERNELS");
    return !(env != nullptr && *env == '0');
  }()};
  return flag;
}

/// cpuid says the AVX2/FMA variants may run on this machine (probed once;
/// the answer cannot change at runtime).
bool native_supported() noexcept {
  static const bool supported = [] {
    const CpuFeatures f = detect_cpu_features();
    return native_kernels_compiled() && f.avx2 && f.fma;
  }();
  return supported;
}

}  // namespace

CpuFeatures detect_cpu_features() noexcept {
  CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
  f.avx2 = __builtin_cpu_supports("avx2") != 0;
  f.fma = __builtin_cpu_supports("fma") != 0;
#endif
  return f;
}

bool native_kernels_compiled() noexcept {
#if defined(QUCP_NATIVE_KERNELS) && (defined(__x86_64__) || defined(__i386__))
  return true;
#else
  return false;
#endif
}

bool native_kernels_active() noexcept {
  return native_supported() &&
         native_enabled_flag().load(std::memory_order_relaxed);
}

void set_native_kernels(bool enable) noexcept {
  native_enabled_flag().store(enable, std::memory_order_relaxed);
}

int resolve_parallel_threads(int override_threads, const char* env_value,
                             unsigned hardware) noexcept {
  if (override_threads > 0) return override_threads;
  if (env_value != nullptr) {
    // strtol, not atoi: out-of-range input must clamp, not be UB.
    const long parsed = std::strtol(env_value, nullptr, 10);
    if (parsed > 0) {
      return static_cast<int>(
          std::min<long>(parsed, std::numeric_limits<int>::max()));
    }
  }
  // hardware_concurrency() == 0 is a legal "unknown" answer; treat it as a
  // single core rather than letting it zero out the split arithmetic.
  return hardware == 0 ? 1 : static_cast<int>(hardware);
}

int parallel_threads() noexcept {
  if (t_parallel_threads_override > 0) return t_parallel_threads_override;
  // Resolve env + hardware once: both re-read the OS on every call.
  static const int ambient = resolve_parallel_threads(
      0, std::getenv("QUCP_KERNEL_THREADS"),
      std::thread::hardware_concurrency());
  return ambient;
}

ParallelThreadsGuard::ParallelThreadsGuard(int n) noexcept
    : previous_(t_parallel_threads_override) {
  if (n > 0) t_parallel_threads_override = n;
}

ParallelThreadsGuard::~ParallelThreadsGuard() {
  t_parallel_threads_override = previous_;
}

namespace {

/// A gate matrix with exactly one nonzero per row is a generalized
/// permutation (CX, CZ, SWAP, Z, S, T, RZ, U1, X, Y, ...): each output
/// amplitude is one scaled input amplitude. Detecting it once per compile
/// removes almost all of the multiplies for the most common gates in
/// lowered circuits.
template <std::size_t LDIM>
bool as_generalized_permutation(const cx* u, int src[LDIM], cx val[LDIM]) {
  for (std::size_t r = 0; r < LDIM; ++r) {
    int nonzero = -1;
    for (std::size_t c = 0; c < LDIM; ++c) {
      const cx v = u[r * LDIM + c];
      if (v.real() != 0.0 || v.imag() != 0.0) {
        if (nonzero >= 0) return false;
        nonzero = static_cast<int>(c);
      }
    }
    if (nonzero < 0) return false;
    src[r] = nonzero;
    val[r] = u[r * LDIM + nonzero];
  }
  return true;
}

// --- specialized loops; coefficients come pre-unpacked from the compile
// step so replayed gates pay no detection or extraction. All dense paths
// expand complex arithmetic over doubles: same formula and association as
// std::complex operator* but without its NaN-recovery branch (__muldc3),
// which the optimizer cannot remove from the std::complex path.

void run_diag1(cx* a, std::size_t pairs, int target, std::size_t mask,
               const CompiledUnitary& cu) {
  const double v0r = cu.re[0], v0i = cu.im[0];
  const double v1r = cu.re[1], v1i = cu.im[1];
  parallel_for(pairs, [&](std::size_t begin, std::size_t end) {
    for (std::size_t t = begin; t < end; ++t) {
      const std::size_t i0 = insert_bit(t, target);
      const std::size_t i1 = i0 | mask;
      const double a0r = a[i0].real(), a0i = a[i0].imag();
      const double a1r = a[i1].real(), a1i = a[i1].imag();
      a[i0] = cx{v0r * a0r - v0i * a0i, v0r * a0i + v0i * a0r};
      a[i1] = cx{v1r * a1r - v1i * a1i, v1r * a1i + v1i * a1r};
    }
  });
}

void run_anti1(cx* a, std::size_t pairs, int target, std::size_t mask,
               const CompiledUnitary& cu) {
  const double v0r = cu.re[0], v0i = cu.im[0];
  const double v1r = cu.re[1], v1i = cu.im[1];
  parallel_for(pairs, [&](std::size_t begin, std::size_t end) {
    for (std::size_t t = begin; t < end; ++t) {
      const std::size_t i0 = insert_bit(t, target);
      const std::size_t i1 = i0 | mask;
      const double a0r = a[i0].real(), a0i = a[i0].imag();
      const double a1r = a[i1].real(), a1i = a[i1].imag();
      a[i0] = cx{v0r * a1r - v0i * a1i, v0r * a1i + v0i * a1r};
      a[i1] = cx{v1r * a0r - v1i * a0i, v1r * a0i + v1i * a0r};
    }
  });
}

void dense1_range_scalar(cx* a, std::size_t begin, std::size_t end, int target,
                         std::size_t mask, const CompiledUnitary& cu) {
  const double u00r = cu.re[0], u00i = cu.im[0];
  const double u01r = cu.re[1], u01i = cu.im[1];
  const double u10r = cu.re[2], u10i = cu.im[2];
  const double u11r = cu.re[3], u11i = cu.im[3];
  for (std::size_t t = begin; t < end; ++t) {
    const std::size_t i0 = insert_bit(t, target);
    const std::size_t i1 = i0 | mask;
    const double a0r = a[i0].real(), a0i = a[i0].imag();
    const double a1r = a[i1].real(), a1i = a[i1].imag();
    a[i0] = cx{u00r * a0r - u00i * a0i + u01r * a1r - u01i * a1i,
               u00r * a0i + u00i * a0r + u01r * a1i + u01i * a1r};
    a[i1] = cx{u10r * a0r - u10i * a0i + u11r * a1r - u11i * a1i,
               u10r * a0i + u10i * a0r + u11r * a1i + u11i * a1r};
  }
}

/// parallel_for over `count` quads (or blocks) whose AVX2 body processes
/// two adjacent ones per step when `paired`: chunks then split on even
/// boundaries, so the result never depends on the thread count.
template <typename F>
void parallel_for_units(std::size_t count, bool paired, F&& fn) {
  const std::size_t step = paired ? 2 : 1;
  parallel_for(count / step, [&](std::size_t begin, std::size_t end) {
    fn(begin * step, end * step);
  });
}

void run_dense1(cx* a, std::size_t pairs, int target, std::size_t mask,
                const CompiledUnitary& cu) {
#if defined(QUCP_NATIVE_KERNELS) && (defined(__x86_64__) || defined(__i386__))
  if (native_kernels_active()) {
    parallel_for_units(pairs, target >= 1,
                       [&](std::size_t begin, std::size_t end) {
                         detail::dense1_range_avx2(a, begin, end, target,
                                                   mask, cu);
                       });
    return;
  }
#endif
  parallel_for(pairs, [&](std::size_t begin, std::size_t end) {
    dense1_range_scalar(a, begin, end, target, mask, cu);
  });
}

using Tag = CompiledUnitary::Tag;

/// One quad {base, base|ml, base|mh, base|mh|ml} through a compiled 4x4 of
/// tag T: the scalar per-quad formula of every 4x4 update — statevector 2q
/// gates, the density row/column passes, the 1q superket gate — in the
/// single-gate sweeps and the fused noisy sweep alike.
template <Tag T>
inline void gate_quad(cx* a, std::size_t base, std::size_t mh, std::size_t ml,
                      const CompiledUnitary& cu) {
  if constexpr (T == Tag::kCxPerm) {
    std::swap(a[base | mh], a[base | mh | ml]);
  } else if constexpr (T == Tag::kSwapPerm) {
    std::swap(a[base | ml], a[base | mh]);
  } else {
    const std::size_t idx[4] = {base, base | ml, base | mh, base | mh | ml};
    if constexpr (T == Tag::kDiag2) {
      for (int r = 0; r < 4; ++r) {
        const double sr = a[idx[r]].real(), si = a[idx[r]].imag();
        a[idx[r]] = cx{cu.re[r] * sr - cu.im[r] * si,
                       cu.re[r] * si + cu.im[r] * sr};
      }
    } else if constexpr (T == Tag::kPerm2) {
      const cx in[4] = {a[idx[0]], a[idx[1]], a[idx[2]], a[idx[3]]};
      for (int r = 0; r < 4; ++r) {
        const cx s = in[cu.src[r]];
        a[idx[r]] = cx{cu.re[r] * s.real() - cu.im[r] * s.imag(),
                       cu.re[r] * s.imag() + cu.im[r] * s.real()};
      }
    } else {
      const double ar[4] = {a[idx[0]].real(), a[idx[1]].real(),
                            a[idx[2]].real(), a[idx[3]].real()};
      const double ai[4] = {a[idx[0]].imag(), a[idx[1]].imag(),
                            a[idx[2]].imag(), a[idx[3]].imag()};
      for (int r = 0; r < 4; ++r) {
        const int row = 4 * r;
        double accr = 0.0, acci = 0.0;
        for (int c = 0; c < 4; ++c) {
          accr += cu.re[row + c] * ar[c] - cu.im[row + c] * ai[c];
          acci += cu.re[row + c] * ai[c] + cu.im[row + c] * ar[c];
        }
        a[idx[r]] = cx{accr, acci};
      }
    }
  }
}

/// A compiled 4x4 of tag T on bits (p0 < p1; mh/ml = high/low operand
/// masks): the AVX2 bodies where they exist, else the scalar quad loop.
template <Tag T>
void gate_quads(cx* a, std::size_t quads, int p0, int p1, std::size_t mh,
                std::size_t ml, const CompiledUnitary& cu) {
#if defined(QUCP_NATIVE_KERNELS) && (defined(__x86_64__) || defined(__i386__))
  if constexpr (T == Tag::kDiag2 || T == Tag::kPerm2 || T == Tag::kDense2) {
    if (native_kernels_active()) {
      parallel_for_units(quads, p0 >= 1, [&](std::size_t b, std::size_t e) {
        if constexpr (T == Tag::kDiag2) {
          detail::diag2_range_avx2(a, b, e, mh, ml, p0, p1, cu);
        } else if constexpr (T == Tag::kPerm2) {
          detail::perm2_range_avx2(a, b, e, mh, ml, p0, p1, cu);
        } else {
          detail::dense2_range_avx2(a, b, e, mh, ml, p0, p1, cu);
        }
      });
      return;
    }
  }
#endif
  parallel_for(quads, [&](std::size_t begin, std::size_t end) {
    for (std::size_t t = begin; t < end; ++t) {
      gate_quad<T>(a, insert_bit(insert_bit(t, p0), p1), mh, ml, cu);
    }
  });
}

// --- density noise channels: the scalar per-quad / per-block formulas of
// the noisy-gate sweep.

/// Relaxation on one quad (mr/mc = the qubit's row/column masks).
inline void relax_quad(cx* rho, std::size_t base, std::size_t mr,
                       std::size_t mc, const RelaxCoeffs& c) {
  const cx p11 = rho[base | mr | mc];
  rho[base] += c.gamma * p11;
  rho[base | mc] *= c.decay;
  rho[base | mr] *= c.decay;
  rho[base | mr | mc] = c.keep * p11;
}

/// One-qubit depolarizing on one quad.
inline void depol1_quad(cx* rho, std::size_t base, std::size_t mr,
                        std::size_t mc, const DepolCoeffs& c) {
  const cx p00 = rho[base];
  const cx p11 = rho[base | mr | mc];
  const cx fill = c.c2 * (p00 + p11) * c.inv_ldim;
  rho[base] = c.c1 * p00 + fill;
  rho[base | mc] *= c.c1;
  rho[base | mr] *= c.c1;
  rho[base | mr | mc] = c.c1 * p11 + fill;
}

/// Two-qubit depolarizing on one 16-element block: trace of the local
/// diagonal, uniform contraction, refill.
inline void depol2_block(cx* rho, std::size_t base, const std::size_t* row_off,
                         const std::size_t* col_off, const DepolCoeffs& c) {
  cx traced{0.0, 0.0};
  for (std::size_t s = 0; s < 4; ++s) {
    traced += rho[base + row_off[s] + col_off[s]];
  }
  const cx fill = c.c2 * traced * c.inv_ldim;
  for (std::size_t sr = 0; sr < 4; ++sr) {
    for (std::size_t sc = 0; sc < 4; ++sc) {
      cx& v = rho[base + row_off[sr] + col_off[sc]];
      v *= c.c1;
      if (sr == sc) v += fill;
    }
  }
}

}  // namespace

detail::NoisyPlan detail::make_plan(int n, const NoisyGate& g,
                                    std::size_t size) {
  NoisyPlan p;
  p.k = static_cast<int>(g.qubits.size());
  p.n = n;
  p.gate = g;
  std::size_t block_bits = 0;
  if (p.k == 1) {
    const int q = g.qubits[0];
    p.positions[0] = q;
    p.positions[1] = q + n;
    // The quad over (row bit, column bit): relaxation, the superket gate
    // (high operand = row bit) and depolarizing all update exactly it.
    p.relax[0] = {std::size_t{1} << (q + n), std::size_t{1} << q, {0}, 1};
    p.col = p.relax[0];
    block_bits = p.col.mh | p.col.ml;
  } else {
    const int a = g.qubits[0];
    const int b = g.qubits[1];
    const std::size_t ca = std::size_t{1} << a, cb = std::size_t{1} << b;
    const std::size_t ra = ca << n, rb = cb << n;
    for (std::size_t s = 0; s < 4; ++s) {
      p.col_off[s] = ((s >> 1) ? ca : 0) | ((s & 1) ? cb : 0);
      p.row_off[s] = p.col_off[s] << n;
    }
    int pos[4] = {a, b, a + n, b + n};
    std::sort(pos, pos + 4);
    std::copy(pos, pos + 4, p.positions);
    p.relax[0] = {ra, ca, {0, cb, rb, rb | cb}, 4};
    p.relax[1] = {rb, cb, {0, ca, ra, ra | ca}, 4};
    p.row = {ra, rb, {}, 4};
    p.col = {ca, cb, {}, 4};
    std::copy(p.col_off, p.col_off + 4, p.row.off);
    std::copy(p.row_off, p.row_off + 4, p.col.off);
    block_bits = ca | cb | ra | rb;
  }
  // Superket bit 0 (local qubit 0's column bit) always stays free: the
  // AVX2 paired layout reads block t + 1 at base | 1, and an op on qubit 0
  // keeps its in-register column bit.
  const std::size_t keep0 = ~std::size_t{1};
  p.tied = g.tied & keep0;
  assert((g.zero & block_bits) == 0);
  assert(((p.tied | (p.tied << n)) & block_bits) == 0);
  p.free = (size - 1) & ~(block_bits | (g.zero & keep0) | (p.tied << n));
  p.blocks = std::size_t{1} << std::popcount(p.free);
  return p;
}

namespace {

/// Scalar noisy-gate sweep over blocks [begin, end) of a K-operand plan.
template <Tag T, int K>
void noisy_range_scalar(cx* rho, std::size_t begin, std::size_t end,
                        const detail::NoisyPlan& plan) {
  constexpr int kQuads = K == 1 ? 1 : 4;  // quads per block and step
  // Local copies: the stores through rho may alias the caller's plan and
  // coefficients, which would reload them on every block.
  const detail::NoisyPlan p = plan;
  const NoisyGate& g = p.gate;
  RelaxCoeffs relax[K];
  for (int j = 0; j < K; ++j) {
    if (g.relax[j] != nullptr) relax[j] = *g.relax[j];
  }
  std::size_t c = p.counter(begin);
  for (std::size_t t = begin; t < end; ++t, c = p.next(c)) {
    const std::size_t base = p.base(c);
    for (int j = 0; j < K; ++j) {
      if (g.relax[j] == nullptr) continue;
      const detail::NoisyPlan::Step& s = p.relax[j];
      for (int i = 0; i < kQuads; ++i) {
        relax_quad(rho, base | s.off[i], s.mh, s.ml, relax[j]);
      }
    }
    if constexpr (K == 2) {
      for (int i = 0; i < 4; ++i) {
        gate_quad<T>(rho, base | p.row.off[i], p.row.mh, p.row.ml, *g.row);
      }
    }
    if (g.col != nullptr) {
      for (int i = 0; i < kQuads; ++i) {
        gate_quad<T>(rho, base | p.col.off[i], p.col.mh, p.col.ml, *g.col);
      }
    }
    if (g.depol == nullptr) continue;
    if constexpr (K == 1) {
      depol1_quad(rho, base, p.col.mh, p.col.ml, *g.depol);
    } else {
      depol2_block(rho, base, p.row_off, p.col_off, *g.depol);
    }
  }
}

}  // namespace

CompiledUnitary compile_unitary(std::span<const cx> u) {
  CompiledUnitary cu;
  if (u.size() == 4) {
    cu.k = 1;
    int src[2];
    cx val[2];
    // Note: one-nonzero-per-row does NOT imply distinct source columns
    // for a general (non-unitary) matrix — e.g. [[a,0],[b,0]] — so the
    // diag/antidiag tags additionally require src to be the identity or
    // the transposition; anything else goes dense, which is always
    // correct.
    if (as_generalized_permutation<2>(u.data(), src, val) &&
        src[0] != src[1]) {
      cu.tag = src[0] == 0 ? CompiledUnitary::Tag::kDiag1
                           : CompiledUnitary::Tag::kAnti1;
      for (int r = 0; r < 2; ++r) {
        cu.re[r] = val[r].real();
        cu.im[r] = val[r].imag();
      }
    } else {
      cu.tag = CompiledUnitary::Tag::kDense1;
      for (int i = 0; i < 4; ++i) {
        cu.re[i] = u[i].real();
        cu.im[i] = u[i].imag();
      }
    }
    return cu;
  }
  assert(u.size() == 16);
  cu.k = 2;
  int src[4];
  cx val[4];
  if (as_generalized_permutation<4>(u.data(), src, val)) {
    const bool unit = val[0] == cx{1.0, 0.0} && val[1] == cx{1.0, 0.0} &&
                      val[2] == cx{1.0, 0.0} && val[3] == cx{1.0, 0.0};
    if (unit && src[0] == 0 && src[1] == 1 && src[2] == 3 && src[3] == 2) {
      cu.tag = CompiledUnitary::Tag::kCxPerm;
      return cu;
    }
    if (unit && src[0] == 0 && src[1] == 2 && src[2] == 1 && src[3] == 3) {
      cu.tag = CompiledUnitary::Tag::kSwapPerm;
      return cu;
    }
    const bool diag =
        src[0] == 0 && src[1] == 1 && src[2] == 2 && src[3] == 3;
    cu.tag = diag ? CompiledUnitary::Tag::kDiag2
                  : CompiledUnitary::Tag::kPerm2;
    for (int r = 0; r < 4; ++r) {
      cu.src[r] = src[r];
      cu.re[r] = val[r].real();
      cu.im[r] = val[r].imag();
    }
    return cu;
  }
  cu.tag = CompiledUnitary::Tag::kDense2;
  for (int i = 0; i < 16; ++i) {
    cu.re[i] = u[i].real();
    cu.im[i] = u[i].imag();
  }
  return cu;
}

void apply_compiled(std::span<cx> amps, int n, std::span<const int> targets,
                    const CompiledUnitary& cu) {
  assert(amps.size() == (std::size_t{1} << n));
  assert(static_cast<int>(targets.size()) == cu.k);
  (void)n;
  cx* a = amps.data();
  if (cu.k == 1) {
    const int target = targets[0];
    const std::size_t mask = std::size_t{1} << target;
    const std::size_t pairs = amps.size() >> 1;
    switch (cu.tag) {
      case CompiledUnitary::Tag::kDiag1:
        run_diag1(a, pairs, target, mask, cu);
        return;
      case CompiledUnitary::Tag::kAnti1:
        run_anti1(a, pairs, target, mask, cu);
        return;
      default:
        run_dense1(a, pairs, target, mask, cu);
        return;
    }
  }
  const int bit_hi = targets[0];
  const int bit_lo = targets[1];
  const std::size_t mh = std::size_t{1} << bit_hi;
  const std::size_t ml = std::size_t{1} << bit_lo;
  const int p0 = std::min(bit_hi, bit_lo);
  const int p1 = std::max(bit_hi, bit_lo);
  const std::size_t quads = amps.size() >> 2;
  detail::with_tag2(cu.tag, [&](auto tag) {
    gate_quads<decltype(tag)::value>(a, quads, p0, p1, mh, ml, cu);
  });
}

void apply_noisy_gate(std::span<cx> rho, int n, const NoisyGate& g) {
  assert(g.qubits.size() == 1 || g.qubits.size() == 2);
  assert(g.qubits.size() == 1 || g.row->tag == g.col->tag);
  const detail::NoisyPlan p = detail::make_plan(n, g, rho.size());
  cx* r = rho.data();
#if defined(QUCP_NATIVE_KERNELS) && (defined(__x86_64__) || defined(__i386__))
  if (native_kernels_active()) {
    parallel_for_units(p.blocks, p.positions[0] >= 1,
                       [&](std::size_t b, std::size_t e) {
                         detail::noisy_range_avx2(r, b, e, p);
                       });
    return;
  }
#endif
  detail::with_tag2(p.tag(), [&](auto tag) {
    constexpr Tag T = decltype(tag)::value;
    parallel_for(p.blocks, [&](std::size_t begin, std::size_t end) {
      if (p.k == 1) {
        noisy_range_scalar<T, 1>(r, begin, end, p);
      } else {
        noisy_range_scalar<T, 2>(r, begin, end, p);
      }
    });
  });
}

}  // namespace qucp::kern
