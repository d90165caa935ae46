// AVX2/FMA variants of the dense 1q/2q kernel range bodies and of the
// noisy-gate sweep.
//
// This TU is compiled with -march=x86-64-v3 when the QUCP_NATIVE_KERNELS
// CMake option is ON and contributes nothing otherwise, so the library
// builds identically on toolchains/targets without AVX2. The functions
// here are only ever reached through the runtime dispatch in kernels.cpp
// (cpuid-gated via native_kernels_active()), so one binary serves both
// ISAs with a scalar fallback.
//
// Data layout: a cx is an interleaved (re, im) pair of doubles, so one
// 256-bit register holds two complex amplitudes. Complex arithmetic uses
// the addsub identity: for y = sum_c u_c * x_c,
//   re(y) = sum u_c.re * x_c.re - sum u_c.im * x_c.im
//   im(y) = sum u_c.re * x_c.im + sum u_c.im * x_c.re
// i.e. accumulate (u.re * x) and (u.im * swap(x)) separately with FMAs and
// combine once with vaddsubpd. Results match the scalar kernels to ~1 ulp
// per term (FMA contracts the multiplies), not bitwise — callers that need
// the scalar stream disable dispatch via set_native_kernels(false).
//
// Every 4x4 and noise-channel update is written once as a register body:
// a "paired" body for two adjacent quads (base, base | 1) when superket
// bit 0 is not one of the update's bits, and a row / single-quad body
// otherwise. The gate range kernels (load, body, store) and the noisy
// sweep (load a block, run every step's body, store) choose between them
// by the same rule, so each element sees the same instructions either
// way. The TU is built with -ffp-contract=off: every fused multiply-add
// is an explicit intrinsic, so no body's rounding depends on the context
// it is inlined into.

#include "sim/kernels.hpp"

#if defined(QUCP_NATIVE_KERNELS) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include <utility>

namespace qucp::kern::detail {

void dense1_range_avx2(cx* a, std::size_t begin, std::size_t end, int target,
                       std::size_t mask, const CompiledUnitary& cu) {
  double* const p = reinterpret_cast<double*>(a);
  if (target >= 1) {
    // Bases with the target bit clear come in contiguous runs of
    // 2^target >= 2, so an even counter t and its successor map to adjacent
    // i0 (and adjacent i1): process two pairs per iteration with full-width
    // loads (the caller splits ranges on even boundaries).
    const __m256d u00r = _mm256_set1_pd(cu.re[0]), u00i = _mm256_set1_pd(cu.im[0]);
    const __m256d u01r = _mm256_set1_pd(cu.re[1]), u01i = _mm256_set1_pd(cu.im[1]);
    const __m256d u10r = _mm256_set1_pd(cu.re[2]), u10i = _mm256_set1_pd(cu.im[2]);
    const __m256d u11r = _mm256_set1_pd(cu.re[3]), u11i = _mm256_set1_pd(cu.im[3]);
    for (std::size_t t = begin; t < end; t += 2) {
      const std::size_t i0 = insert_bit(t, target);
      double* const p0 = p + 2 * i0;
      double* const p1 = p + 2 * (i0 | mask);
      const __m256d x0 = _mm256_loadu_pd(p0);  // [x0(t), x0(t+1)]
      const __m256d x1 = _mm256_loadu_pd(p1);
      const __m256d x0s = _mm256_permute_pd(x0, 0x5);  // im/re swapped
      const __m256d x1s = _mm256_permute_pd(x1, 0x5);
      const __m256d y0 = _mm256_addsub_pd(
          _mm256_fmadd_pd(u01r, x1, _mm256_mul_pd(u00r, x0)),
          _mm256_fmadd_pd(u01i, x1s, _mm256_mul_pd(u00i, x0s)));
      const __m256d y1 = _mm256_addsub_pd(
          _mm256_fmadd_pd(u11r, x1, _mm256_mul_pd(u10r, x0)),
          _mm256_fmadd_pd(u11i, x1s, _mm256_mul_pd(u10i, x0s)));
      _mm256_storeu_pd(p0, y0);
      _mm256_storeu_pd(p1, y1);
    }
    return;
  }
  // target == 0: i1 = i0 + 1, so one register holds the whole pair. Column
  // coefficients are laid out per output lane: lanes {0,1} build y0 from
  // row 0, lanes {2,3} build y1 from row 1.
  const __m256d c0r = _mm256_set_pd(cu.re[2], cu.re[2], cu.re[0], cu.re[0]);
  const __m256d c0i = _mm256_set_pd(cu.im[2], cu.im[2], cu.im[0], cu.im[0]);
  const __m256d c1r = _mm256_set_pd(cu.re[3], cu.re[3], cu.re[1], cu.re[1]);
  const __m256d c1i = _mm256_set_pd(cu.im[3], cu.im[3], cu.im[1], cu.im[1]);
  for (std::size_t t = begin; t < end; ++t) {
    double* const q = p + 4 * t;
    const __m256d v = _mm256_loadu_pd(q);                     // [x0, x1]
    const __m256d x0b = _mm256_permute2f128_pd(v, v, 0x00);   // [x0, x0]
    const __m256d x1b = _mm256_permute2f128_pd(v, v, 0x11);   // [x1, x1]
    const __m256d x0s = _mm256_permute_pd(x0b, 0x5);
    const __m256d x1s = _mm256_permute_pd(x1b, 0x5);
    const __m256d out = _mm256_addsub_pd(
        _mm256_fmadd_pd(c1r, x1b, _mm256_mul_pd(c0r, x0b)),
        _mm256_fmadd_pd(c1i, x1s, _mm256_mul_pd(c0i, x0s)));
    _mm256_storeu_pd(q, out);
  }
}

namespace {

using Tag = CompiledUnitary::Tag;

// --- Unit bodies on registers. A "pair" register holds the same quad
// element of two adjacent quads (x, x | 1); a "row" register holds one row
// (p_r0, p_r1) of a quad whose column bit is superket bit 0.

/// Broadcast coefficients of a compiled 4x4, built once per sweep.
struct GateVecs {
  __m256d re[4][4], im[4][4];  ///< dense paired: entry (r, c)
  __m256d vr[4], vi[4];        ///< diag/perm paired: per-row scale
  __m256d cr[4][2], ci[4][2];  ///< dense single: column c, rows (0,1)/(2,3)
};

GateVecs gate_vecs(const CompiledUnitary& cu) {
  GateVecs v;
  for (int r = 0; r < 4; ++r) {
    v.vr[r] = _mm256_set1_pd(cu.re[r]);
    v.vi[r] = _mm256_set1_pd(cu.im[r]);
    for (int c = 0; c < 4; ++c) {
      v.re[r][c] = _mm256_set1_pd(cu.re[4 * r + c]);
      v.im[r][c] = _mm256_set1_pd(cu.im[4 * r + c]);
    }
  }
  for (int c = 0; c < 4; ++c) {
    v.cr[c][0] = _mm256_set_pd(cu.re[4 + c], cu.re[4 + c], cu.re[c], cu.re[c]);
    v.ci[c][0] = _mm256_set_pd(cu.im[4 + c], cu.im[4 + c], cu.im[c], cu.im[c]);
    v.cr[c][1] = _mm256_set_pd(cu.re[12 + c], cu.re[12 + c], cu.re[8 + c],
                               cu.re[8 + c]);
    v.ci[c][1] = _mm256_set_pd(cu.im[12 + c], cu.im[12 + c], cu.im[8 + c],
                               cu.im[8 + c]);
  }
  return v;
}

/// A 4x4 of tag T on paired registers x0..x3 (local values 00, 01, 10, 11).
template <Tag T>
inline void gate_pair(__m256d& x0, __m256d& x1, __m256d& x2, __m256d& x3,
                      const CompiledUnitary& cu, const GateVecs& v) {
  if constexpr (T == Tag::kCxPerm) {
    std::swap(x2, x3);
  } else if constexpr (T == Tag::kSwapPerm) {
    std::swap(x1, x2);
  } else {
    const __m256d x[4] = {x0, x1, x2, x3};
    __m256d y[4];
    for (int r = 0; r < 4; ++r) {
      if constexpr (T == Tag::kDense2) {
        __m256d accr = _mm256_mul_pd(v.re[r][0], x[0]);
        __m256d acci = _mm256_mul_pd(v.im[r][0], _mm256_permute_pd(x[0], 0x5));
        for (int c = 1; c < 4; ++c) {
          accr = _mm256_fmadd_pd(v.re[r][c], x[c], accr);
          acci = _mm256_fmadd_pd(v.im[r][c], _mm256_permute_pd(x[c], 0x5),
                                 acci);
        }
        y[r] = _mm256_addsub_pd(accr, acci);
      } else {
        const __m256d s = x[T == Tag::kPerm2 ? cu.src[r] : r];
        y[r] = _mm256_addsub_pd(
            _mm256_mul_pd(v.vr[r], s),
            _mm256_mul_pd(v.vi[r], _mm256_permute_pd(s, 0x5)));
      }
    }
    x0 = y[0];
    x1 = y[1];
    x2 = y[2];
    x3 = y[3];
  }
}

/// A 4x4 of tag T on one quad held as v01 = [x0, x1], v23 = [x2, x3].
template <Tag T>
inline void gate_single(__m256d& v01, __m256d& v23, const CompiledUnitary& cu,
                        const GateVecs& v) {
  if constexpr (T == Tag::kCxPerm) {
    v23 = _mm256_permute2f128_pd(v23, v23, 0x01);
  } else if constexpr (T == Tag::kSwapPerm) {
    const __m256d a = _mm256_permute2f128_pd(v01, v23, 0x20);  // [x0, x2]
    v23 = _mm256_permute2f128_pd(v01, v23, 0x31);              // [x1, x3]
    v01 = a;
  } else if constexpr (T == Tag::kDense2) {
    const __m256d xb[4] = {_mm256_permute2f128_pd(v01, v01, 0x00),
                           _mm256_permute2f128_pd(v01, v01, 0x11),
                           _mm256_permute2f128_pd(v23, v23, 0x00),
                           _mm256_permute2f128_pd(v23, v23, 0x11)};
    const __m256d xs[4] = {_mm256_permute_pd(xb[0], 0x5),
                           _mm256_permute_pd(xb[1], 0x5),
                           _mm256_permute_pd(xb[2], 0x5),
                           _mm256_permute_pd(xb[3], 0x5)};
    // out01 lanes {0,1} = y0 (row 0), lanes {2,3} = y1; out23 = y2/y3.
    __m256d accr01 = _mm256_mul_pd(v.cr[0][0], xb[0]);
    __m256d acci01 = _mm256_mul_pd(v.ci[0][0], xs[0]);
    __m256d accr23 = _mm256_mul_pd(v.cr[0][1], xb[0]);
    __m256d acci23 = _mm256_mul_pd(v.ci[0][1], xs[0]);
    for (int c = 1; c < 4; ++c) {
      accr01 = _mm256_fmadd_pd(v.cr[c][0], xb[c], accr01);
      acci01 = _mm256_fmadd_pd(v.ci[c][0], xs[c], acci01);
      accr23 = _mm256_fmadd_pd(v.cr[c][1], xb[c], accr23);
      acci23 = _mm256_fmadd_pd(v.ci[c][1], xs[c], acci23);
    }
    v01 = _mm256_addsub_pd(accr01, acci01);
    v23 = _mm256_addsub_pd(accr23, acci23);
  } else {
    // Diagonal / generalized permutation, one amplitude per 128-bit half:
    // y = fmaddsub(re, s, im * swap(s)).
    const __m128d x[4] = {
        _mm256_castpd256_pd128(v01), _mm256_extractf128_pd(v01, 1),
        _mm256_castpd256_pd128(v23), _mm256_extractf128_pd(v23, 1)};
    __m128d y[4];
    for (int r = 0; r < 4; ++r) {
      const __m128d s = x[T == Tag::kPerm2 ? cu.src[r] : r];
      y[r] = _mm_fmaddsub_pd(
          _mm_set1_pd(cu.re[r]), s,
          _mm_mul_pd(_mm_set1_pd(cu.im[r]), _mm_permute_pd(s, 0x1)));
    }
    v01 = _mm256_set_m128d(y[1], y[0]);
    v23 = _mm256_set_m128d(y[3], y[2]);
  }
}

struct RelaxVecs {
  __m256d gamma, decay, keep;  ///< paired broadcasts
  __m256d top, bot, gsel;      ///< rows: per-lane coefficients
};

RelaxVecs relax_vecs(const RelaxCoeffs& c) {
  return {_mm256_set1_pd(c.gamma),
          _mm256_set1_pd(c.decay),
          _mm256_set1_pd(c.keep),
          _mm256_setr_pd(1.0, 1.0, c.decay, c.decay),
          _mm256_setr_pd(c.decay, c.decay, c.keep, c.keep),
          _mm256_setr_pd(c.gamma, c.gamma, 0.0, 0.0)};
}

inline void relax_pair(__m256d& p00, __m256d& p01, __m256d& p10,
                       __m256d& p11, const RelaxVecs& v) {
  p00 = _mm256_fmadd_pd(v.gamma, p11, p00);
  p01 = _mm256_mul_pd(v.decay, p01);
  p10 = _mm256_mul_pd(v.decay, p10);
  p11 = _mm256_mul_pd(v.keep, p11);
}

/// (1, decay) on the top row, (decay, keep) on the bottom, with the
/// gamma * p11 term mirrored into the p00 lanes.
inline void relax_rows(__m256d& r0, __m256d& r1, const RelaxVecs& v) {
  const __m256d r1sw = _mm256_permute2f128_pd(r1, r1, 0x01);  // [p11, p10]
  r0 = _mm256_fmadd_pd(r1sw, v.gsel, _mm256_mul_pd(r0, v.top));
  r1 = _mm256_mul_pd(r1, v.bot);
}

struct DepolVecs {
  __m256d c1, fill_scale;
};

DepolVecs depol_vecs(const DepolCoeffs& c) {
  return {_mm256_set1_pd(c.c1), _mm256_set1_pd(c.c2 * c.inv_ldim)};
}

inline void depol1_pair(__m256d& p00, __m256d& p01, __m256d& p10,
                        __m256d& p11, const DepolVecs& v) {
  const __m256d sum = _mm256_add_pd(p00, p11);
  p00 = _mm256_fmadd_pd(sum, v.fill_scale, _mm256_mul_pd(v.c1, p00));
  p01 = _mm256_mul_pd(v.c1, p01);
  p10 = _mm256_mul_pd(v.c1, p10);
  p11 = _mm256_fmadd_pd(sum, v.fill_scale, _mm256_mul_pd(v.c1, p11));
}

/// Build the fill in the p00 lanes, mirror it into the p11 lanes.
inline void depol1_rows(__m256d& r0, __m256d& r1, const DepolVecs& v) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d r1sw = _mm256_permute2f128_pd(r1, r1, 0x01);  // [p11, p10]
  // Lanes {0,1} hold p00 + p11 — the only lanes the blends keep.
  const __m256d fill = _mm256_mul_pd(v.fill_scale, _mm256_add_pd(r0, r1sw));
  const __m256d fillsw = _mm256_permute2f128_pd(fill, fill, 0x01);
  r0 = _mm256_fmadd_pd(v.c1, r0, _mm256_blend_pd(zero, fill, 0x3));
  r1 = _mm256_fmadd_pd(v.c1, r1, _mm256_blend_pd(zero, fillsw, 0xC));
}

// --- A 2q block in registers. Element (ra, rb, ca, cb) — the row and
// column bits of operands a = qubits[0] and b = qubits[1] — sits at
// superket offset row_off[ra rb] | col_off[ca cb] from the block base.
// kPaired (bit 0 outside the block): 16 registers whose upper lane is the
// same element of block t + 1. kLowA / kLowB (operand a / b is local qubit
// 0, so its column bit is superket bit 0): 8 registers with that column
// bit across the lanes. Every step below picks the paired, row or single
// body by the rule noisy_quads and gate_range use for the same operands.
enum class Layout { kPaired, kLowA, kLowB };

template <Layout L>
struct Block2 {
  static constexpr int kCa = L == Layout::kLowA ? 1 : 2;  // ca in registers
  static constexpr int kCb = L == Layout::kLowB ? 1 : 2;  // cb in registers
  __m256d r[16];

  __m256d& at(int ra, int rb, int ca, int cb) {
    return r[(ra << 3) | (rb << 2) | (ca << 1) | cb];
  }

  template <typename F>
  static void for_each_reg(F&& fn) {
    for (int ra = 0; ra < 2; ++ra) {
      for (int rb = 0; rb < 2; ++rb) {
        for (int ca = 0; ca < kCa; ++ca) {
          for (int cb = 0; cb < kCb; ++cb) fn(ra, rb, ca, cb);
        }
      }
    }
  }
  static double* addr(double* p, std::size_t base, const NoisyPlan& plan,
                      int ra, int rb, int ca, int cb) {
    return p + 2 * (base | plan.row_off[2 * ra + rb] |
                    plan.col_off[2 * ca + cb]);
  }
  void load(double* p, std::size_t base, const NoisyPlan& plan) {
    for_each_reg([&](int ra, int rb, int ca, int cb) {
      at(ra, rb, ca, cb) =
          _mm256_loadu_pd(addr(p, base, plan, ra, rb, ca, cb));
    });
  }
  void store(double* p, std::size_t base, const NoisyPlan& plan) {
    for_each_reg([&](int ra, int rb, int ca, int cb) {
      _mm256_storeu_pd(addr(p, base, plan, ra, rb, ca, cb),
                       at(ra, rb, ca, cb));
    });
  }

  void relax_a(const RelaxVecs& v) {
    for (int rb = 0; rb < 2; ++rb) {
      for (int cb = 0; cb < kCb; ++cb) {
        if constexpr (L == Layout::kLowA) {
          relax_rows(at(0, rb, 0, cb), at(1, rb, 0, cb), v);
        } else {
          relax_pair(at(0, rb, 0, cb), at(0, rb, 1, cb), at(1, rb, 0, cb),
                     at(1, rb, 1, cb), v);
        }
      }
    }
  }
  void relax_b(const RelaxVecs& v) {
    for (int ra = 0; ra < 2; ++ra) {
      for (int ca = 0; ca < kCa; ++ca) {
        if constexpr (L == Layout::kLowB) {
          relax_rows(at(ra, 0, ca, 0), at(ra, 1, ca, 0), v);
        } else {
          relax_pair(at(ra, 0, ca, 0), at(ra, 0, ca, 1), at(ra, 1, ca, 0),
                     at(ra, 1, ca, 1), v);
        }
      }
    }
  }
  /// U on the row bits: always paired (row bits are >= n >= 1).
  template <Tag T>
  void rows_pass(const CompiledUnitary& cu, const GateVecs& v) {
    for (int ca = 0; ca < kCa; ++ca) {
      for (int cb = 0; cb < kCb; ++cb) {
        gate_pair<T>(at(0, 0, ca, cb), at(0, 1, ca, cb), at(1, 0, ca, cb),
                     at(1, 1, ca, cb), cu, v);
      }
    }
  }
  /// conj(U) on the column bits: single-quad body when one is bit 0.
  template <Tag T>
  void cols_pass(const CompiledUnitary& cu, const GateVecs& v) {
    for (int ra = 0; ra < 2; ++ra) {
      for (int rb = 0; rb < 2; ++rb) {
        if constexpr (L == Layout::kPaired) {
          gate_pair<T>(at(ra, rb, 0, 0), at(ra, rb, 0, 1), at(ra, rb, 1, 0),
                       at(ra, rb, 1, 1), cu, v);
        } else if constexpr (L == Layout::kLowB) {
          gate_single<T>(at(ra, rb, 0, 0), at(ra, rb, 1, 0), cu, v);
        } else {
          // Registers hold [x0, x2] and [x1, x3]; regroup into quad rows.
          __m256d& r0 = at(ra, rb, 0, 0);
          __m256d& r1 = at(ra, rb, 0, 1);
          __m256d v01 = _mm256_permute2f128_pd(r0, r1, 0x20);
          __m256d v23 = _mm256_permute2f128_pd(r0, r1, 0x31);
          gate_single<T>(v01, v23, cu, v);
          r0 = _mm256_permute2f128_pd(v01, v23, 0x20);
          r1 = _mm256_permute2f128_pd(v01, v23, 0x31);
        }
      }
    }
  }
  /// Two-qubit depolarizing: trace of the local diagonal (s = 00..11 in
  /// order), uniform contraction, refill of the diagonal.
  void depol(const DepolVecs& v) {
    if constexpr (L == Layout::kPaired) {
      __m256d sum = at(0, 0, 0, 0);
      sum = _mm256_add_pd(sum, at(0, 1, 0, 1));
      sum = _mm256_add_pd(sum, at(1, 0, 1, 0));
      sum = _mm256_add_pd(sum, at(1, 1, 1, 1));
      for_each_reg([&](int ra, int rb, int ca, int cb) {
        __m256d& x = at(ra, rb, ca, cb);
        x = _mm256_mul_pd(v.c1, x);
        if (ra == ca && rb == cb) x = _mm256_fmadd_pd(v.fill_scale, sum, x);
      });
    } else {
      // One element per lane: diagonal element s = (ra rb) sits in the
      // register with the in-register column bit equal to its row bit,
      // in the lane of the other row bit.
      auto lane = [](__m256d x, int hi) {
        return hi ? _mm256_extractf128_pd(x, 1) : _mm256_castpd256_pd128(x);
      };
      __m128d traced = _mm_setzero_pd();
      for (int s = 0; s < 4; ++s) {
        const int ra = s >> 1, rb = s & 1;
        traced = _mm_add_pd(
            traced, L == Layout::kLowA ? lane(at(ra, rb, 0, rb), ra)
                                       : lane(at(ra, rb, ra, 0), rb));
      }
      const __m128d fill =
          _mm_mul_pd(_mm256_castpd256_pd128(v.fill_scale), traced);
      const __m256d fill2 = _mm256_set_m128d(fill, fill);
      for_each_reg([&](int ra, int rb, int ca, int cb) {
        __m256d& x = at(ra, rb, ca, cb);
        const bool diag = L == Layout::kLowA ? cb == rb : ca == ra;
        const int hi = L == Layout::kLowA ? ra : rb;
        const __m256d scaled = _mm256_mul_pd(v.c1, x);
        if (!diag) {
          x = scaled;
        } else if (hi) {
          x = _mm256_blend_pd(scaled, _mm256_fmadd_pd(v.c1, x, fill2), 0xC);
        } else {
          x = _mm256_blend_pd(scaled, _mm256_fmadd_pd(v.c1, x, fill2), 0x3);
        }
      });
    }
  }
};

/// The fused 2q sweep: per block (pair), load once, run relaxation on a
/// and b, the row and column passes and depolarizing in registers, store.
template <Tag T, Layout L>
void noisy_blocks(cx* rho, std::size_t begin, std::size_t end,
                  const NoisyPlan& plan_ref) {
  // A local copy: the intrinsic stores through rho may alias the caller's
  // plan, which would reload its masks and pointers on every step.
  const NoisyPlan plan = plan_ref;
  const NoisyGate& g = plan.gate;
  double* const p = reinterpret_cast<double*>(rho);
  const RelaxVecs ra = relax_vecs(g.relax[0] ? *g.relax[0] : RelaxCoeffs{});
  const RelaxVecs rb = relax_vecs(g.relax[1] ? *g.relax[1] : RelaxCoeffs{});
  const GateVecs row_v = gate_vecs(*g.row);
  const GateVecs col_v = gate_vecs(*g.col);
  const DepolVecs dv = depol_vecs(g.depol ? *g.depol : DepolCoeffs{});
  const std::size_t stride = L == Layout::kPaired ? 2 : 1;
  const std::size_t pair_bit = L == Layout::kPaired ? 1 : 0;
  std::size_t c = plan.counter(begin);
  for (std::size_t t = begin; t < end;
       t += stride, c = plan.next(c | pair_bit)) {
    const std::size_t base = plan.base(c);
    Block2<L> blk;
    blk.load(p, base, plan);
    if (g.relax[0] != nullptr) blk.relax_a(ra);
    if (g.relax[1] != nullptr) blk.relax_b(rb);
    blk.template rows_pass<T>(*g.row, row_v);
    blk.template cols_pass<T>(*g.col, col_v);
    if (g.depol != nullptr) blk.depol(dv);
    blk.store(p, base, plan);
  }
}

Layout layout_of(const NoisyPlan& plan) {
  if (plan.positions[0] >= 1) return Layout::kPaired;
  return plan.col_off[2] == 1 ? Layout::kLowA : Layout::kLowB;
}

template <typename F>
void with_layout(Layout l, F&& fn) {
  switch (l) {
    case Layout::kPaired:
      fn(std::integral_constant<Layout, Layout::kPaired>{});
      return;
    case Layout::kLowA:
      fn(std::integral_constant<Layout, Layout::kLowA>{});
      return;
    case Layout::kLowB:
      fn(std::integral_constant<Layout, Layout::kLowB>{});
      return;
  }
}

/// The fused 1q sweep over quads: paired (q >= 1) or as two row registers.
template <Tag T>
void noisy_quads(cx* rho, std::size_t begin, std::size_t end,
                 const NoisyPlan& plan_ref) {
  const NoisyPlan plan = plan_ref;  // see noisy_blocks
  const NoisyGate& g = plan.gate;
  double* const p = reinterpret_cast<double*>(rho);
  const RelaxVecs rv = relax_vecs(g.relax[0] ? *g.relax[0] : RelaxCoeffs{});
  const GateVecs gv = g.col != nullptr ? gate_vecs(*g.col) : GateVecs{};
  const DepolVecs dv = depol_vecs(g.depol ? *g.depol : DepolCoeffs{});
  const std::size_t mr = plan.col.mh;
  const std::size_t mc = plan.col.ml;
  std::size_t c = plan.counter(begin);
  if (plan.positions[0] >= 1) {
    for (std::size_t t = begin; t < end; t += 2, c = plan.next(c | 1)) {
      const std::size_t base = plan.base(c);
      double* const q[4] = {p + 2 * base, p + 2 * (base | mc),
                            p + 2 * (base | mr), p + 2 * (base | mr | mc)};
      __m256d x[4] = {_mm256_loadu_pd(q[0]), _mm256_loadu_pd(q[1]),
                      _mm256_loadu_pd(q[2]), _mm256_loadu_pd(q[3])};
      if (g.relax[0] != nullptr) relax_pair(x[0], x[1], x[2], x[3], rv);
      if (g.col != nullptr) gate_pair<T>(x[0], x[1], x[2], x[3], *g.col, gv);
      if (g.depol != nullptr) depol1_pair(x[0], x[1], x[2], x[3], dv);
      for (int i = 0; i < 4; ++i) _mm256_storeu_pd(q[i], x[i]);
    }
    return;
  }
  for (std::size_t t = begin; t < end; ++t, c = plan.next(c)) {
    const std::size_t base = plan.base(c);
    double* const q0 = p + 2 * base;
    double* const q1 = p + 2 * (base | mr);
    __m256d r0 = _mm256_loadu_pd(q0);  // [p00, p01]
    __m256d r1 = _mm256_loadu_pd(q1);  // [p10, p11]
    if (g.relax[0] != nullptr) relax_rows(r0, r1, rv);
    if (g.col != nullptr) gate_single<T>(r0, r1, *g.col, gv);
    if (g.depol != nullptr) depol1_rows(r0, r1, dv);
    _mm256_storeu_pd(q0, r0);
    _mm256_storeu_pd(q1, r1);
  }
}

template <Tag T>
void gate_range(cx* a, std::size_t begin, std::size_t end, std::size_t mh,
                std::size_t ml, int p0, int p1, const CompiledUnitary& cu) {
  const GateVecs v = gate_vecs(cu);
  double* const p = reinterpret_cast<double*>(a);
  for (std::size_t t = begin; t < end; t += p0 >= 1 ? 2 : 1) {
    const std::size_t base = insert_bit(insert_bit(t, p0), p1);
    double* const q[4] = {p + 2 * base, p + 2 * (base | ml),
                          p + 2 * (base | mh), p + 2 * (base | mh | ml)};
    if (p0 >= 1) {
      __m256d x[4] = {_mm256_loadu_pd(q[0]), _mm256_loadu_pd(q[1]),
                      _mm256_loadu_pd(q[2]), _mm256_loadu_pd(q[3])};
      gate_pair<T>(x[0], x[1], x[2], x[3], cu, v);
      for (int i = 0; i < 4; ++i) _mm256_storeu_pd(q[i], x[i]);
    } else {
      __m256d v01 = _mm256_set_m128d(_mm_loadu_pd(q[1]), _mm_loadu_pd(q[0]));
      __m256d v23 = _mm256_set_m128d(_mm_loadu_pd(q[3]), _mm_loadu_pd(q[2]));
      gate_single<T>(v01, v23, cu, v);
      _mm_storeu_pd(q[0], _mm256_castpd256_pd128(v01));
      _mm_storeu_pd(q[1], _mm256_extractf128_pd(v01, 1));
      _mm_storeu_pd(q[2], _mm256_castpd256_pd128(v23));
      _mm_storeu_pd(q[3], _mm256_extractf128_pd(v23, 1));
    }
  }
}

}  // namespace

void dense2_range_avx2(cx* a, std::size_t begin, std::size_t end,
                       std::size_t mh, std::size_t ml, int p0, int p1,
                       const CompiledUnitary& cu) {
  gate_range<Tag::kDense2>(a, begin, end, mh, ml, p0, p1, cu);
}

void diag2_range_avx2(cx* a, std::size_t begin, std::size_t end,
                      std::size_t mh, std::size_t ml, int p0, int p1,
                      const CompiledUnitary& cu) {
  gate_range<Tag::kDiag2>(a, begin, end, mh, ml, p0, p1, cu);
}

void perm2_range_avx2(cx* a, std::size_t begin, std::size_t end,
                      std::size_t mh, std::size_t ml, int p0, int p1,
                      const CompiledUnitary& cu) {
  gate_range<Tag::kPerm2>(a, begin, end, mh, ml, p0, p1, cu);
}

void noisy_range_avx2(cx* rho, std::size_t begin, std::size_t end,
                      const NoisyPlan& plan) {
  with_tag2(plan.tag(), [&](auto tag) {
    constexpr Tag T = decltype(tag)::value;
    if (plan.k == 1) {
      noisy_quads<T>(rho, begin, end, plan);
      return;
    }
    with_layout(layout_of(plan), [&](auto l) {
      noisy_blocks<T, decltype(l)::value>(rho, begin, end, plan);
    });
  });
}

namespace {

inline __m256d imswap(__m256d v) { return _mm256_permute_pd(v, 0x5); }

/// y = alpha * x + beta * z for complex scalars alpha/beta against a
/// 2-amplitude vector x/z (xs/zs are their imswap'd forms): the addsub
/// identity with both terms folded into one accumulate pair.
inline __m256d scale2(__m256d x, __m256d xs, double ar, double ai, __m256d z,
                      __m256d zs, double br, double bi) {
  __m256d accr = _mm256_mul_pd(_mm256_set1_pd(ar), x);
  accr = _mm256_fmadd_pd(_mm256_set1_pd(br), z, accr);
  __m256d acci = _mm256_mul_pd(_mm256_set1_pd(ai), xs);
  acci = _mm256_fmadd_pd(_mm256_set1_pd(bi), zs, acci);
  return _mm256_addsub_pd(accr, acci);
}

/// out = perm(a) * b where perm(a)[r][c] = a[s[r]][s[c]]; S == 0 is the
/// identity, S == 1 the operand swap {0, 2, 1, 3}. The permutation lands
/// on the broadcast coefficient loads, so the swapped variant costs the
/// same as the plain product and never materializes a reordered copy.
/// All loads precede the stores, so out may alias a or b.
template <int S>
inline void mul4_perm(cx* out, const cx* a, const cx* b) {
  static constexpr int kPerm[2][4] = {{0, 1, 2, 3}, {0, 2, 1, 3}};
  const double* pa = reinterpret_cast<const double*>(a);
  const double* pb = reinterpret_cast<const double*>(b);
  __m256d bh[4][2], bs[4][2];
  for (int k = 0; k < 4; ++k) {
    bh[k][0] = _mm256_loadu_pd(pb + 8 * k);
    bh[k][1] = _mm256_loadu_pd(pb + 8 * k + 4);
    bs[k][0] = imswap(bh[k][0]);
    bs[k][1] = imswap(bh[k][1]);
  }
  __m256d res[4][2];
  for (int r = 0; r < 4; ++r) {
    const int pr = kPerm[S][r];
    __m256d ar0 = _mm256_setzero_pd(), ai0 = _mm256_setzero_pd();
    __m256d ar1 = _mm256_setzero_pd(), ai1 = _mm256_setzero_pd();
    for (int k = 0; k < 4; ++k) {
      const int pk = kPerm[S][k];
      const __m256d cr = _mm256_set1_pd(pa[8 * pr + 2 * pk]);
      const __m256d ci = _mm256_set1_pd(pa[8 * pr + 2 * pk + 1]);
      ar0 = _mm256_fmadd_pd(cr, bh[k][0], ar0);
      ai0 = _mm256_fmadd_pd(ci, bs[k][0], ai0);
      ar1 = _mm256_fmadd_pd(cr, bh[k][1], ar1);
      ai1 = _mm256_fmadd_pd(ci, bs[k][1], ai1);
    }
    res[r][0] = _mm256_addsub_pd(ar0, ai0);
    res[r][1] = _mm256_addsub_pd(ar1, ai1);
  }
  double* po = reinterpret_cast<double*>(out);
  for (int r = 0; r < 4; ++r) {
    _mm256_storeu_pd(po + 8 * r, res[r][0]);
    _mm256_storeu_pd(po + 8 * r + 4, res[r][1]);
  }
}

}  // namespace

void mul4_avx2(cx* out, const cx* a, const cx* b) { mul4_perm<0>(out, a, b); }

void swap_mul4_avx2(cx* m, const cx* u) { mul4_perm<1>(m, u, m); }

void lift_mul4_avx2(cx* m, const cx* u, bool high) {
  const double* pm = reinterpret_cast<const double*>(m);
  const double* pu = reinterpret_cast<const double*>(u);
  __m256d row[4][2], rsw[4][2];
  for (int r = 0; r < 4; ++r) {
    row[r][0] = _mm256_loadu_pd(pm + 8 * r);
    row[r][1] = _mm256_loadu_pd(pm + 8 * r + 4);
    rsw[r][0] = imswap(row[r][0]);
    rsw[r][1] = imswap(row[r][1]);
  }
  // lift1(u, high) has two nonzeros per row, so each output row is a
  // two-term combination of rows of m:
  //   high: out(2ur+l) = u[2ur] * m(l)    + u[2ur+1] * m(2+l)
  //   low:  out(2h+ur) = u[2ur] * m(2h)   + u[2ur+1] * m(2h+1)
  static constexpr int kSrc[2][4][2] = {
      {{0, 1}, {0, 1}, {2, 3}, {2, 3}},  // low
      {{0, 2}, {1, 3}, {0, 2}, {1, 3}},  // high
  };
  static constexpr int kCoef[2][4][2] = {
      {{0, 1}, {2, 3}, {0, 1}, {2, 3}},  // low
      {{0, 1}, {0, 1}, {2, 3}, {2, 3}},  // high
  };
  const int hi = high ? 1 : 0;
  __m256d res[4][2];
  for (int r = 0; r < 4; ++r) {
    const int x = kSrc[hi][r][0], z = kSrc[hi][r][1];
    const int ca = kCoef[hi][r][0], cb = kCoef[hi][r][1];
    for (int h = 0; h < 2; ++h) {
      res[r][h] = scale2(row[x][h], rsw[x][h], pu[2 * ca], pu[2 * ca + 1],
                         row[z][h], rsw[z][h], pu[2 * cb], pu[2 * cb + 1]);
    }
  }
  double* po = reinterpret_cast<double*>(m);
  for (int r = 0; r < 4; ++r) {
    _mm256_storeu_pd(po + 8 * r, res[r][0]);
    _mm256_storeu_pd(po + 8 * r + 4, res[r][1]);
  }
}

void mul4_lift_avx2(cx* m, const cx* u, bool high) {
  const double* pm = reinterpret_cast<const double*>(m);
  const double* pu = reinterpret_cast<const double*>(u);
  __m256d res[4][2];
  if (high) {
    // out_cols{0,1} = u00 * m_cols{0,1} + u10 * m_cols{2,3} (and u01/u11
    // for cols {2,3}): whole column halves combine within each row.
    for (int r = 0; r < 4; ++r) {
      const __m256d h0 = _mm256_loadu_pd(pm + 8 * r);
      const __m256d h1 = _mm256_loadu_pd(pm + 8 * r + 4);
      const __m256d h0s = imswap(h0), h1s = imswap(h1);
      res[r][0] = scale2(h0, h0s, pu[0], pu[1], h1, h1s, pu[4], pu[5]);
      res[r][1] = scale2(h0, h0s, pu[2], pu[3], h1, h1s, pu[6], pu[7]);
    }
  } else {
    // Columns combine within each 2-amplitude half: out = [c0*u00 + c1*u10,
    // c0*u01 + c1*u11], so broadcast each cx across the register and use
    // per-lane coefficient vectors.
    const __m256d cre_a = _mm256_setr_pd(pu[0], pu[0], pu[2], pu[2]);
    const __m256d cim_a = _mm256_setr_pd(pu[1], pu[1], pu[3], pu[3]);
    const __m256d cre_b = _mm256_setr_pd(pu[4], pu[4], pu[6], pu[6]);
    const __m256d cim_b = _mm256_setr_pd(pu[5], pu[5], pu[7], pu[7]);
    for (int r = 0; r < 4; ++r) {
      for (int h = 0; h < 2; ++h) {
        const __m256d x = _mm256_loadu_pd(pm + 8 * r + 4 * h);
        const __m256d x0 = _mm256_permute2f128_pd(x, x, 0x00);
        const __m256d x1 = _mm256_permute2f128_pd(x, x, 0x11);
        __m256d accr = _mm256_mul_pd(cre_a, x0);
        accr = _mm256_fmadd_pd(cre_b, x1, accr);
        __m256d acci = _mm256_mul_pd(cim_a, imswap(x0));
        acci = _mm256_fmadd_pd(cim_b, imswap(x1), acci);
        res[r][h] = _mm256_addsub_pd(accr, acci);
      }
    }
  }
  double* po = reinterpret_cast<double*>(m);
  for (int r = 0; r < 4; ++r) {
    _mm256_storeu_pd(po + 8 * r, res[r][0]);
    _mm256_storeu_pd(po + 8 * r + 4, res[r][1]);
  }
}

}  // namespace qucp::kern::detail

#endif  // QUCP_NATIVE_KERNELS && x86
