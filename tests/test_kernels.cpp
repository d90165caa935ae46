// Golden-value equivalence suite for the superket kernel layer.
//
// The reference implementations below are verbatim ports of the seed
// (pre-kernel-rewrite) DensityMatrix and Statevector update loops:
// skip-scan base enumeration, per-call scratch, four-Kraus relaxation,
// copy-based depolarizing. Every production entry point of the kernel
// layer — compiled gates, DensityMatrix::apply_noisy_gate and
// apply_relaxation, the depolarizing step of kern::apply_noisy_gate — is
// pinned against them elementwise to 1e-10 over random circuits on 1-8
// qubits, plus trace/purity/hermiticity invariants. The noisy sweep is
// further pinned bit for bit against the scalar channel sequence of
// tests/reference_kernels.hpp, and its live-subspace walk against the
// same sweep with empty masks.

#include "sim/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "reference_density.hpp"
#include "reference_kernels.hpp"
#include "sim/density.hpp"
#include "sim/fusion.hpp"
#include "sim/statevector.hpp"

namespace qucp {
namespace {

constexpr double kTol = 1e-10;

std::size_t with_local(std::size_t base, std::size_t local,
                       std::span<const int> qubits) {
  const int k = static_cast<int>(qubits.size());
  for (int j = 0; j < k; ++j) {
    if ((local >> (k - 1 - j)) & 1U) base |= std::size_t{1} << qubits[j];
  }
  return base;
}

/// Seed implementation of the density-matrix channels (skip-scan loops).
struct RefDensity {
  int n;
  std::size_t dim;
  std::vector<cx> rho;

  explicit RefDensity(int num_qubits)
      : n(num_qubits), dim(std::size_t{1} << num_qubits) {
    rho.assign(dim * dim, cx{0.0, 0.0});
    rho[0] = 1.0;
  }

  void apply_unitary(const Matrix& u, std::span<const int> qubits) {
    const int k = static_cast<int>(qubits.size());
    const std::size_t ldim = std::size_t{1} << k;
    std::size_t submask = 0;
    for (int q : qubits) submask |= std::size_t{1} << q;
    std::vector<cx> local(ldim);
    for (std::size_t c = 0; c < dim; ++c) {
      for (std::size_t base = 0; base < dim; ++base) {
        if (base & submask) continue;
        for (std::size_t li = 0; li < ldim; ++li) {
          local[li] = rho[with_local(base, li, qubits) * dim + c];
        }
        for (std::size_t lr = 0; lr < ldim; ++lr) {
          cx acc{0.0, 0.0};
          for (std::size_t lc = 0; lc < ldim; ++lc) {
            acc += u(lr, lc) * local[lc];
          }
          rho[with_local(base, lr, qubits) * dim + c] = acc;
        }
      }
    }
    for (std::size_t r = 0; r < dim; ++r) {
      cx* row = &rho[r * dim];
      for (std::size_t base = 0; base < dim; ++base) {
        if (base & submask) continue;
        for (std::size_t li = 0; li < ldim; ++li) {
          local[li] = row[with_local(base, li, qubits)];
        }
        for (std::size_t lc = 0; lc < ldim; ++lc) {
          cx acc{0.0, 0.0};
          for (std::size_t lk = 0; lk < ldim; ++lk) {
            acc += std::conj(u(lc, lk)) * local[lk];
          }
          row[with_local(base, lc, qubits)] = acc;
        }
      }
    }
  }

  void apply_depolarizing(double p, std::span<const int> qubits) {
    if (p == 0.0) return;
    const int k = static_cast<int>(qubits.size());
    const std::size_t ldim = std::size_t{1} << k;
    const double pauli_dim = std::pow(4.0, k);
    const double c2 = p * pauli_dim / (pauli_dim - 1.0);
    const double c1 = 1.0 - c2;
    std::size_t submask = 0;
    for (int q : qubits) submask |= std::size_t{1} << q;
    std::vector<cx> out(dim * dim, cx{0.0, 0.0});
    for (std::size_t i = 0; i < rho.size(); ++i) out[i] = c1 * rho[i];
    const double inv_ldim = 1.0 / static_cast<double>(ldim);
    for (std::size_t rb = 0; rb < dim; ++rb) {
      if (rb & submask) continue;
      for (std::size_t cb = 0; cb < dim; ++cb) {
        if (cb & submask) continue;
        cx traced{0.0, 0.0};
        for (std::size_t s = 0; s < ldim; ++s) {
          traced += rho[with_local(rb, s, qubits) * dim +
                        with_local(cb, s, qubits)];
        }
        const cx fill = c2 * traced * inv_ldim;
        for (std::size_t s = 0; s < ldim; ++s) {
          out[with_local(rb, s, qubits) * dim + with_local(cb, s, qubits)] +=
              fill;
        }
      }
    }
    rho = std::move(out);
  }

  void apply_kraus(std::span<const Matrix> kraus,
                   std::span<const int> qubits) {
    const std::vector<cx> original = rho;
    std::vector<cx> acc(dim * dim, cx{0.0, 0.0});
    for (const Matrix& k : kraus) {
      rho = original;
      apply_unitary(k, qubits);
      for (std::size_t i = 0; i < acc.size(); ++i) acc[i] += rho[i];
    }
    rho = std::move(acc);
  }

  void apply_relaxation(int qubit, double duration_ns, double t1_us,
                        double t2_us) {
    if (duration_ns <= 0.0) return;
    const double t_us = duration_ns * 1e-3;
    const double gamma = 1.0 - std::exp(-t_us / t1_us);
    const double inv_tphi = std::max(0.0, 1.0 / t2_us - 0.5 / t1_us);
    const double lambda = 1.0 - std::exp(-t_us * inv_tphi);
    const double sg = std::sqrt(std::max(0.0, 1.0 - gamma));
    const Matrix ad0(2, 2, {1, 0, 0, sg});
    const Matrix ad1(2, 2, {0, std::sqrt(gamma), 0, 0});
    const Matrix ads[] = {ad0, ad1};
    apply_kraus(ads, std::span<const int>(&qubit, 1));
    const double sl = std::sqrt(std::max(0.0, 1.0 - lambda));
    const Matrix pd0(2, 2, {1, 0, 0, sl});
    const Matrix pd1(2, 2, {0, 0, 0, std::sqrt(lambda)});
    const Matrix pds[] = {pd0, pd1};
    apply_kraus(pds, std::span<const int>(&qubit, 1));
  }
};

/// Seed implementation of the statevector update (skip-scan).
void ref_sv_apply(std::vector<cx>& amps, const Matrix& u,
                  std::span<const int> qubits) {
  const int k = static_cast<int>(qubits.size());
  const std::size_t ldim = std::size_t{1} << k;
  const std::size_t dim = amps.size();
  std::vector<std::size_t> masks(qubits.size());
  for (int j = 0; j < k; ++j) masks[j] = std::size_t{1} << qubits[j];
  std::vector<cx> local(ldim);
  for (std::size_t base = 0; base < dim; ++base) {
    bool is_base = true;
    for (std::size_t m : masks) {
      if (base & m) {
        is_base = false;
        break;
      }
    }
    if (!is_base) continue;
    for (std::size_t li = 0; li < ldim; ++li) {
      std::size_t idx = base;
      for (int j = 0; j < k; ++j) {
        if ((li >> (k - 1 - j)) & 1U) idx |= masks[j];
      }
      local[li] = amps[idx];
    }
    for (std::size_t lr = 0; lr < ldim; ++lr) {
      cx acc{0.0, 0.0};
      for (std::size_t lc = 0; lc < ldim; ++lc) acc += u(lr, lc) * local[lc];
      std::size_t idx = base;
      for (int j = 0; j < k; ++j) {
        if ((lr >> (k - 1 - j)) & 1U) idx |= masks[j];
      }
      amps[idx] = acc;
    }
  }
}

double max_abs_diff(std::span<const cx> a, std::span<const cx> b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

void check_density_invariants(std::span<const cx> rho, std::size_t dim) {
  EXPECT_NEAR(reference::trace(rho, dim), 1.0, 1e-9);
  EXPECT_LE(reference::purity(rho), 1.0 + 1e-9);
  EXPECT_GE(reference::purity(rho), 0.0);
  // Hermiticity of the stored matrix.
  for (std::size_t r = 0; r < dim; ++r) {
    for (std::size_t c = r; c < dim; ++c) {
      EXPECT_NEAR(std::abs(rho[r * dim + c] - std::conj(rho[c * dim + r])),
                  0.0, 1e-9);
    }
  }
}

void check_density_invariants(const DensityMatrix& dm) {
  check_density_invariants(dm.data(), dm.dim());
}

Gate random_1q_gate(Rng& rng, int qubit) {
  static const GateKind kinds[] = {GateKind::H,  GateKind::X,  GateKind::Y,
                                   GateKind::Z,  GateKind::S,  GateKind::T,
                                   GateKind::SX, GateKind::RX, GateKind::RY,
                                   GateKind::RZ, GateKind::U3};
  Gate g;
  g.kind = kinds[rng.index(std::size(kinds))];
  g.qubits = {qubit};
  const int want = gate_param_count(g.kind);
  for (int i = 0; i < want; ++i) {
    g.params.push_back(rng.uniform(-3.0, 3.0));
  }
  return g;
}

Gate random_2q_gate(Rng& rng, int a, int b) {
  static const GateKind kinds[] = {GateKind::CX, GateKind::CZ, GateKind::SWAP};
  Gate g;
  g.kind = kinds[rng.index(std::size(kinds))];
  g.qubits = {a, b};
  return g;
}

TEST(KernelGolden, StatevectorRandomCircuits) {
  for (int n = 1; n <= 8; ++n) {
    Rng rng(1000 + static_cast<std::uint64_t>(n));
    Statevector sv(n);
    std::vector<cx> ref(std::size_t{1} << n, cx{0.0, 0.0});
    ref[0] = 1.0;
    for (int step = 0; step < 40; ++step) {
      Gate g;
      if (n >= 2 && rng.bernoulli(0.4)) {
        const int a = static_cast<int>(rng.index(static_cast<std::size_t>(n)));
        int b = static_cast<int>(rng.index(static_cast<std::size_t>(n) - 1));
        if (b >= a) ++b;
        g = random_2q_gate(rng, a, b);
      } else {
        g = random_1q_gate(
            rng, static_cast<int>(rng.index(static_cast<std::size_t>(n))));
      }
      const Matrix u = gate_matrix(g);
      sv.apply_compiled(kern::compile_unitary(u.data()), g.qubits);
      ref_sv_apply(ref, u, g.qubits);
    }
    EXPECT_LT(max_abs_diff(sv.amplitudes(), ref), kTol) << "n=" << n;
    EXPECT_NEAR(sv.norm(), 1.0, 1e-9);
  }
}

TEST(KernelGolden, DensityUnitaryRandomCircuits) {
  for (int n = 1; n <= 8; ++n) {
    Rng rng(2000 + static_cast<std::uint64_t>(n));
    DensityMatrix dm(n);
    RefDensity ref(n);
    const int steps = n <= 6 ? 30 : 12;
    for (int step = 0; step < steps; ++step) {
      Gate g;
      if (n >= 2 && rng.bernoulli(0.4)) {
        const int a = static_cast<int>(rng.index(static_cast<std::size_t>(n)));
        int b = static_cast<int>(rng.index(static_cast<std::size_t>(n) - 1));
        if (b >= a) ++b;
        g = random_2q_gate(rng, a, b);
      } else {
        g = random_1q_gate(
            rng, static_cast<int>(rng.index(static_cast<std::size_t>(n))));
      }
      reference::apply_gate(dm, g);
      ref.apply_unitary(gate_matrix(g), g.qubits);
    }
    EXPECT_LT(max_abs_diff(dm.data(), ref.rho), kTol) << "n=" << n;
    check_density_invariants(dm);
  }
}

TEST(KernelGolden, DepolarizingRandomSubsets) {
  // One- and two-qubit subsets: the only depolarizing the executor emits.
  for (int n = 1; n <= 8; ++n) {
    Rng rng(3000 + static_cast<std::uint64_t>(n));
    DensityMatrix dm(n);
    RefDensity ref(n);
    // Non-trivial state first.
    for (int q = 0; q < n; ++q) {
      const Gate g = random_1q_gate(rng, q);
      reference::apply_gate(dm, g);
      ref.apply_unitary(gate_matrix(g), g.qubits);
    }
    std::vector<cx> rho(dm.data().begin(), dm.data().end());
    // The sweep's depolarizing step, after no gate pass (k == 1) or the
    // identity (k == 2).
    const kern::CompiledUnitary identity =
        kern::compile_unitary(Matrix::identity(4).data());
    for (int trial = 0; trial < 6; ++trial) {
      const int k = 1 + static_cast<int>(
                            rng.index(static_cast<std::size_t>(
                                std::min(n, 2))));
      std::vector<int> qs(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) qs[static_cast<std::size_t>(i)] = i;
      rng.shuffle(qs);
      qs.resize(static_cast<std::size_t>(k));
      const double p = rng.uniform(0.0, 0.75);
      const kern::DepolCoeffs depol = depolarizing_coeffs(p, k);
      kern::NoisyGate g;
      g.qubits = qs;
      g.col = k == 2 ? &identity : nullptr;
      g.row = k == 2 ? &identity : nullptr;
      g.depol = &depol;
      kern::apply_noisy_gate(rho, n, g);
      ref.apply_depolarizing(p, qs);
    }
    EXPECT_LT(max_abs_diff(rho, ref.rho), kTol) << "n=" << n;
    check_density_invariants(rho, dm.dim());
  }
}

TEST(KernelGolden, RelaxationMatchesFourKrausReference) {
  for (int n = 1; n <= 6; ++n) {
    Rng rng(4000 + static_cast<std::uint64_t>(n));
    DensityMatrix dm(n);
    RefDensity ref(n);
    for (int q = 0; q < n; ++q) {
      const Gate g = random_1q_gate(rng, q);
      reference::apply_gate(dm, g);
      ref.apply_unitary(gate_matrix(g), g.qubits);
    }
    for (int trial = 0; trial < 8; ++trial) {
      const int q = static_cast<int>(rng.index(static_cast<std::size_t>(n)));
      const double dur = rng.uniform(10.0, 50000.0);
      const double t1 = rng.uniform(20.0, 200.0);
      // Cover both the clamped (T2 > 2 T1) and unclamped dephasing regime.
      const double t2 = rng.uniform(10.0, 2.5 * t1);
      dm.apply_relaxation(q, dur, t1, t2);
      ref.apply_relaxation(q, dur, t1, t2);
    }
    EXPECT_LT(max_abs_diff(dm.data(), ref.rho), kTol) << "n=" << n;
    check_density_invariants(dm);
  }
}

TEST(KernelGolden, CompiledUnitaryClassification) {
  using Tag = kern::CompiledUnitary::Tag;
  EXPECT_EQ(kern::compile_unitary(gate_matrix(GateKind::Z).data()).tag,
            Tag::kDiag1);
  EXPECT_EQ(kern::compile_unitary(gate_matrix(GateKind::T).data()).tag,
            Tag::kDiag1);
  EXPECT_EQ(kern::compile_unitary(gate_matrix(GateKind::X).data()).tag,
            Tag::kAnti1);
  EXPECT_EQ(kern::compile_unitary(gate_matrix(GateKind::H).data()).tag,
            Tag::kDense1);
  EXPECT_EQ(kern::compile_unitary(gate_matrix(GateKind::CX).data()).tag,
            Tag::kCxPerm);
  EXPECT_EQ(kern::compile_unitary(gate_matrix(GateKind::SWAP).data()).tag,
            Tag::kSwapPerm);
  EXPECT_EQ(kern::compile_unitary(gate_matrix(GateKind::CZ).data()).tag,
            Tag::kDiag2);
}

TEST(KernelGolden, NonInjectiveOneNonzeroPerRowMatrixStaysDense) {
  // [[s,0],[s,0]] has one nonzero per row but both rows read column 0 —
  // not a generalized permutation. It must classify dense and apply
  // correctly (compile_unitary assumes no unitarity).
  const double s = 1.0 / std::sqrt(2.0);
  const cx u[4] = {s, 0.0, s, 0.0};
  const kern::CompiledUnitary cu = kern::compile_unitary(u);
  EXPECT_EQ(cu.tag, kern::CompiledUnitary::Tag::kDense1);
  std::vector<cx> amps{cx{0.0, 0.0}, cx{1.0, 0.0}};  // |1>
  const int target = 0;
  kern::apply_compiled(amps, 1, std::span<const int>(&target, 1), cu);
  // M|1> = column 1 of M = (0, 0).
  EXPECT_NEAR(std::abs(amps[0]), 0.0, 1e-15);
  EXPECT_NEAR(std::abs(amps[1]), 0.0, 1e-15);
}

TEST(KernelGolden, InsertBitEnumeratesBases) {
  // Bit-insertion must enumerate exactly the indices with the target bit
  // clear, in ascending order.
  const int n = 5;
  for (int bit = 0; bit < n; ++bit) {
    std::vector<std::size_t> got;
    for (std::size_t t = 0; t < (std::size_t{1} << (n - 1)); ++t) {
      got.push_back(kern::insert_bit(t, bit));
    }
    std::vector<std::size_t> want;
    for (std::size_t i = 0; i < (std::size_t{1} << n); ++i) {
      if (!(i & (std::size_t{1} << bit))) want.push_back(i);
    }
    EXPECT_EQ(got, want) << "bit=" << bit;
  }
}

// --- Noisy-gate sweep: bitwise equal to the scalar channel sequence. ---

/// Random mixed state: a weighted sum of three random pure projectors.
std::vector<cx> random_mixed_rho(int n, Rng& rng) {
  const std::size_t dim = std::size_t{1} << n;
  std::vector<cx> rho(dim * dim, cx{0.0, 0.0});
  double total = 0.0;
  for (int k = 0; k < 3; ++k) {
    std::vector<cx> psi(dim);
    for (cx& v : psi) v = cx{rng.normal(0.0, 1.0), rng.normal(0.0, 1.0)};
    const double w = rng.uniform(0.1, 1.0);
    total += w;
    for (std::size_t r = 0; r < dim; ++r) {
      for (std::size_t c = 0; c < dim; ++c) {
        rho[r * dim + c] += w * psi[r] * std::conj(psi[c]);
      }
    }
  }
  for (cx& v : rho) v /= total * static_cast<double>(dim);
  return rho;
}

bool same_bits(const std::vector<cx>& a, const std::vector<cx>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cx)) == 0;
}

/// FusedOps of every tag the executor's density replay emits, on `q`.
std::vector<FusedOp> noisy_test_ops(std::span<const int> q) {
  Circuit c(8);
  if (q.size() == 1) {
    c.rz(0.37, q[0]);  // superket diag
    c.x(q[0]);         // superket perm
    c.ry(1.1, q[0]);   // superket dense
    c.h(q[0]);
    return reference::compile_ops(c);
  }
  c.cx(q[0], q[1]);
  c.swap(q[0], q[1]);
  c.cz(q[0], q[1]);
  std::vector<FusedOp> ops = reference::compile_ops(c);
  // A fused entangling block: dense 4x4 row and column passes.
  Circuit block(8);
  block.ry(0.7, q[0]);
  block.cx(q[0], q[1]);
  block.rz(0.3, q[1]);
  block.ry(1.3, q[1]);
  const CompiledProgram fused = CompiledProgram::compile(block);
  for (const FusedOp& op : fused.ops()) {
    if (op.k() == 2) ops.push_back(op);
  }
  return ops;
}

TEST(NoisyGateSweep, BitIdenticalToChannelSequence) {
  // The scalar sweep equals the scalar channel sequence bit for bit; the
  // AVX2 sweep (explicit FMAs) agrees with it to rounding.
  using Tag = kern::CompiledUnitary::Tag;
  const bool native = kern::native_kernels_active();
  const kern::RelaxCoeffs relax_c[2] = {{0.013, 0.981, 0.987},
                                        {0.021, 0.962, 0.979}};
  std::vector<bool> modes{false};
  if (native) modes.push_back(true);
  std::vector<Tag> seen;
  int cases = 0;
  for (const bool mode : modes) {
    kern::set_native_kernels(mode);
    for (int n = 1; n <= 7; ++n) {
      Rng rng(7000 + static_cast<std::uint64_t>(n));
      const std::vector<cx> rho0 = random_mixed_rho(n, rng);
      std::vector<std::vector<int>> operands{{0}, {n - 1}};
      if (n >= 2) {
        operands.push_back({0, n - 1});
        operands.push_back({n - 1, 0});
      }
      if (n >= 3) {  // both operands off bit 0: the paired AVX2 bodies
        operands.push_back({1, n - 1});
        operands.push_back({n - 1, 1});
      }
      for (const std::vector<int>& q : operands) {
        const int k = static_cast<int>(q.size());
        const double pauli = k == 1 ? 4.0 : 16.0;
        const double c2 = 0.02 * pauli / (pauli - 1.0);
        const kern::DepolCoeffs depol_c{1.0 - c2, c2, k == 1 ? 0.5 : 0.25};
        std::vector<const FusedOp*> gates;
        if (k == 1) gates.push_back(nullptr);  // no gate pass
        const std::vector<FusedOp> ops = noisy_test_ops(q);
        for (const FusedOp& op : ops) gates.push_back(&op);
        for (const FusedOp* op : gates) {
          if (op != nullptr) seen.push_back(op->dm.tag);
          for (int mask = 0; mask < (1 << (k + 1)); ++mask) {
            kern::NoisyGate g;
            g.qubits = q;
            g.col = op != nullptr ? &op->dm : nullptr;
            g.row = k == 2 ? &op->sv : nullptr;
            for (int j = 0; j < k; ++j) {
              if ((mask >> j) & 1) g.relax[j] = &relax_c[j];
            }
            if ((mask >> k) & 1) g.depol = &depol_c;
            std::vector<cx> want = rho0;
            kern::set_native_kernels(false);
            reference::channel_sequence(want, n, g);
            kern::set_native_kernels(mode);
            std::vector<cx> got = rho0;
            kern::apply_noisy_gate(got, n, g);
            const std::string where =
                "native=" + std::to_string(mode) + " n=" + std::to_string(n) +
                " q=" + std::to_string(q[0]) +
                (k == 2 ? "," + std::to_string(q[1]) : "") + " tag=" +
                (op != nullptr ? std::to_string(static_cast<int>(op->dm.tag))
                               : "none") +
                " mask=" + std::to_string(mask);
            if (mode) {
              EXPECT_LT(max_abs_diff(got, want), 1e-14) << where;
            } else {
              EXPECT_TRUE(same_bits(got, want))
                  << where << " max|diff|=" << max_abs_diff(got, want);
            }
            ++cases;
          }
        }
      }
    }
  }
  kern::set_native_kernels(true);
  for (Tag t : {Tag::kDiag2, Tag::kPerm2, Tag::kDense2, Tag::kCxPerm,
                Tag::kSwapPerm}) {
    EXPECT_NE(std::find(seen.begin(), seen.end(), t), seen.end())
        << "tag " << static_cast<int>(t) << " not covered";
  }
  EXPECT_GE(cases, 700 * static_cast<int>(modes.size()));
}

TEST(NoisyGateSweep, DensityEntryPointMatchesSequentialCalls) {
  // DensityMatrix::apply_noisy_gate against the scalar channel sequence on
  // a superket, fed the coefficients the entry point derives: relaxation
  // per operand, the compiled gate, depolarizing. Both run scalar.
  struct NativeReset {
    ~NativeReset() { kern::set_native_kernels(true); }
  } reset;
  kern::set_native_kernels(false);
  for (int n = 2; n <= 5; ++n) {
    Circuit c(n);
    c.h(0);
    c.cx(0, n - 1);
    c.ry(0.4, n - 1);
    c.cx(n - 1, 0);
    c.t(n / 2);
    const std::vector<FusedOp> ops = reference::compile_ops(c);
    DensityMatrix fused(n);
    std::vector<cx> seq(fused.data().begin(), fused.data().end());
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const FusedOp& op = ops[i];
      const std::span<const int> q(op.q, static_cast<std::size_t>(op.k()));
      const Relaxation idle[2] = {{35.0 * static_cast<double>(i % 3), 80.0,
                                   70.0},
                                  {20.0, 60.0, 140.0}};
      const double p = 0.004 * static_cast<double>(op.k());
      fused.apply_noisy_gate(op, q, std::span<const Relaxation>(idle, q.size()),
                             p);
      kern::RelaxCoeffs relax[2];
      kern::NoisyGate g;
      g.qubits = q;
      g.col = &op.dm;
      g.row = op.k() == 2 ? &op.sv : nullptr;
      for (std::size_t j = 0; j < q.size(); ++j) {
        if (idle[j].duration_ns <= 0.0) continue;
        relax[j] = relaxation_coeffs(idle[j]);
        g.relax[j] = &relax[j];
      }
      const kern::DepolCoeffs depol = depolarizing_coeffs(p, op.k());
      g.depol = &depol;
      reference::channel_sequence(seq, n, g);
    }
    ASSERT_EQ(fused.data().size(), seq.size());
    EXPECT_EQ(std::memcmp(fused.data().data(), seq.data(),
                          seq.size() * sizeof(cx)),
              0)
        << "n=" << n;
  }
}

TEST(NoisyGateSweep, RejectsMalformedInput) {
  DensityMatrix dm(2);
  Circuit c(2);
  c.cx(0, 1);
  const FusedOp op = reference::compile_ops(c).front();
  const int q[2] = {0, 1};
  const Relaxation idle[2] = {{10.0, 50.0, 50.0}, {10.0, -1.0, 50.0}};
  EXPECT_THROW(dm.apply_noisy_gate(op, q, idle, 0.0), std::invalid_argument);
  EXPECT_THROW(dm.apply_noisy_gate(op, q, {}, 1.5), std::invalid_argument);
  EXPECT_THROW(dm.apply_noisy_gate(op, std::span<const int>(q, 1), {}, 0.0),
               std::invalid_argument);
  const int bad[2] = {0, 2};
  EXPECT_THROW(dm.apply_noisy_gate(op, bad, {}, 0.0), std::out_of_range);
  // A settled qubit takes no further gate; relaxation is still allowed.
  EXPECT_THROW(dm.settle(2), std::out_of_range);
  dm.settle(1);
  EXPECT_THROW(dm.apply_noisy_gate(op, q, {}, 0.0), std::invalid_argument);
  EXPECT_NO_THROW(dm.apply_relaxation(1, 10.0, 50.0, 50.0));
}

// --- Live subspace: the masked sweeps against full sweeps. ---

/// Bitwise equal, except that an exact zero may carry either sign: a
/// skipped zero of an untouched qubit stays +0 where a full sweep may have
/// made it -0, and that sign reaches a live entry only as a zero.
bool same_up_to_zero_sign(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0 || (a == 0.0 && b == 0.0);
}

/// Pre-measurement relaxations a live sequence ran, by AVX2 layout (on
/// qubit 0 unpaired, above it paired) and on a settled qubit.
struct RelaxSeen {
  int qubit0 = 0;
  int above0 = 0;
  int settled = 0;
};

/// One random noisy-gate sequence on n qubits, run through a DensityMatrix
/// and through kern::apply_noisy_gate with empty masks on a superket.
/// Qubits are first touched one by one at random points, and each may be
/// settled after any of its gates and then see only relaxation. After
/// every op each live entry (no bit of an untouched qubit set, row equal
/// to column on every settled qubit) must agree, and every entry of an
/// untouched qubit must still be zero. Returns the ops checked.
int check_live_sequence(int n, Rng& rng, bool relax_on, bool depol_on,
                        const std::string& label, RelaxSeen& seen) {
  DensityMatrix dm(n);
  std::vector<cx> full(dm.data().begin(), dm.data().end());
  std::vector<int> first_touch(static_cast<std::size_t>(n));
  for (int q = 0; q < n; ++q) first_touch[static_cast<std::size_t>(q)] = q;
  for (std::size_t i = first_touch.size(); i > 1; --i) {
    std::swap(first_touch[i - 1], first_touch[rng.index(i)]);
  }
  std::size_t available = 1;
  std::size_t touched = 0;
  std::size_t settled = 0;
  const std::size_t dim = std::size_t{1} << n;
  int checked = 0;
  for (int step = 0; step < 6 * n; ++step) {
    if (available < first_touch.size() && rng.bernoulli(0.3)) ++available;
    std::vector<int> open;  // available and not settled
    for (std::size_t i = 0; i < available; ++i) {
      const int q = first_touch[i];
      if (((settled >> q) & 1U) == 0) open.push_back(q);
    }
    std::string what;
    if (relax_on && rng.bernoulli(0.1)) {
      // The executor's pre-measurement window: any qubit, settled or not.
      const int q = static_cast<int>(rng.index(static_cast<std::size_t>(n)));
      const Relaxation r{rng.uniform(5.0, 60.0), 80.0, 70.0};
      dm.apply_relaxation(q, r.duration_ns, r.t1_us, r.t2_us);
      const kern::RelaxCoeffs relax = relaxation_coeffs(r);
      kern::NoisyGate g;
      g.qubits = std::span<const int>(&q, 1);
      g.relax[0] = &relax;
      kern::apply_noisy_gate(full, n, g);
      ++(q == 0 ? seen.qubit0 : seen.above0);
      if (((settled >> q) & 1U) != 0) ++seen.settled;
      touched |= std::size_t{1} << q;
      what = "relax q" + std::to_string(q);
    } else if (!open.empty()) {
      std::vector<int> q{open[rng.index(open.size())]};
      if (open.size() >= 2 && rng.bernoulli(0.5)) {
        int b = q[0];
        while (b == q[0]) b = open[rng.index(open.size())];
        q.push_back(b);
      }
      const int k = static_cast<int>(q.size());
      const std::vector<FusedOp> ops = noisy_test_ops(q);
      const FusedOp& op = ops[rng.index(ops.size())];
      Relaxation idle[2];
      kern::RelaxCoeffs relax[2];
      kern::NoisyGate g;
      g.qubits = q;
      g.col = &op.dm;
      g.row = k == 2 ? &op.sv : nullptr;
      for (int j = 0; j < k; ++j) {
        if (!relax_on || !rng.bernoulli(0.7)) continue;
        idle[j] = {rng.uniform(10.0, 90.0), 60.0 + 20.0 * j, 70.0};
        relax[j] = relaxation_coeffs(idle[j]);
        g.relax[j] = &relax[j];
      }
      const double p = depol_on ? 0.01 * k : 0.0;
      kern::DepolCoeffs depol;
      if (depol_on) {
        depol = depolarizing_coeffs(p, k);
        g.depol = &depol;
      }
      dm.apply_noisy_gate(op, q, std::span<const Relaxation>(idle, q.size()),
                          p);
      kern::apply_noisy_gate(full, n, g);
      what = "gate q" + std::to_string(q[0]) +
             (k == 2 ? "," + std::to_string(q[1]) : "");
      for (int j = 0; j < k; ++j) {
        touched |= std::size_t{1} << q[static_cast<std::size_t>(j)];
        if (rng.bernoulli(0.15)) {
          dm.settle(q[static_cast<std::size_t>(j)]);
          settled |= std::size_t{1} << q[static_cast<std::size_t>(j)];
        }
      }
    } else {
      continue;
    }
    const std::size_t untouched = (dim - 1) & ~touched;
    int bad = 0;
    for (std::size_t i = 0; i < full.size(); ++i) {
      const std::size_t r = i >> n;
      const std::size_t c = i & (dim - 1);
      const cx got = dm.data()[i];
      if (((r | c) & untouched) != 0) {
        bad += got == cx{0.0, 0.0} && full[i] == cx{0.0, 0.0} ? 0 : 1;
      } else if (((r ^ c) & settled) == 0) {
        bad += same_up_to_zero_sign(got.real(), full[i].real()) &&
                       same_up_to_zero_sign(got.imag(), full[i].imag())
                   ? 0
                   : 1;
      }
    }
    EXPECT_EQ(bad, 0) << label << " n=" << n << " step=" << step << " "
                      << what;
    if (bad != 0) return checked;
    ++checked;
  }
  std::vector<double> want(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    want[i] = std::max(0.0, full[i * dim + i].real());
  }
  const std::vector<double> got = dm.probabilities();
  EXPECT_EQ(std::memcmp(got.data(), want.data(), dim * sizeof(double)), 0)
      << label << " n=" << n << " probabilities";
  return checked;
}

TEST(NoisyGateSweep, LiveSubspaceMatchesFullSweep) {
  std::vector<bool> modes{false};
  if (kern::native_kernels_active()) modes.push_back(true);
  int checked = 0;
  for (const bool mode : modes) {
    kern::set_native_kernels(mode);
    RelaxSeen seen;
    for (int noise = 0; noise < 4; ++noise) {
      const bool relax_on = (noise & 1) != 0;
      const bool depol_on = (noise & 2) != 0;
      const std::string label = std::string(mode ? "native" : "scalar") +
                                " relax=" + std::to_string(relax_on) +
                                " depol=" + std::to_string(depol_on);
      for (int n = 2; n <= 7; ++n) {
        for (int seq = 0; seq < 4; ++seq) {
          Rng rng(9100 + static_cast<std::uint64_t>(100 * n + seq));
          checked +=
              check_live_sequence(n, rng, relax_on, depol_on, label, seen);
        }
      }
    }
    EXPECT_GT(seen.qubit0, 0) << "native=" << mode;
    EXPECT_GT(seen.above0, 0) << "native=" << mode;
    EXPECT_GT(seen.settled, 0) << "native=" << mode;
  }
  kern::set_native_kernels(true);
  EXPECT_GE(checked, 400 * static_cast<int>(modes.size()));
}

TEST(NoisyGateSweep, LivePlanEnumeratesExactlyTheLiveBlocks) {
  // At n = 10, with masked and tied bits: counter(t) for any t — the
  // first block of a parallel_for chunk starting at t — equals the walk of
  // next() from block 0, and the bases of the walk are exactly the indices
  // with the block bits clear, the zero bits clear and every tied row bit
  // equal to its column bit, each once. Superket bit 0 stays free.
  const int n = 10;
  const std::size_t size = std::size_t{1} << (2 * n);
  struct Case {
    std::vector<int> q;
    std::size_t zero;
    std::size_t tied;
  };
  const std::size_t rows_cols_of_3 = (std::size_t{1} << 3) |
                                     (std::size_t{1} << (3 + n));
  const std::vector<Case> cases = {
      {{5}, 0, 0},
      {{5}, rows_cols_of_3, (std::size_t{1} << 7) | (std::size_t{1} << 8)},
      {{0, 9}, rows_cols_of_3, std::size_t{1} << 6},
      {{4, 2}, (std::size_t{1} << n) | rows_cols_of_3,
       (std::size_t{1} << 1) | (std::size_t{1} << 9)},
      // Bit 0 in either mask is ignored: it stays free.
      {{6}, 1 | (std::size_t{1} << n), 1 | (std::size_t{1} << 2)},
  };
  for (const Case& c : cases) {
    kern::NoisyGate g;
    g.qubits = c.q;
    const kern::detail::NoisyPlan plan = kern::detail::make_plan(n, g, size);
    g.zero = c.zero;
    g.tied = c.tied;
    const kern::detail::NoisyPlan live = kern::detail::make_plan(n, g, size);
    std::size_t block_bits = 0;
    for (int q : c.q) {
      block_bits |= (std::size_t{1} << q) | (std::size_t{1} << (q + n));
    }
    const std::size_t zero = c.zero & ~std::size_t{1};
    const std::size_t tied = c.tied & ~std::size_t{1};
    std::vector<std::size_t> want;
    for (std::size_t i = 0; i < size; ++i) {
      if ((i & (block_bits | zero)) != 0) continue;
      if ((((i >> n) ^ i) & tied) != 0) continue;
      want.push_back(i);
    }
    EXPECT_EQ(plan.blocks, size >> (2 * c.q.size()));
    ASSERT_EQ(live.blocks, want.size());
    if ((block_bits & 1) == 0) EXPECT_EQ(live.free & 1, 1U);
    std::size_t counter = live.counter(0);
    std::vector<std::size_t> walked{live.base(counter)};
    int bad = 0;
    for (std::size_t t = 1; t < live.blocks; ++t) {
      counter = live.next(counter);
      walked.push_back(live.base(counter));
      bad += live.counter(t) == counter ? 0 : 1;
    }
    EXPECT_EQ(bad, 0) << "q0=" << c.q[0];
    std::sort(walked.begin(), walked.end());
    EXPECT_EQ(walked, want) << "q0=" << c.q[0];
  }
}

TEST(NoisyGateSweep, ChunkedLiveSweepMatchesSerialSweep) {
  // n = 10, a 1q op with one bit masked: 2^17 blocks, which parallel_for
  // splits into two chunks when the cap allows (on qubit 0 the AVX2 body
  // is unpaired, so the native sweep splits too). The second chunk starts
  // mid-walk at counter(begin); the result must match the one-chunk sweep
  // bit for bit. Cases: the zero row bit of an untouched qubit 0, and one
  // tied qubit.
  const int n = 10;
  Rng rng(424242);
  const std::vector<cx> rho0 = random_mixed_rho(n, rng);
  const kern::RelaxCoeffs relax{0.013, 0.981, 0.987};
  const kern::DepolCoeffs depol{0.98, 0.02 * 4.0 / 3.0, 0.5};
  std::vector<bool> modes{false};
  if (kern::native_kernels_active()) modes.push_back(true);
  struct Case {
    int q;
    std::size_t zero;
    std::size_t tied;
  };
  const std::vector<Case> cases = {{5, std::size_t{1} << n, 0},
                                   {0, 0, std::size_t{1} << 7},
                                   {4, 0, std::size_t{1} << 9}};
  int compared = 0;
  for (const bool mode : modes) {
    kern::set_native_kernels(mode);
    for (const Case& c : cases) {
      const std::vector<int> q{c.q};
      for (const FusedOp& op : noisy_test_ops(q)) {
        kern::NoisyGate g;
        g.qubits = q;
        g.col = &op.dm;
        g.relax[0] = &relax;
        g.depol = &depol;
        g.zero = c.zero;
        g.tied = c.tied;
        std::vector<cx> serial = rho0;
        std::vector<cx> chunked = rho0;
        {
          const kern::ParallelThreadsGuard one(1);
          kern::apply_noisy_gate(serial, n, g);
        }
        {
          const kern::ParallelThreadsGuard four(4);
          kern::apply_noisy_gate(chunked, n, g);
        }
        EXPECT_TRUE(same_bits(chunked, serial))
            << "native=" << mode << " q=" << c.q;
        EXPECT_FALSE(same_bits(serial, rho0)) << "native=" << mode;
        ++compared;
      }
    }
  }
  kern::set_native_kernels(true);
  EXPECT_GE(compared, 12 * static_cast<int>(modes.size()));
}

TEST(ParallelFor, ResolvesZeroHardwareConcurrencyToSerial) {
  // The standard allows hardware_concurrency() to report 0 ("unknown");
  // the resolver must map that to 1 worker, not feed 0 into the chunk
  // split. Explicit overrides and the env knob take precedence in order.
  EXPECT_EQ(kern::resolve_parallel_threads(0, nullptr, 0u), 1);
  EXPECT_EQ(kern::resolve_parallel_threads(0, nullptr, 8u), 8);
  EXPECT_EQ(kern::resolve_parallel_threads(3, nullptr, 8u), 3);
  EXPECT_EQ(kern::resolve_parallel_threads(3, "5", 8u), 3);
  EXPECT_EQ(kern::resolve_parallel_threads(0, "5", 8u), 5);
  EXPECT_EQ(kern::resolve_parallel_threads(0, "5", 0u), 5);
  // Garbage / non-positive env values fall through to hardware.
  EXPECT_EQ(kern::resolve_parallel_threads(0, "nope", 4u), 4);
  EXPECT_EQ(kern::resolve_parallel_threads(0, "0", 4u), 4);
  EXPECT_EQ(kern::resolve_parallel_threads(0, "-2", 0u), 1);
}

TEST(ParallelFor, CoversEveryElementExactlyOnceUnderAnyCap) {
  // Above-threshold count so the parallel branch engages when the cap
  // allows it; each element incremented exactly once proves the ranges
  // are disjoint and complete.
  const std::size_t count = (std::size_t{2} << 16) + 37;
  for (int cap : {1, 2, 3, 8}) {
    const kern::ParallelThreadsGuard guard(cap);
    EXPECT_EQ(kern::parallel_threads(), cap);
    std::vector<int> touched(count, 0);
    kern::parallel_for(count, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) ++touched[i];
    });
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(touched.begin(), touched.end(), 1)),
              count)
        << "cap=" << cap;
  }
}

TEST(ParallelFor, GuardScopesTheCapAndRestoresOnExit) {
  {
    const kern::ParallelThreadsGuard outer(6);
    {
      const kern::ParallelThreadsGuard guard(2);
      EXPECT_EQ(kern::parallel_threads(), 2);
      {
        const kern::ParallelThreadsGuard inner(0);  // no-op: inherit
        EXPECT_EQ(kern::parallel_threads(), 2);
      }
      EXPECT_EQ(kern::parallel_threads(), 2);
    }
    EXPECT_EQ(kern::parallel_threads(), 6);
  }
  EXPECT_GE(kern::parallel_threads(), 1);  // ambient is always >= 1
}

TEST(ParallelFor, CapIsThreadLocal) {
  const kern::ParallelThreadsGuard guard(5);
  int other_thread_cap = -1;
  std::thread probe([&] { other_thread_cap = kern::parallel_threads(); });
  probe.join();
  // A worker thread inherits the ambient cap, not this thread's override —
  // each ExecutionService worker manages its own budget.
  EXPECT_EQ(kern::parallel_threads(), 5);
  EXPECT_NE(other_thread_cap, -1);
  EXPECT_NE(other_thread_cap, 0);
}

TEST(ParallelFor, SmallCountsStaySerialRegardlessOfCap) {
  const kern::ParallelThreadsGuard guard(8);
  // Below 2 * kParallelGrain the body must run inline as one range.
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  kern::parallel_for(kern::kParallelGrain, [&](std::size_t b, std::size_t e) {
    ranges.emplace_back(b, e);
  });
  ASSERT_EQ(ranges.size(), 1u);
  EXPECT_EQ(ranges[0], (std::pair<std::size_t, std::size_t>{
                           0, kern::kParallelGrain}));
}

}  // namespace
}  // namespace qucp
