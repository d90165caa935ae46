#include "circuit/optimize.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <iterator>
#include <numbers>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "reference_optimize.hpp"

namespace qucp {
namespace {

TEST(Optimize, CancelsAdjacentSelfInverse) {
  Circuit c(1);
  c.h(0);
  c.h(0);
  OptimizeStats stats;
  const Circuit out = optimize(c, &stats);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.cancelled_pairs, 1);
}

TEST(Optimize, CancelsCxPairs) {
  Circuit c(2);
  c.cx(0, 1);
  c.cx(0, 1);
  EXPECT_TRUE(optimize(c).empty());
}

TEST(Optimize, KeepsReversedCx) {
  Circuit c(2);
  c.cx(0, 1);
  c.cx(1, 0);  // different orientation: NOT an inverse pair
  EXPECT_EQ(optimize(c).size(), 2u);
}

TEST(Optimize, CancelsSymmetricCzEitherOrientation) {
  Circuit c(2);
  c.cz(0, 1);
  c.cz(1, 0);
  EXPECT_TRUE(optimize(c).empty());
}

TEST(Optimize, CancelsSTdgPairs) {
  Circuit c(1);
  c.s(0);
  c.sdg(0);
  c.t(0);
  c.tdg(0);
  EXPECT_TRUE(optimize(c).empty());
}

TEST(Optimize, InterveningGateBlocksCancellation) {
  Circuit c(2);
  c.h(0);
  c.cx(0, 1);
  c.h(0);
  EXPECT_EQ(optimize(c).size(), 3u);
}

TEST(Optimize, InterveningOnEitherWireBlocks2qCancellation) {
  Circuit c(2);
  c.cx(0, 1);
  c.x(1);
  c.cx(0, 1);
  EXPECT_EQ(optimize(c).size(), 3u);
}

TEST(Optimize, MergesRotations) {
  Circuit c(1);
  c.rz(0.25, 0);
  c.rz(0.50, 0);
  OptimizeStats stats;
  const Circuit out = optimize(c, &stats);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_NEAR(out.ops()[0].params[0], 0.75, 1e-12);
  EXPECT_EQ(stats.merged_rotations, 1);
}

TEST(Optimize, MergedRotationsCancelToIdentity) {
  Circuit c(1);
  c.rx(0.7, 0);
  c.rx(-0.7, 0);
  EXPECT_TRUE(optimize(c).empty());
}

TEST(Optimize, RemovesIdentityAndZeroRotations) {
  Circuit c(1);
  c.i(0);
  c.rz(0.0, 0);
  c.ry(2 * std::numbers::pi, 0);  // global phase only
  OptimizeStats stats;
  EXPECT_TRUE(optimize(c, &stats).empty());
  EXPECT_EQ(stats.removed_identities, 3);
}

TEST(Optimize, MeasureIsAFence) {
  Circuit c(1);
  c.h(0);
  c.measure(0, 0);
  c.h(0);
  EXPECT_EQ(optimize(c).size(), 3u);
}

TEST(Optimize, CascadingCancellation) {
  // h x x h -> h h -> empty (requires fixpoint iteration).
  Circuit c(1);
  c.h(0);
  c.x(0);
  c.x(0);
  c.h(0);
  EXPECT_TRUE(optimize(c).empty());
}

TEST(Optimize, PreservesUnitary) {
  Circuit c(3);
  c.h(0);
  c.t(1);
  c.cx(0, 1);
  c.cx(0, 1);
  c.rz(0.4, 2);
  c.rz(0.6, 2);
  c.x(1);
  c.x(1);
  c.s(2);
  const Matrix before = c.to_unitary();
  const Circuit out = optimize(c);
  EXPECT_LT(out.size(), c.size());
  EXPECT_TRUE(out.to_unitary().approx_equal(before, 1e-10));
}

TEST(Optimize, StatsTotalConsistent) {
  Circuit c(1);
  c.h(0);
  c.h(0);
  c.rz(0.1, 0);
  c.rz(0.2, 0);
  c.i(0);
  OptimizeStats stats;
  (void)optimize(c, &stats);
  EXPECT_EQ(stats.total(),
            stats.cancelled_pairs * 2 + stats.merged_rotations +
                stats.removed_identities);
  EXPECT_GT(stats.total(), 0);
}

TEST(Optimize, SwapPairCancels) {
  Circuit c(2);
  c.swap(0, 1);
  c.swap(1, 0);
  EXPECT_TRUE(optimize(c).empty());
}

/// Random circuit rich in optimizer work: self-inverse and S/T pairs,
/// identity rotations, rotation chains that sum to 2*pi, CX/CZ/SWAP in
/// both operand orders, partial and full barriers (one names a qubit
/// twice), mid-circuit measurements and terminal measurements.
Circuit oracle_circuit(Rng& rng) {
  constexpr double kPi = std::numbers::pi;
  static const GateKind kFixed[] = {
      GateKind::H, GateKind::X,   GateKind::Y, GateKind::Z,  GateKind::S,
      GateKind::Sdg, GateKind::T, GateKind::Tdg, GateKind::I, GateKind::SX};
  static const GateKind kRot[] = {GateKind::RX, GateKind::RY, GateKind::RZ,
                                  GateKind::U1};
  static const double kAngles[] = {0.0,      2 * kPi, -2 * kPi, kPi / 2,
                                   -kPi / 2, kPi,     0.3,      -0.3};
  const int n = 2 + static_cast<int>(rng.index(5));
  Circuit c(n);
  const int steps = 4 + static_cast<int>(rng.index(60));
  const auto qubit = [&] { return static_cast<int>(rng.index(n)); };
  const auto pair = [&] {
    const int a = qubit();
    int b = qubit();
    while (b == a) b = qubit();
    return std::pair{a, b};
  };
  for (int s = 0; s < steps; ++s) {
    const double roll = rng.uniform();
    if (roll < 0.3) {
      Gate g{kFixed[rng.index(std::size(kFixed))], {qubit()}, {}};
      c.append(g);
      if (rng.bernoulli(0.3)) c.append(g);  // an adjacent pair
    } else if (roll < 0.55) {
      const GateKind k = kRot[rng.index(std::size(kRot))];
      const int q = qubit();
      if (rng.bernoulli(0.3)) {
        // A chain whose angles sum to 2*pi.
        const int len = 2 + static_cast<int>(rng.index(3));
        for (int i = 0; i < len; ++i) {
          c.append({k, {q}, {2 * kPi / len}});
        }
      } else {
        const double theta = rng.bernoulli(0.5)
                                 ? kAngles[rng.index(std::size(kAngles))]
                                 : rng.uniform(-3.0, 3.0);
        c.append({k, {q}, {theta}});
      }
    } else if (roll < 0.85) {
      const GateKind k = rng.bernoulli(0.5)   ? GateKind::CX
                         : rng.bernoulli(0.5) ? GateKind::CZ
                                              : GateKind::SWAP;
      auto [a, b] = pair();
      c.append({k, {a, b}, {}});
      if (rng.bernoulli(0.4)) {
        if (rng.bernoulli(0.5)) std::swap(a, b);
        c.append({k, {a, b}, {}});
      }
    } else if (roll < 0.9) {
      c.u3(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0),
           rng.uniform(-3.0, 3.0), qubit());
    } else if (roll < 0.95) {
      if (rng.bernoulli(0.5)) {
        c.barrier();
      } else {
        const int q = qubit();
        c.barrier({q, qubit(), q});
      }
    } else {
      const int q = qubit();
      c.measure(q, q);
    }
  }
  for (int q = 0; q < n; ++q) {
    if (rng.bernoulli(0.7)) c.measure(q, q);
  }
  return c;
}

void expect_same_trace(const OptimizeTrace& got, const OptimizeTrace& want,
                       const std::string& context) {
  ASSERT_EQ(got.nodes.size(), want.nodes.size()) << context;
  for (std::size_t i = 0; i < got.nodes.size(); ++i) {
    const ParamExpr& a = got.nodes[i];
    const ParamExpr& b = want.nodes[i];
    EXPECT_TRUE(a.kind == b.kind && a.a == b.a && a.b == b.b &&
                a.slot == b.slot &&
                std::bit_cast<std::uint64_t>(a.value) ==
                    std::bit_cast<std::uint64_t>(b.value))
        << context << " node " << i;
  }
  ASSERT_EQ(got.checks.size(), want.checks.size()) << context;
  for (std::size_t i = 0; i < got.checks.size(); ++i) {
    EXPECT_EQ(got.checks[i].node, want.checks[i].node) << context;
    EXPECT_EQ(got.checks[i].identity, want.checks[i].identity) << context;
  }
  EXPECT_EQ(got.out_exprs, want.out_exprs) << context;
}

void expect_same_stats(const OptimizeStats& got, const OptimizeStats& want,
                       const std::string& context) {
  EXPECT_EQ(got.cancelled_pairs, want.cancelled_pairs) << context;
  EXPECT_EQ(got.merged_rotations, want.merged_rotations) << context;
  EXPECT_EQ(got.removed_identities, want.removed_identities) << context;
}

TEST(Optimize, MatchesQuadraticOracleOnRandomCircuits) {
  Rng rng(20261019);
  int changed = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const Circuit c = oracle_circuit(rng);
    const std::string context = "trial " + std::to_string(trial);

    OptimizeStats got_stats;
    OptimizeStats want_stats;
    const Circuit want = reference::optimize(c, &want_stats);
    const Circuit got = optimize(c, &got_stats);
    ASSERT_EQ(got.ops(), want.ops()) << context;
    expect_same_stats(got_stats, want_stats, context);
    changed += want.size() != c.size() ? 1 : 0;

    // Traced: fresh leaves per parameter, then a second pass fed the
    // first's expressions, as TranspileTemplate::build chains them.
    OptimizeTrace got_trace;
    OptimizeTrace want_trace;
    std::vector<ParamExprIds> leaves_got;
    std::vector<ParamExprIds> leaves_want;
    std::int32_t slot = 0;
    for (const Gate& g : c.ops()) {
      leaves_got.emplace_back();
      leaves_want.emplace_back();
      for (std::size_t j = 0; j < g.params.size(); ++j, ++slot) {
        leaves_got.back().push_back(got_trace.leaf(slot));
        leaves_want.back().push_back(want_trace.leaf(slot));
      }
    }
    const Circuit got_t = optimize_traced(c, leaves_got, got_trace, &got_stats);
    const Circuit want_t =
        reference::optimize(c, &want_stats, &leaves_want, &want_trace);
    ASSERT_EQ(got_t.ops(), want_t.ops()) << context;
    ASSERT_EQ(got_t.ops(), want.ops()) << context;
    expect_same_stats(got_stats, want_stats, context);
    expect_same_trace(got_trace, want_trace, context);

    const auto mid_got = std::move(got_trace.out_exprs);
    const auto mid_want = std::move(want_trace.out_exprs);
    got_trace.out_exprs.clear();
    want_trace.out_exprs.clear();
    Circuit again = got_t;
    again.rz(0.25, 0);  // gives the second pass a merge partner to find
    auto again_got = mid_got;
    auto again_want = mid_want;
    again_got.push_back({got_trace.constant(0.25)});
    again_want.push_back({want_trace.constant(0.25)});
    const Circuit got2 =
        optimize_traced(again, again_got, got_trace, &got_stats);
    const Circuit want2 =
        reference::optimize(again, &want_stats, &again_want, &want_trace);
    ASSERT_EQ(got2.ops(), want2.ops()) << context;
    expect_same_stats(got_stats, want_stats, context);
    expect_same_trace(got_trace, want_trace, context);
  }
  // The generator must give the fixpoint real work.
  EXPECT_GT(changed, 400);
}

}  // namespace
}  // namespace qucp
