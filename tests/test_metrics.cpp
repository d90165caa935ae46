#include "metrics/metrics.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>
#include <vector>

#include "common/rng.hpp"

namespace qucp {
namespace {

Distribution uniform2() { return Distribution(1, {{0, 0.5}, {1, 0.5}}); }
Distribution point(std::uint64_t x) { return Distribution(2, {{x, 1.0}}); }

TEST(Metrics, PstFromDistribution) {
  const Distribution d(2, {{0b11, 0.7}, {0b00, 0.3}});
  EXPECT_DOUBLE_EQ(pst(d, 0b11), 0.7);
}

TEST(Metrics, JsdSymmetricAndFinite) {
  const Distribution p = point(0);
  const Distribution q = point(3);
  EXPECT_NEAR(jsd(p, q), 1.0, 1e-12);  // disjoint points: max JSD in base 2
  EXPECT_DOUBLE_EQ(jsd(p, q), jsd(q, p));
}

TEST(Metrics, JsdZeroForIdentical) {
  EXPECT_NEAR(jsd(uniform2(), uniform2()), 0.0, 1e-12);
}

TEST(Metrics, JsdBounds) {
  const Distribution p(2, {{0, 0.6}, {1, 0.3}, {2, 0.1}});
  const Distribution q(2, {{0, 0.1}, {2, 0.5}, {3, 0.4}});
  const double v = jsd(p, q);
  EXPECT_GT(v, 0.0);
  EXPECT_LT(v, 1.0);
}

/// Kullback-Leibler divergence D(P||Q) in bits (Eq. 4), for distributions
/// where Q covers P's support: the textbook form JSD is checked against.
double kl_divergence(const Distribution& p, const Distribution& q) {
  double d = 0.0;
  for (const auto& [k, pk] : p.probs()) d += pk * std::log2(pk / q.prob(k));
  return d;
}

TEST(Metrics, JsdMatchesKlDefinition) {
  // JSD = (KL(P||M) + KL(Q||M)) / 2 with M the mixture.
  const Distribution p(1, {{0, 0.8}, {1, 0.2}});
  const Distribution q(1, {{0, 0.3}, {1, 0.7}});
  const Distribution m(1, {{0, 0.55}, {1, 0.45}});
  const double expected =
      0.5 * (kl_divergence(p, m) + kl_divergence(q, m));
  EXPECT_NEAR(jsd(p, q), expected, 1e-12);
}

TEST(Metrics, MetricOrderingConsistency) {
  // A closer distribution must score better.
  const Distribution target(1, {{0, 0.9}, {1, 0.1}});
  const Distribution close(1, {{0, 0.85}, {1, 0.15}});
  const Distribution far(1, {{0, 0.5}, {1, 0.5}});
  EXPECT_LT(jsd(close, target), jsd(far, target));
}

TEST(Metrics, HardwareThroughput) {
  EXPECT_NEAR(hardware_throughput(4, 15), 0.2667, 1e-3);
  EXPECT_NEAR(hardware_throughput(8, 15), 0.5333, 1e-3);
  EXPECT_DOUBLE_EQ(hardware_throughput(0, 10), 0.0);
  EXPECT_DOUBLE_EQ(hardware_throughput(10, 10), 1.0);
  EXPECT_THROW((void)hardware_throughput(11, 10), std::invalid_argument);
  EXPECT_THROW((void)hardware_throughput(-1, 10), std::invalid_argument);
  EXPECT_THROW((void)hardware_throughput(1, 0), std::invalid_argument);
}

/// The set-union definitions the merge walk replaced: every outcome in
/// either support, ascending, probabilities looked up per key.
std::set<std::uint64_t> reference_union(const Distribution& p,
                                        const Distribution& q) {
  std::set<std::uint64_t> keys;
  for (const auto& [k, v] : p.probs()) keys.insert(k);
  for (const auto& [k, v] : q.probs()) keys.insert(k);
  return keys;
}

double reference_jsd(const Distribution& p, const Distribution& q) {
  double d = 0.0;
  for (std::uint64_t k : reference_union(p, q)) {
    const double pk = p.prob(k);
    const double qk = q.prob(k);
    const double mk = 0.5 * (pk + qk);
    if (pk > 0.0) d += 0.5 * pk * std::log2(pk / mk);
    if (qk > 0.0) d += 0.5 * qk * std::log2(qk / mk);
  }
  return std::min(1.0, std::max(0.0, d));
}

Distribution random_sparse_distribution(Rng& rng, int bits) {
  const std::size_t outcomes = 1 + rng.index(std::size_t{1} << bits);
  std::vector<Distribution::Entry> entries;
  for (std::size_t i = 0; i < outcomes; ++i) {
    const double w = rng.bernoulli(0.2) ? rng.uniform(1e-12, 1e-6)
                                        : rng.uniform(0.0, 1.0) + 1e-9;
    entries.push_back({rng.index(std::size_t{1} << bits), w});
  }
  return Distribution(bits, std::move(entries));
}

TEST(Metrics, MergeWalkMatchesSetUnionReferenceBitwise) {
  // Disjoint, nested and partially overlapping sparse supports (2-8 bits,
  // duplicate draws merged), including a distribution against itself.
  Rng rng(31337);
  for (int trial = 0; trial < 400; ++trial) {
    const int bits = 2 + static_cast<int>(rng.index(7));
    const Distribution p = random_sparse_distribution(rng, bits);
    const Distribution q =
        trial % 10 == 0 ? p : random_sparse_distribution(rng, bits);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(jsd(p, q)),
              std::bit_cast<std::uint64_t>(reference_jsd(p, q)))
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace qucp
