#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <numeric>
#include <set>

namespace qucp {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, DeriveIsDeterministicAndIndependent) {
  Rng root(7);
  Rng d1 = root.derive("alpha");
  Rng d2 = root.derive("alpha");
  Rng d3 = root.derive("beta");
  EXPECT_DOUBLE_EQ(d1.uniform(), d2.uniform());
  // Deriving does not advance the parent.
  Rng root2(7);
  EXPECT_DOUBLE_EQ(root.uniform(), root2.uniform());
  // Distinct tags give distinct streams.
  Rng d1b = root.derive("alpha");
  EXPECT_NE(d1b.uniform(), d3.uniform());
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 5.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformMatchesStdUniformRealDistribution) {
  // uniform() scales one raw draw by 2^-64; it must equal what
  // std::uniform_real_distribution<double>(0, 1) yields on the same engine
  // stream, draw for draw.
  struct RawDraws {
    using result_type = std::uint64_t;
    Rng* rng;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }
    result_type operator()() { return rng->next_u64(); }
  };
  for (std::uint64_t seed : {1ULL, 42ULL, 104729ULL}) {
    Rng fast(seed);
    Rng raw(seed);
    RawDraws src{&raw};
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (int i = 0; i < 200000; ++i) {
      const double got = fast.uniform();
      const double want = unit(src);
      ASSERT_EQ(std::memcmp(&got, &want, sizeof got), 0)
          << "seed " << seed << " draw " << i;
    }
  }
}

TEST(Rng, UniformRejectsInvertedRange) {
  Rng rng(3);
  EXPECT_THROW((void)rng.uniform(1.0, 0.0), std::invalid_argument);
}

TEST(Rng, IndexCoversRange) {
  Rng rng(5);
  std::set<std::size_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.index(7));
  EXPECT_EQ(seen.size(), 7u);
  EXPECT_THROW((void)rng.index(0), std::invalid_argument);
}

TEST(Rng, IntegerInclusiveBounds) {
  Rng rng(6);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 300; ++i) seen.insert(rng.integer(-2, 2));
  EXPECT_TRUE(seen.count(-2));
  EXPECT_TRUE(seen.count(2));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(8);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Rng rng(9);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(10);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(1.5, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 1.5, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, DiscreteRespectsWeights) {
  Rng rng(11);
  const std::vector<double> weights{0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[rng.discrete(weights)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.35);
}

TEST(Rng, DiscreteRejectsBadWeights) {
  Rng rng(12);
  const std::vector<double> zero{0.0, 0.0};
  EXPECT_THROW((void)rng.discrete(zero), std::invalid_argument);
  const std::vector<double> negative{0.5, -0.1};
  EXPECT_THROW((void)rng.discrete(negative), std::invalid_argument);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(13);
  std::vector<int> v(20);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), shuffled.begin()));
  EXPECT_NE(v, shuffled);  // 20! permutations; identity is implausible
}

TEST(Rng, ChoiceThrowsOnEmpty) {
  Rng rng(14);
  const std::vector<int> empty;
  EXPECT_THROW((void)rng.choice(std::span<const int>(empty)),
               std::invalid_argument);
}

TEST(Rng, Fnv1aStable) {
  EXPECT_EQ(fnv1a("abc"), fnv1a("abc"));
  EXPECT_NE(fnv1a("abc"), fnv1a("abd"));
  EXPECT_NE(fnv1a(""), fnv1a("a"));
}

}  // namespace
}  // namespace qucp
