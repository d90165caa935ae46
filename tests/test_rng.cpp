#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <concepts>
#include <cstring>
#include <limits>
#include <numeric>
#include <random>
#include <set>
#include <vector>

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

static_assert(std::uniform_random_bit_generator<Mt19937_64>);

/// The engine seed Rng(seed) uses: SplitMix64's finalizer, written out here
/// so the reference stream below is built without Rng.
std::uint64_t split_mix64(std::uint64_t x) {
  x += 0x9E3779B97f4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// The seeds the engine tests pin: edge values, the benchmark seeds and
/// a few derived substreams.
std::vector<std::uint64_t> pinned_seeds() {
  std::vector<std::uint64_t> seeds{0, 1, 42, 104729,
                                   std::numeric_limits<std::uint64_t>::max()};
  for (const char* tag : {"alpha", "shots", "lane-3"}) {
    seeds.push_back(Rng(1).derive(tag).seed());
    seeds.push_back(Rng(104729).derive(tag).seed());
  }
  return seeds;
}

TEST(Rng, EngineMatchesStdMt19937_64) {
  // The engine's raw words equal std::mt19937_64's for the same seed, past
  // several twists.
  for (const std::uint64_t seed : pinned_seeds()) {
    Mt19937_64 engine(seed);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < 5000; ++i) {
      ASSERT_EQ(engine(), reference()) << "seed " << seed << " word " << i;
    }
  }
}

TEST(Rng, ScalarAndBulkDrawsMatchStdMt19937_64) {
  // Scalar next_u64/uniform draws interleaved with fill_uniform runs of
  // 1-1000 draws (so runs start and end anywhere in a 312-word block and
  // straddle twists): every value equals the one std::mt19937_64 and
  // std::uniform_real_distribution give, bit for bit, over >= 10^6 draws
  // per stream.
  std::minstd_rand driver(17);
  std::vector<double> bulk(1000);
  for (const std::uint64_t seed : pinned_seeds()) {
    Rng rng(seed);
    std::mt19937_64 reference(split_mix64(seed));
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    long draws = 0;
    while (draws < 1'000'000) {
      switch (driver() % 3) {
        case 0:
          ASSERT_EQ(rng.next_u64(), reference())
              << "seed " << seed << " draw " << draws;
          ++draws;
          break;
        case 1: {
          const double got = rng.uniform();
          const double want = unit(reference);
          ASSERT_EQ(std::memcmp(&got, &want, sizeof got), 0)
              << "seed " << seed << " draw " << draws;
          ++draws;
          break;
        }
        default: {
          const std::size_t n = 1 + driver() % 1000;
          const double scale = (driver() % 2) ? 1.0 : 0.5 + driver() * 1e-9;
          rng.fill_uniform(std::span<double>(bulk.data(), n), scale);
          for (std::size_t i = 0; i < n; ++i) {
            const double want = unit(reference) * scale;
            ASSERT_EQ(std::memcmp(&bulk[i], &want, sizeof want), 0)
                << "seed " << seed << " draw " << draws << " + " << i
                << " of a run of " << n;
          }
          draws += static_cast<long>(n);
        }
      }
    }
    // An empty fill draws nothing.
    rng.fill_uniform({}, 1.0);
    EXPECT_EQ(rng.next_u64(), reference());
  }
}

TEST(Rng, DistributionsMatchStdDistributionsOnStdMt19937_64) {
  // index, integer and normal run the standard distributions on the
  // engine, so they must equal those distributions on std::mt19937_64,
  // including ranges whose rejection sampling redraws.
  using Lim = std::numeric_limits<std::int64_t>;
  const std::size_t sizes[] = {1, 2, 7, 1000, (1ULL << 40) + 3,
                               (1ULL << 63) + 1, ~std::size_t{0}};
  const std::pair<std::int64_t, std::int64_t> ranges[] = {
      {-2, 2}, {0, 0}, {-1'000'000'007, 5}, {Lim::min(), Lim::max()},
      {Lim::min() / 2 - 9, Lim::max() / 2 + 9}};
  for (const std::uint64_t seed : pinned_seeds()) {
    Rng rng(seed);
    std::mt19937_64 reference(split_mix64(seed));
    for (int round = 0; round < 2000; ++round) {
      for (const std::size_t n : sizes) {
        ASSERT_EQ(rng.index(n),
                  std::uniform_int_distribution<std::size_t>(0, n - 1)(
                      reference))
            << "seed " << seed << " round " << round << " n " << n;
      }
      for (const auto& [lo, hi] : ranges) {
        ASSERT_EQ(rng.integer(lo, hi),
                  std::uniform_int_distribution<std::int64_t>(lo, hi)(
                      reference))
            << "seed " << seed << " round " << round;
      }
      const double got = rng.normal(1.5, 2.0);
      const double want =
          std::normal_distribution<double>(1.5, 2.0)(reference);
      ASSERT_EQ(std::memcmp(&got, &want, sizeof got), 0)
          << "seed " << seed << " round " << round;
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
