#include "sim/counts.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/rng.hpp"

namespace qucp {
namespace {

TEST(Distribution, NormalizesOnConstruction) {
  const Distribution d(2, {{0, 2.0}, {3, 6.0}});
  EXPECT_DOUBLE_EQ(d.prob(0), 0.25);
  EXPECT_DOUBLE_EQ(d.prob(3), 0.75);
  EXPECT_DOUBLE_EQ(d.prob(1), 0.0);
}

TEST(Distribution, Validation) {
  EXPECT_THROW(Distribution(2, {{0, -0.5}}), std::invalid_argument);
  EXPECT_THROW(Distribution(2, {{4, 1.0}}), std::invalid_argument);
  EXPECT_THROW(Distribution(2, {}), std::invalid_argument);
  EXPECT_THROW(Distribution(-1, {{0, 1.0}}), std::invalid_argument);
}

TEST(Distribution, MostLikely) {
  const Distribution d(3, {{1, 0.2}, {5, 0.5}, {7, 0.3}});
  EXPECT_EQ(d.most_likely(), 5u);
}

TEST(Distribution, DropsZeroEntries) {
  const Distribution d(2, {{0, 1.0}, {1, 0.0}});
  EXPECT_EQ(d.probs().size(), 1u);
}

TEST(Counts, AddAndTotal) {
  Counts c(2, {});
  c.add(0, 10);
  c.add(3, 5);
  c.add(3);
  EXPECT_EQ(c.total(), 16);
  EXPECT_EQ(c.count(3), 6);
  EXPECT_EQ(c.count(1), 0);
  EXPECT_THROW(c.add(4), std::invalid_argument);
  EXPECT_THROW(c.add(0, -1), std::invalid_argument);
}

TEST(Counts, SampleMatchesDistribution) {
  const Distribution d(2, {{0, 0.7}, {3, 0.3}});
  Rng rng(17);
  const Counts c = sample_counts(d, 20000, rng);
  EXPECT_EQ(c.total(), 20000);
  EXPECT_NEAR(static_cast<double>(c.count(0)) / c.total(), 0.7, 0.02);
  EXPECT_EQ(c.count(1), 0);
  EXPECT_EQ(c.count(2), 0);
}

TEST(Counts, SampleDeterministicPerSeed) {
  const Distribution d(1, {{0, 0.5}, {1, 0.5}});
  Rng r1(9);
  Rng r2(9);
  EXPECT_EQ(sample_counts(d, 100, r1).data(),
            sample_counts(d, 100, r2).data());
}

TEST(Counts, CdfIndexClampsAdversarialNearOneDraw) {
  // Left-to-right accumulation of these probabilities leaves the final
  // CDF entry strictly below 1.0 (0.1 is not exactly representable), so a
  // draw in the gap [cdf.back(), 1.0) — e.g. uniform() returning a value
  // near 1.0 — falls past every bucket in the binary search and must be
  // clamped onto the last outcome instead of indexing one past the end.
  std::vector<double> cdf;
  double acc = 0.0;
  for (int i = 0; i < 10; ++i) {
    acc += 0.1;
    cdf.push_back(acc);
  }
  ASSERT_LT(cdf.back(), 1.0);  // the adversarial premise
  EXPECT_EQ(detail::cdf_index(cdf, 1.0), 9u);
  EXPECT_EQ(detail::cdf_index(cdf, std::nextafter(cdf.back(), 2.0)), 9u);
  EXPECT_EQ(detail::cdf_index(cdf, cdf.back()), 9u);  // upper_bound is strict
  // Interior draws are untouched by the clamp.
  EXPECT_EQ(detail::cdf_index(cdf, 0.0), 0u);
  EXPECT_EQ(detail::cdf_index(cdf, 0.05), 0u);
  EXPECT_EQ(detail::cdf_index(cdf, 0.15), 1u);
  EXPECT_EQ(detail::cdf_index(cdf, std::nextafter(cdf.back(), 0.0)), 9u);
  // Single-bucket CDF: every draw, including past-the-end, lands on it.
  const std::vector<double> one{1.0 - 1e-16};
  EXPECT_EQ(detail::cdf_index(one, 1.0), 0u);
}

TEST(Counts, SampleConservesShotsOnLopsidedDistribution) {
  // End-to-end regression: a many-outcome distribution whose prefix sums
  // accumulate rounding error must still conserve shots and only emit
  // in-support outcomes.
  std::vector<Distribution::Entry> entries;
  for (std::uint64_t o = 0; o < 10; ++o) entries.push_back({o, 0.1});
  const Distribution d(4, std::move(entries));
  Rng rng(123);
  const Counts c = sample_counts(d, 50000, rng);
  EXPECT_EQ(c.total(), 50000);
  for (const auto& [outcome, n] : c.data()) {
    EXPECT_LT(outcome, 10u);
    EXPECT_GT(n, 0);
  }
}

/// A distribution of 1-64 lopsided weights, including tiny ones, over
/// sparse 8-bit outcomes.
Distribution lopsided_distribution(Rng& gen) {
  const std::size_t outcomes = 1 + gen.index(64);
  std::vector<Distribution::Entry> entries;
  for (std::size_t o = 0; o < outcomes; ++o) {
    const double w = gen.bernoulli(0.2) ? gen.uniform(1e-9, 1e-6)
                                        : gen.uniform(0.0, 1.0) + 1e-12;
    entries.push_back({3 * o + gen.index(3), w});
  }
  return Distribution(8, std::move(entries));
}

/// sample_counts on `fast` must give exactly the counts a per-shot
/// Rng::discrete over the same probabilities draws from a copy of it, and
/// leave both at the same point of the stream (one draw per shot).
void expect_matches_per_shot_reference(const Distribution& d, int shots,
                                       Rng fast, const std::string& what) {
  std::vector<double> weights;
  for (const auto& [outcome, p] : d.probs()) weights.push_back(p);
  Rng slow = fast;
  const Counts got = sample_counts(d, shots, fast);
  std::vector<int> hits(weights.size(), 0);
  for (int s = 0; s < shots; ++s) ++hits[slow.discrete(weights)];
  std::vector<Counts::Entry> want;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    if (hits[i] > 0) want.push_back({d.probs()[i].first, hits[i]});
  }
  EXPECT_EQ(got.data(), want) << what << ", " << weights.size()
                              << " outcomes, " << shots << " shots";
  EXPECT_EQ(fast.next_u64(), slow.next_u64()) << what;
}

TEST(Counts, SampleMatchesPerShotDiscreteReference) {
  // sample_counts (block draws + guide-table search) must give exactly the
  // counts a per-shot Rng::discrete draws from the same stream, for
  // supports of 1-64 outcomes and 1-4096 shots.
  Rng gen(2024);
  for (int trial = 0; trial < 60; ++trial) {
    const Distribution d = lopsided_distribution(gen);
    const int shots = trial == 0 ? 1 : 1 + static_cast<int>(gen.index(4096));
    expect_matches_per_shot_reference(
        d, shots, Rng(700 + static_cast<std::uint64_t>(trial)),
        "trial " + std::to_string(trial));
  }
}

TEST(Counts, SampleMatchesPerShotReferenceAcrossStateBlocks) {
  // Shot counts on either side of the engine's 312-word state block and
  // its multiples, each from a fresh stream and from streams that already
  // used part of their current block (so the first chunk of draws ends
  // mid-block and later chunks straddle a twist).
  Rng gen(4051);
  for (const int shots : {1, 311, 312, 313, 624, 625, 1024, 4096}) {
    for (const int used : {0, 1, 100, 311, 312, 313}) {
      const Distribution d = lopsided_distribution(gen);
      Rng rng(9000 + static_cast<std::uint64_t>(shots));
      for (int i = 0; i < used; ++i) (void)rng.next_u64();
      expect_matches_per_shot_reference(
          d, shots, rng, std::to_string(used) + " draws used");
    }
  }
}

TEST(Counts, CdfIndexIsFirstEntryAboveDraw) {
  // Every size 1-17 with repeated entries: the first cdf[i] > r, clamped
  // to the last bucket — std::upper_bound's answer.
  for (std::size_t n = 1; n <= 17; ++n) {
    std::vector<double> cdf;
    for (std::size_t i = 0; i < n; ++i) cdf.push_back(0.5 * ((i + 1) / 2));
    for (double r = -0.25; r <= cdf.back() + 0.5; r += 0.25) {
      const auto ub = std::upper_bound(cdf.begin(), cdf.end(), r);
      const std::size_t want =
          std::min<std::size_t>(static_cast<std::size_t>(ub - cdf.begin()),
                                n - 1);
      EXPECT_EQ(detail::cdf_index(cdf, r), want) << "n=" << n << " r=" << r;
    }
  }
}

TEST(Counts, GuideTableMatchesCdfIndexAtEveryBucketBoundary) {
  // Draws exactly at, and one ULP either side of, every bucket boundary
  // and every CDF entry — where float rounding can put a draw in a bucket
  // whose start lies past its answer — must land where cdf_index puts
  // them. Lopsided, flat (zero-weight) and boundary-aligned CDFs.
  Rng gen(4711);
  for (int trial = 0; trial < 120; ++trial) {
    const std::size_t n = 1 + gen.index(80);
    std::vector<double> cdf;
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double w = 1.0 / static_cast<double>(n);  // entries on boundaries
      if (trial % 3 == 1) {
        w = gen.bernoulli(0.2) ? gen.uniform(1e-9, 1e-6) : gen.uniform();
      } else if (trial % 3 == 2) {
        w = gen.bernoulli(0.3) ? 0.0 : gen.uniform(0.0, 1.0) + 1e-12;
      }
      acc += w;
      cdf.push_back(acc);
    }
    if (cdf.back() <= 0.0) continue;
    const detail::GuideTable guide(cdf);
    std::vector<double> draws{0.0, cdf.back(), 1.0, 2.0 * cdf.back()};
    for (std::size_t b = 0; b <= guide.buckets(); ++b) {
      draws.push_back(guide.boundary(b));
    }
    draws.insert(draws.end(), cdf.begin(), cdf.end());
    const std::size_t exact = draws.size();
    for (std::size_t k = 0; k < exact; ++k) {
      draws.push_back(std::nextafter(draws[k], -1.0));
      draws.push_back(std::nextafter(draws[k], 3.0));
    }
    for (const double r : draws) {
      EXPECT_EQ(guide.index(r), detail::cdf_index(cdf, r))
          << "trial " << trial << " n=" << n << " r=" << r;
    }
  }
}

TEST(Counts, SampleRejectsBadShots) {
  const Distribution d(1, {{0, 1.0}});
  Rng rng(1);
  EXPECT_THROW((void)sample_counts(d, 0, rng), std::invalid_argument);
}

TEST(OutcomeToString, QiskitBitOrder) {
  EXPECT_EQ(outcome_to_string(0b101, 3), "101");
  EXPECT_EQ(outcome_to_string(0b001, 3), "001");
  EXPECT_EQ(outcome_to_string(0, 4), "0000");
  EXPECT_EQ(outcome_to_string(1, 4), "0001");  // clbit 0 is rightmost
  EXPECT_EQ(outcome_to_string(8, 4), "1000");
}

}  // namespace
}  // namespace qucp
