#include "sim/counts.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/rng.hpp"

namespace qucp {

Distribution::Distribution(int num_bits, std::vector<Entry> probs)
    : num_bits_(num_bits), probs_(std::move(probs)) {
  if (num_bits < 0 || num_bits > 63) {
    throw std::invalid_argument("Distribution: bad bit count");
  }
  // Sort by outcome; stable so repeated outcomes merge in input order.
  if (!std::is_sorted(probs_.begin(), probs_.end(),
                      [](const Entry& a, const Entry& b) {
                        return a.first < b.first;
                      })) {
    std::stable_sort(probs_.begin(), probs_.end(),
                     [](const Entry& a, const Entry& b) {
                       return a.first < b.first;
                     });
  }
  std::size_t unique = 0;
  for (std::size_t i = 0; i < probs_.size(); ++i) {
    if (unique > 0 && probs_[unique - 1].first == probs_[i].first) {
      probs_[unique - 1].second += probs_[i].second;
    } else {
      probs_[unique++] = probs_[i];
    }
  }
  probs_.resize(unique);
  double total = 0.0;
  for (const auto& [outcome, p] : probs_) {
    if (p < -1e-12) throw std::invalid_argument("Distribution: negative prob");
    if (outcome >> num_bits) {
      throw std::invalid_argument("Distribution: outcome exceeds bit width");
    }
    total += std::max(0.0, p);
  }
  if (total <= 0.0) throw std::invalid_argument("Distribution: empty support");
  unique = 0;
  for (const auto& [outcome, p] : probs_) {
    if (p > 1e-15) probs_[unique++] = {outcome, p / total};
  }
  probs_.resize(unique);
}

double Distribution::prob(std::uint64_t outcome) const {
  const auto it = std::lower_bound(probs_.begin(), probs_.end(), outcome,
                                   [](const Entry& e, std::uint64_t o) {
                                     return e.first < o;
                                   });
  return it == probs_.end() || it->first != outcome ? 0.0 : it->second;
}

std::uint64_t Distribution::most_likely() const {
  if (probs_.empty()) throw std::logic_error("Distribution: empty");
  std::uint64_t best = 0;
  double best_p = -1.0;
  for (const auto& [outcome, p] : probs_) {
    if (p > best_p) {
      best_p = p;
      best = outcome;
    }
  }
  return best;
}

Counts::Counts(int num_bits, std::vector<Entry> counts)
    : num_bits_(num_bits), counts_(std::move(counts)) {
  // Validate the original entries before merging duplicates: a negative
  // count must throw even when a duplicate outcome would net it out.
  for (const auto& [outcome, n] : counts_) {
    if (n < 0) throw std::invalid_argument("Counts: negative count");
    if (outcome >> num_bits) {
      throw std::invalid_argument("Counts: outcome exceeds bit width");
    }
    total_ += n;
  }
  std::sort(counts_.begin(), counts_.end(),
            [](const Entry& a, const Entry& b) { return a.first < b.first; });
  std::size_t unique = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (unique > 0 && counts_[unique - 1].first == counts_[i].first) {
      counts_[unique - 1].second += counts_[i].second;
    } else {
      counts_[unique++] = counts_[i];
    }
  }
  counts_.resize(unique);
}

int Counts::count(std::uint64_t outcome) const {
  const auto it = std::lower_bound(counts_.begin(), counts_.end(), outcome,
                                   [](const Entry& e, std::uint64_t o) {
                                     return e.first < o;
                                   });
  return it == counts_.end() || it->first != outcome ? 0 : it->second;
}

void Counts::add(std::uint64_t outcome, int n) {
  if (n < 0) throw std::invalid_argument("Counts::add: negative count");
  if (outcome >> num_bits_) {
    throw std::invalid_argument("Counts::add: outcome exceeds bit width");
  }
  // Ascending-outcome producers (sample_counts, the executor's packed-
  // outcome walk) append here in O(1); out-of-order adds pay one sorted
  // insert, matching the old map's semantics of keeping a zero-count
  // entry visible.
  const auto it = std::lower_bound(counts_.begin(), counts_.end(), outcome,
                                   [](const Entry& e, std::uint64_t o) {
                                     return e.first < o;
                                   });
  if (it != counts_.end() && it->first == outcome) {
    it->second += n;
  } else {
    counts_.insert(it, Entry{outcome, n});
  }
  total_ += n;
}

namespace detail {

std::size_t cdf_index(std::span<const double> cdf, double r) noexcept {
  // Branchless upper_bound: the window halves by a compare-derived offset
  // instead of a data-dependent branch (sampled draws mispredict about
  // half of them), keeping the first-cdf[i]-greater-than-r rule.
  std::size_t lo = 0;
  std::size_t n = cdf.size();
  while (n > 1) {
    const std::size_t half = n / 2;
    lo += static_cast<std::size_t>(cdf[lo + half - 1] <= r) * half;
    n -= half;
  }
  const std::size_t idx = lo + static_cast<std::size_t>(cdf[lo] <= r);
  // r at or past cdf.back() — a draw in the rounding gap the accumulated
  // prefix sums leave below the true total — lands in the last bucket.
  return idx == cdf.size() ? cdf.size() - 1 : idx;
}

GuideTable::GuideTable(std::span<const double> cdf)
    : scale_(static_cast<double>(kBucketsPerEntry * cdf.size()) / cdf.back()),
      last_bucket_(static_cast<double>(kBucketsPerEntry * cdf.size() - 1)),
      start_(kBucketsPerEntry * cdf.size()) {
  cdf_.reserve(cdf.size() + 2);
  cdf_.push_back(-std::numeric_limits<double>::infinity());
  cdf_.insert(cdf_.end(), cdf.begin(), cdf.end());
  cdf_.push_back(std::numeric_limits<double>::infinity());
  std::size_t i = 0;
  for (std::size_t b = 0; b < start_.size(); ++b) {
    const double lo = boundary(b);
    while (i + 1 < cdf.size() && cdf[i] <= lo) ++i;
    start_[b] = static_cast<std::uint32_t>(i);
  }
}

}  // namespace detail

Counts sample_counts(const Distribution& dist, int shots, Rng& rng) {
  if (shots <= 0) throw std::invalid_argument("sample_counts: shots <= 0");
  const std::vector<Distribution::Entry>& entries = dist.probs();
  if (entries.empty()) {
    // Matches the old per-shot rng.discrete() behavior, which threw on an
    // all-zero weight set (a default-constructed Distribution).
    throw std::invalid_argument("sample_counts: empty distribution");
  }
  // Prefix sums accumulated left to right — the identical summation and
  // strict r < cdf[i] comparison Rng::discrete performs, so the sampled
  // index stream is bit-for-bit the one a per-shot discrete() would give,
  // at a guide-table lookup instead of a linear scan per shot.
  std::vector<double> cdf;
  cdf.reserve(entries.size());
  double acc = 0.0;
  for (const auto& [outcome, p] : entries) {
    acc += p;
    cdf.push_back(acc);
  }
  const double total = acc;
  const detail::GuideTable guide(cdf);
  std::vector<int> hits(entries.size(), 0);
  // Draws come a state block at a time: fill_uniform gives exactly the
  // rng.uniform() * total a per-shot loop would, one draw per shot.
  std::array<double, Mt19937_64::kStateWords> draws{};
  for (int done = 0; done < shots;) {
    const std::size_t n = std::min<std::size_t>(
        draws.size(), static_cast<std::size_t>(shots - done));
    rng.fill_uniform(std::span<double>(draws.data(), n), total);
    for (std::size_t i = 0; i < n; ++i) ++hits[guide.index(draws[i])];
    done += static_cast<int>(n);
  }
  Counts counts(dist.num_bits(), {});
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (hits[i] > 0) counts.add(entries[i].first, hits[i]);
  }
  return counts;
}

std::string outcome_to_string(std::uint64_t outcome, int num_bits) {
  std::string s(static_cast<std::size_t>(num_bits), '0');
  for (int b = 0; b < num_bits; ++b) {
    if ((outcome >> b) & 1U) s[static_cast<std::size_t>(num_bits - 1 - b)] = '1';
  }
  return s;
}

}  // namespace qucp
