#pragma once
// Measurement outcome containers.
//
// Counts maps classical-bit outcomes (packed little-endian: clbit 0 is bit
// 0) to shot counts. Distribution is its normalized sibling and the common
// currency of the fidelity metrics (PST, JSD).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace qucp {

class Rng;

/// Normalized probability distribution over packed clbit outcomes.
///
/// Stored as a flat (outcome, probability) vector sorted by outcome — one
/// allocation instead of a tree node per outcome, which keeps the
/// simulator's result-assembly hot path cheap. Iteration with structured
/// bindings works exactly as it did with the former std::map storage.
class Distribution {
 public:
  using Entry = std::pair<std::uint64_t, double>;

  Distribution() = default;
  /// Construct from (outcome, probability) entries, in any order and
  /// possibly with repeated outcomes (summed); normalizes; drops zeros.
  Distribution(int num_bits, std::vector<Entry> probs);

  [[nodiscard]] int num_bits() const noexcept { return num_bits_; }
  /// Entries sorted by outcome, normalized, zero-free.
  [[nodiscard]] const std::vector<Entry>& probs() const noexcept {
    return probs_;
  }
  [[nodiscard]] double prob(std::uint64_t outcome) const;
  [[nodiscard]] bool empty() const noexcept { return probs_.empty(); }

  /// Outcome with highest probability; throws when empty.
  [[nodiscard]] std::uint64_t most_likely() const;

 private:
  int num_bits_ = 0;
  std::vector<Entry> probs_;
};

/// Raw shot counts.
///
/// Stored as a flat (outcome, count) vector sorted by outcome — the same
/// representation Distribution uses, so result assembly allocates one
/// buffer instead of a tree node per outcome. Iteration order (ascending
/// outcome) and therefore serialization are identical to the former
/// std::map storage, and structured-binding loops work unchanged.
class Counts {
 public:
  using Entry = std::pair<std::uint64_t, int>;

  Counts() = default;
  /// Construct from (outcome, count) entries, in any order and possibly
  /// with repeated outcomes (summed).
  Counts(int num_bits, std::vector<Entry> counts);

  [[nodiscard]] int num_bits() const noexcept { return num_bits_; }
  /// Entries sorted by outcome.
  [[nodiscard]] const std::vector<Entry>& data() const noexcept {
    return counts_;
  }
  [[nodiscard]] int total() const noexcept { return total_; }
  [[nodiscard]] int count(std::uint64_t outcome) const;

  void add(std::uint64_t outcome, int n = 1);

 private:
  int num_bits_ = 0;
  std::vector<Entry> counts_;  ///< sorted by outcome, unique
  int total_ = 0;
};

/// Draw `shots` samples from a distribution (multinomial).
[[nodiscard]] Counts sample_counts(const Distribution& dist, int shots,
                                   Rng& rng);

namespace detail {

/// Bucket index of draw `r` against an inclusive prefix-sum CDF (the
/// sample_counts binary search): the first entry with cdf[i] > r, clamped
/// to the last bucket. The clamp is load-bearing: left-to-right
/// accumulation can leave cdf.back() fractionally below the true total, so
/// a uniform draw near 1.0 (scaled to that total) would otherwise index
/// one past the end. Requires a non-empty, non-decreasing cdf.
[[nodiscard]] std::size_t cdf_index(std::span<const double> cdf,
                                    double r) noexcept;

/// Chen & Asau's guide table over the same CDF: the draw range
/// [0, cdf.back()) is cut into equal buckets, and each bucket records the
/// first entry with cdf[i] > its lower boundary, so a draw starts its
/// search at most a step or two from the answer. index(r) equals
/// cdf_index(cdf, r) for every r: when float rounding maps a draw to a
/// bucket whose start already lies past its answer (cdf[start - 1] > r)
/// it falls back to cdf_index. Requires a non-empty, non-decreasing cdf
/// with cdf.back() > 0.
class GuideTable {
 public:
  static constexpr std::size_t kBucketsPerEntry = 2;

  explicit GuideTable(std::span<const double> cdf);

  [[nodiscard]] std::size_t index(double r) const noexcept {
    // Branch-free bucket and first step; the answer is almost always the
    // bucket's start or the entry after it.
    const double x = std::min(std::max(0.0, r * scale_), last_bucket_);
    std::size_t i = start_[static_cast<std::size_t>(x)];
    if (cdf_[i] > r) [[unlikely]] {
      return cdf_index(
          std::span<const double>(cdf_).subspan(1, cdf_.size() - 2), r);
    }
    i += static_cast<std::size_t>(cdf_[i + 1] <= r);
    while (cdf_[i + 1] <= r) ++i;  // the +inf sentinel stops the walk
    return std::min(i, cdf_.size() - 3);
  }

  [[nodiscard]] std::size_t buckets() const noexcept { return start_.size(); }
  /// Lower boundary of bucket `b`: the draw its start was resolved for.
  [[nodiscard]] double boundary(std::size_t b) const noexcept {
    return static_cast<double>(b) / scale_;
  }

 private:
  /// -inf, cdf..., +inf: cdf_[i] is the entry before answer i and
  /// cdf_[i + 1] the answer itself, with no bounds checks on either end.
  std::vector<double> cdf_;
  double scale_ = 0.0;        ///< buckets per unit of draw
  double last_bucket_ = 0.0;  ///< buckets() - 1
  std::vector<std::uint32_t> start_;
};

}  // namespace detail

/// Render an outcome as a bitstring, clbit (num_bits-1) first — matching
/// the usual Qiskit display convention.
[[nodiscard]] std::string outcome_to_string(std::uint64_t outcome,
                                            int num_bits);

}  // namespace qucp
