#pragma once
// Deterministic random number generation for reproducible experiments.
//
// Every stochastic component in the library (calibration synthesis, noise
// trajectories, measurement sampling, random folding, partitioner
// tie-breaking) draws from an explicitly seeded Rng. Substreams derived via
// Rng::derive(tag) decorrelate components without global state.

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace qucp {

/// The 64-bit Mersenne Twister MT19937-64 (Nishimura 2000): the standard
/// seeding, twist and tempering, so its stream equals std::mt19937_64's
/// word for word for every seed. A UniformRandomBitGenerator, so the
/// standard distributions run on it unchanged. fill_uniform() produces a
/// run of unit doubles a 312-word state block at a time, in branch-free
/// loops the compiler vectorizes.
class Mt19937_64 {
 public:
  using result_type = std::uint64_t;
  static constexpr std::size_t kStateWords = 312;

  explicit Mt19937_64(result_type seed);

  [[nodiscard]] static constexpr result_type min() { return 0; }
  [[nodiscard]] static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    if (next_ == kStateWords) twist();
    return temper(state_[next_++]);
  }

  /// out[i] = unit(next draw) * scale, in draw order: the rest of the
  /// current state block first, then whole fresh blocks.
  void fill_uniform(std::span<double> out, double scale);

  /// One 64-bit draw as a double in [0, 1): z scaled by 2^-64, clamped
  /// below 1. The conversion is exact and branch-free: each 32-bit half
  /// of z becomes a double through the 2^52 bit trick, and the one
  /// rounding of hi * 2^32 + lo is static_cast<double>(z)'s.
  [[nodiscard]] static double unit(result_type z) noexcept {
    constexpr result_type kTwo52 = 0x4330000000000000ULL;  // bits of 2^52
    const double hi = std::bit_cast<double>(kTwo52 | (z >> 32)) - 0x1p52;
    const double lo =
        std::bit_cast<double>(kTwo52 | (z & 0xffffffffULL)) - 0x1p52;
    return std::min((hi * 0x1p32 + lo) * 0x1p-64, 0x1.fffffffffffffp-1);
  }

 private:
  static constexpr result_type temper(result_type z) noexcept {
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    return z ^ (z >> 43);
  }

  /// Regenerates the whole state block and rewinds next_.
  void twist() noexcept;

  std::array<result_type, kStateWords> state_;
  std::size_t next_ = kStateWords;
};

/// Deterministic pseudo-random generator with named substream derivation.
///
/// Draws from the in-repo Mt19937_64 seeded through SplitMix64, so that
/// nearby seeds produce uncorrelated streams; every draw equals what
/// std::mt19937_64 with the same seed would give. Copyable; copies
/// continue the same sequence independently from the point of copy.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(split_mix64(seed)), seed_(seed) {}

  /// Derive an independent substream from this generator's seed and a tag.
  /// Deriving is a pure function of (seed, tag): it does not advance *this.
  [[nodiscard]] Rng derive(std::string_view tag) const;

  /// Uniform double in [0, 1): one 64-bit draw scaled by 2^-64, clamped
  /// below 1. Exactly what libstdc++'s generate_canonical<double, 53>
  /// (and so std::uniform_real_distribution<double>(0, 1)) computes for
  /// mt19937_64 — one multiply instead of a division per draw.
  [[nodiscard]] double uniform() { return Mt19937_64::unit(engine_()); }

  /// out[i] = uniform() * scale for each i in order, bit for bit, at a
  /// fraction of the per-draw cost: the bulk path of the shot sampler.
  void fill_uniform(std::span<double> out, double scale) {
    engine_.fill_uniform(out, scale);
  }

  /// Uniform double in [lo, hi). Requires lo <= hi.
  [[nodiscard]] double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  [[nodiscard]] std::size_t index(std::size_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  [[nodiscard]] std::int64_t integer(std::int64_t lo, std::int64_t hi);

  /// Normal deviate with the given mean and standard deviation.
  [[nodiscard]] double normal(double mean, double stddev);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  [[nodiscard]] bool bernoulli(double p);

  /// Sample an index from a discrete distribution given finite,
  /// non-negative weights with a positive finite sum; throws
  /// std::invalid_argument otherwise.
  [[nodiscard]] std::size_t discrete(std::span<const double> weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[index(i)]);
    }
  }

  /// Pick a uniformly random element. Requires non-empty span.
  template <typename T>
  [[nodiscard]] const T& choice(std::span<const T> items) {
    if (items.empty()) throw std::invalid_argument("Rng::choice: empty span");
    return items[index(items.size())];
  }

  [[nodiscard]] std::uint64_t seed() const { return seed_; }

  /// Raw 64-bit draw (exposed for hashing-style uses in tests).
  [[nodiscard]] std::uint64_t next_u64() { return engine_(); }

 private:
  static std::uint64_t split_mix64(std::uint64_t x);

  Mt19937_64 engine_;
  std::uint64_t seed_ = 0;
};

/// FNV-1a hash of a string, used for substream derivation tags.
[[nodiscard]] std::uint64_t fnv1a(std::string_view s) noexcept;

/// FNV-1a offset basis, the seed for incremental fnv1a_mix chains.
inline constexpr std::uint64_t kFnv1aBasis = 14695981039346656037ull;

/// Fold the 8 bytes of `v` (little-endian) into an FNV-1a running hash.
/// Shared kernel of circuit_fingerprint and the service cache keys — keep
/// one definition so fingerprints stay mutually stable.
[[nodiscard]] constexpr std::uint64_t fnv1a_mix(std::uint64_t h,
                                                std::uint64_t v) noexcept {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (8 * byte)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace qucp
