#include "common/rng.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>

namespace qucp {

Mt19937_64::Mt19937_64(result_type seed) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kStateWords; ++i) {
    const result_type prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::twist() noexcept {
  constexpr std::size_t kShift = 156;  // the recurrence's middle word
  constexpr result_type kUpper = ~result_type{0} << 31;
  const auto mix = [](result_type word, result_type next, result_type far) {
    const result_type y = (word & kUpper) | (next & ~kUpper);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & 0xB5026F5AA96619E9ULL);
  };
  result_type* x = state_.data();
  std::size_t k = 0;
  for (; k < kStateWords - kShift; ++k) {
    x[k] = mix(x[k], x[k + 1], x[k + kShift]);
  }
  for (; k < kStateWords - 1; ++k) {
    x[k] = mix(x[k], x[k + 1], x[k + kShift - kStateWords]);
  }
  x[k] = mix(x[k], x[0], x[kShift - 1]);
  next_ = 0;
}

void Mt19937_64::fill_uniform(std::span<double> out, double scale) {
  double* dst = out.data();
  std::size_t left = out.size();
  while (left > 0) {
    if (next_ == kStateWords) twist();
    const std::size_t take = std::min(left, kStateWords - next_);
    const result_type* src = state_.data() + next_;
    for (std::size_t i = 0; i < take; ++i) {
      dst[i] = unit(temper(src[i])) * scale;
    }
    next_ += take;
    dst += take;
    left -= take;
  }
}

std::uint64_t fnv1a(std::string_view s) noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t Rng::split_mix64(std::uint64_t x) {
  x += 0x9E3779B97f4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

Rng Rng::derive(std::string_view tag) const {
  return Rng(split_mix64(seed_ ^ fnv1a(tag)));
}

double Rng::uniform(double lo, double hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform: lo > hi");
  return lo + (hi - lo) * uniform();
}

std::size_t Rng::index(std::size_t n) {
  if (n == 0) throw std::invalid_argument("Rng::index: n == 0");
  std::uniform_int_distribution<std::size_t> dist(0, n - 1);
  return dist(engine_);
}

std::int64_t Rng::integer(std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("Rng::integer: lo > hi");
  std::uniform_int_distribution<std::int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::normal(double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

bool Rng::bernoulli(double p) {
  p = std::clamp(p, 0.0, 1.0);
  return uniform() < p;
}

std::size_t Rng::discrete(std::span<const double> weights) {
  double total = 0.0;
  for (double w : weights) {
    // Written so NaN fails too: it would poison the total and send every
    // draw to the last index.
    if (!(w >= 0.0 && std::isfinite(w))) {
      throw std::invalid_argument(
          "Rng::discrete: weight negative or not finite");
    }
    total += w;
  }
  if (!(total > 0.0 && std::isfinite(total))) {
    throw std::invalid_argument(
        "Rng::discrete: weights sum to zero or overflow");
  }
  double r = uniform() * total;
  double acc = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (r < acc) return i;
  }
  return weights.size() - 1;  // guard against floating rounding
}

}  // namespace qucp
