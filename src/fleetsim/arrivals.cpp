#include "fleetsim/arrivals.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "common/rng.hpp"

namespace qucp::fleetsim {

namespace {

/// Exponential deviate with the given rate, from a uniform draw. uniform()
/// is in [0, 1), so the log argument is in (0, 1] and the result finite.
double exponential(Rng& rng, double rate) {
  return -std::log(1.0 - rng.uniform()) / rate;
}

/// True for a finite value > 0; false for NaN.
bool positive_finite(double v) { return v > 0.0 && std::isfinite(v); }

void validate(const ArrivalConfig& config) {
  if (!positive_finite(config.rate_per_s)) {
    throw std::invalid_argument(
        "generate_arrivals: rate_per_s must be finite and > 0");
  }
  if (config.class_weights.empty()) {
    throw std::invalid_argument("generate_arrivals: empty class_weights");
  }
  if (config.kind == ArrivalKind::Bursty) {
    if (!(config.burst_factor >= 1.0) ||
        !std::isfinite(config.burst_factor) ||
        !positive_finite(config.calm_mean_s) ||
        !positive_finite(config.burst_mean_s)) {
      throw std::invalid_argument(
          "generate_arrivals: bursty config needs a finite burst_factor >= 1 "
          "and finite positive phase sojourns");
    }
  }
  if (config.kind == ArrivalKind::Diurnal) {
    if (!(config.diurnal_depth >= 0.0) || !(config.diurnal_depth < 1.0) ||
        !positive_finite(config.diurnal_period_s)) {
      throw std::invalid_argument(
          "generate_arrivals: diurnal config needs depth in [0, 1) and a "
          "finite positive period");
    }
  }
}

}  // namespace

std::vector<Arrival> generate_arrivals(const ArrivalConfig& config,
                                       std::size_t count,
                                       std::uint64_t seed) {
  validate(config);
  const Rng root(seed);
  Rng times = root.derive("fleetsim/arrival-times");
  Rng classes = root.derive("fleetsim/arrival-classes");

  std::vector<Arrival> arrivals;
  arrivals.reserve(count);
  double t = 0.0;

  switch (config.kind) {
    case ArrivalKind::Poisson: {
      for (std::size_t i = 0; i < count; ++i) {
        t += exponential(times, config.rate_per_s);
        arrivals.push_back({t, 0});
      }
      break;
    }
    case ArrivalKind::Bursty: {
      // MMPP-2: within a phase arrivals are Poisson at the phase rate;
      // crossing a phase boundary discards the in-flight gap and resamples
      // at the new rate (both exponentials are memoryless, so this is the
      // exact process, not an approximation).
      bool burst = false;
      double phase_end = exponential(times, 1.0 / config.calm_mean_s);
      for (std::size_t i = 0; i < count; ++i) {
        for (;;) {
          const double rate = burst
                                  ? config.rate_per_s * config.burst_factor
                                  : config.rate_per_s;
          const double candidate = t + exponential(times, rate);
          if (candidate <= phase_end) {
            t = candidate;
            break;
          }
          t = phase_end;
          burst = !burst;
          phase_end = t + exponential(times, burst
                                                 ? 1.0 / config.burst_mean_s
                                                 : 1.0 / config.calm_mean_s);
        }
        arrivals.push_back({t, 0});
      }
      break;
    }
    case ArrivalKind::Diurnal: {
      // Thinning at the peak rate: every candidate gap costs one uniform
      // for the gap and one for the accept test, so the draw count (and
      // the stream) is a pure function of the seed.
      const double peak = config.rate_per_s * (1.0 + config.diurnal_depth);
      for (std::size_t i = 0; i < count; ++i) {
        for (;;) {
          t += exponential(times, peak);
          const double rate =
              config.rate_per_s *
              (1.0 + config.diurnal_depth *
                         std::sin(2.0 * std::numbers::pi * t /
                                  config.diurnal_period_s));
          if (times.uniform() * peak <= rate) break;
        }
        arrivals.push_back({t, 0});
      }
      break;
    }
  }

  for (Arrival& a : arrivals) {
    a.job_class = static_cast<int>(classes.discrete(config.class_weights));
  }
  return arrivals;
}

}  // namespace qucp::fleetsim
