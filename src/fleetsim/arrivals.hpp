#pragma once
// Arrival processes for the fleet simulator.
//
// "Millions of users" is a statement about the *arrival stream*, not the
// chips, so the policy-evaluation harness needs traffic knobs that cover
// the shapes real queues see:
//
//   Poisson — memoryless baseline: i.i.d. exponential inter-arrival gaps
//             at a fixed rate. The classic open-queue model behind §II-A's
//             waiting-time term.
//   Bursty  — two-phase Markov-modulated Poisson process (MMPP-2): the
//             stream alternates between a calm phase at the base rate and
//             a burst phase at `burst_factor` times the base rate, with
//             exponentially distributed phase sojourns. Queue-aware
//             routing earns its keep exactly when bursts pile work onto
//             whichever chip a static policy favors.
//   Diurnal — non-homogeneous Poisson with a sinusoidal day/night rate
//             profile, sampled by thinning (Lewis & Shedler): candidates
//             are drawn at the peak rate and accepted with probability
//             rate(t)/peak, which keeps the stream exact and replayable.
//
// Generation is a pure function of (config, count, seed): the time stream
// and the job-class stream draw from independently derived Rng substreams,
// so the same seed reproduces the trace bit-for-bit regardless of how the
// simulation downstream is threaded or replayed (the determinism contract
// tests/test_fleetsim.cpp pins).

#include <cstddef>
#include <cstdint>
#include <vector>

namespace qucp::fleetsim {

enum class ArrivalKind { Poisson, Bursty, Diurnal };

struct ArrivalConfig {
  ArrivalKind kind = ArrivalKind::Poisson;
  /// Base arrival rate in jobs per second (the calm-phase rate for Bursty,
  /// the mean rate for Diurnal). Must be > 0.
  double rate_per_s = 1.0;

  // Bursty (MMPP-2) knobs.
  double burst_factor = 8.0;   ///< burst-phase rate multiplier (>= 1)
  double calm_mean_s = 240.0;  ///< mean sojourn in the calm phase
  double burst_mean_s = 30.0;  ///< mean sojourn in the burst phase

  // Diurnal knobs: rate(t) = rate_per_s * (1 + depth * sin(2 pi t / period)).
  double diurnal_period_s = 86400.0;
  double diurnal_depth = 0.8;  ///< in [0, 1); 0 degenerates to Poisson

  /// Job-class mixing weights; arrivals sample class ids from this
  /// discrete distribution. Must be non-empty with a positive total.
  std::vector<double> class_weights = {1.0};
};

/// One job hitting the fleet's front door.
struct Arrival {
  double time_s = 0.0;
  int job_class = 0;
};

/// Generate `count` arrivals. Times are strictly non-decreasing from 0;
/// deterministic in (config, count, seed). Throws std::invalid_argument
/// on nonsensical configs (rate <= 0, empty weights, depth outside [0,1)).
[[nodiscard]] std::vector<Arrival> generate_arrivals(
    const ArrivalConfig& config, std::size_t count, std::uint64_t seed);

}  // namespace qucp::fleetsim
