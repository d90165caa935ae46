#pragma once
// Trace summarization: the per-policy numbers BENCH_fleetsim.json reports.
//
// Latency here is §II-A's overall runtime — waiting time + execution time
// — measured per job from its arrival to its batch's completion. The tail
// percentiles (p95/p99) are the policy-discriminating numbers: mean
// latency barely moves between sane policies while a queue-blind one
// quietly parks the tail of the distribution behind a saturated chip.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "fleetsim/simulator.hpp"

namespace qucp::fleetsim {

/// Nearest-rank percentile (q in [0, 100]) of an unsorted sample.
/// Copies and sorts internally; deterministic for identical inputs.
[[nodiscard]] double percentile(std::span<const double> sample, double q);

struct TraceSummary {
  std::size_t jobs = 0;
  double horizon_s = 0.0;     ///< last batch completion
  double mean_latency_s = 0.0;
  double p50_latency_s = 0.0;
  double p95_latency_s = 0.0;
  double p99_latency_s = 0.0;
  double max_latency_s = 0.0;
  double mean_wait_s = 0.0;   ///< arrival -> batch start
  /// Mean EFS of each job's planned assignment, as ProgramReport::efs
  /// reports it: the fidelity proxy (lower is better).
  double mean_efs = 0.0;
  std::vector<double> utilization;       ///< busy_s / horizon per device
  std::vector<std::uint64_t> routed;     ///< jobs per device
  std::vector<std::uint64_t> batches;    ///< batches per device
  std::uint64_t trace_hash = 0;          ///< SimTrace::hash()
};

/// Summarize a finished trace.
[[nodiscard]] TraceSummary summarize(const SimTrace& trace);

}  // namespace qucp::fleetsim
