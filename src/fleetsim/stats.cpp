#include "fleetsim/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace qucp::fleetsim {

double percentile(std::span<const double> sample, double q) {
  if (sample.empty()) {
    throw std::invalid_argument("percentile: empty sample");
  }
  if (!(q >= 0.0) || !(q <= 100.0)) {
    throw std::invalid_argument("percentile: q outside [0, 100]");
  }
  std::vector<double> sorted(sample.begin(), sample.end());
  std::sort(sorted.begin(), sorted.end());
  if (q == 0.0) return sorted.front();
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::min(rank, sorted.size()) - 1];
}

TraceSummary summarize(const SimTrace& trace) {
  const std::size_t num_devices = trace.busy_s.size();
  TraceSummary s;
  s.jobs = trace.jobs.size();
  s.horizon_s = trace.horizon_s;
  s.trace_hash = trace.hash();
  s.routed.assign(num_devices, 0);
  s.batches = trace.batches;
  s.utilization.assign(num_devices, 0.0);
  for (std::size_t d = 0; d < num_devices; ++d) {
    s.utilization[d] =
        trace.horizon_s > 0.0 ? trace.busy_s[d] / trace.horizon_s : 0.0;
  }
  if (trace.jobs.empty()) return s;

  std::vector<double> latencies;
  latencies.reserve(trace.jobs.size());
  double wait_sum = 0.0;
  double efs_sum = 0.0;
  for (const JobRecord& r : trace.jobs) {
    latencies.push_back(r.end_s - r.arrival_s);
    wait_sum += r.start_s - r.arrival_s;
    efs_sum += r.efs;
    s.routed[static_cast<std::size_t>(r.device)] += 1;
    s.max_latency_s = std::max(s.max_latency_s, latencies.back());
  }
  double latency_sum = 0.0;
  for (double l : latencies) latency_sum += l;
  const double n = static_cast<double>(latencies.size());
  s.mean_latency_s = latency_sum / n;
  s.mean_wait_s = wait_sum / n;
  s.mean_efs = efs_sum / n;
  s.p50_latency_s = percentile(latencies, 50.0);
  s.p95_latency_s = percentile(latencies, 95.0);
  s.p99_latency_s = percentile(latencies, 99.0);
  return s;
}

}  // namespace qucp::fleetsim
