#include "metrics/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace qucp {

namespace {

/// Calls f(pk, qk) for every outcome in the union of the two supports, in
/// ascending outcome order, with 0 for an outcome a side lacks: one merge
/// walk over the sorted probs() vectors, visiting keys in the same order
/// (and so summing in the same order) as iterating a std::set union.
template <typename F>
void for_each_union(const Distribution& p, const Distribution& q, F&& f) {
  const auto& ps = p.probs();
  const auto& qs = q.probs();
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < ps.size() || j < qs.size()) {
    if (j == qs.size() || (i < ps.size() && ps[i].first < qs[j].first)) {
      f(ps[i++].second, 0.0);
    } else if (i == ps.size() || qs[j].first < ps[i].first) {
      f(0.0, qs[j++].second);
    } else {
      f(ps[i++].second, qs[j++].second);
    }
  }
}

}  // namespace

double pst(const Distribution& dist, std::uint64_t expected) {
  return dist.prob(expected);
}

double jsd(const Distribution& p, const Distribution& q) {
  double d = 0.0;
  for_each_union(p, q, [&d](double pk, double qk) {
    const double mk = 0.5 * (pk + qk);
    if (pk > 0.0) d += 0.5 * pk * std::log2(pk / mk);
    if (qk > 0.0) d += 0.5 * qk * std::log2(qk / mk);
  });
  // Numerical guard: JSD in base 2 lies in [0, 1].
  return std::min(1.0, std::max(0.0, d));
}

double hardware_throughput(int qubits_used, int device_qubits) {
  if (device_qubits <= 0 || qubits_used < 0 || qubits_used > device_qubits) {
    throw std::invalid_argument("hardware_throughput: bad arguments");
  }
  return static_cast<double>(qubits_used) / device_qubits;
}

}  // namespace qucp
