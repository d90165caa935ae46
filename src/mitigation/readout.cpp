#include "mitigation/readout.hpp"

#include <stdexcept>

namespace qucp {

ReadoutMitigator::ReadoutMitigator(std::vector<double> flip)
    : flip_(std::move(flip)) {
  if (flip_.empty()) {
    throw std::invalid_argument("ReadoutMitigator: no bits");
  }
  for (const double p : flip_) {
    if (p < 0.0 || p + p >= 1.0) {
      throw std::invalid_argument(
          "ReadoutMitigator: confusion matrix not invertible");
    }
  }
}

ReadoutMitigator ReadoutMitigator::from_flip_probs(
    std::vector<double> flip_probs) {
  return ReadoutMitigator(std::move(flip_probs));
}

Distribution ReadoutMitigator::mitigate(const Distribution& dist) const {
  const int n = num_bits();
  if (dist.num_bits() < n) {
    throw std::invalid_argument("ReadoutMitigator: distribution too narrow");
  }
  const std::size_t dim = std::size_t{1} << n;
  std::vector<double> probs(dim, 0.0);
  for (const auto& [outcome, p] : dist.probs()) {
    if (outcome >> n) {
      throw std::invalid_argument(
          "ReadoutMitigator: outcome outside calibrated bits");
    }
    probs[outcome] = p;
  }
  // Apply the per-bit inverse confusion matrix (flip probability p):
  //   M = [[1-p, p], [p, 1-p]],  M^-1 = 1/det [[1-p, -p], [-p, 1-p]]
  for (int b = 0; b < n; ++b) {
    const double p = flip_[b];
    const double det = 1.0 - p - p;
    const std::size_t mask = std::size_t{1} << b;
    for (std::size_t x = 0; x < dim; ++x) {
      if (x & mask) continue;
      const double m0 = probs[x];
      const double m1 = probs[x | mask];
      probs[x] = ((1.0 - p) * m0 - p * m1) / det;
      probs[x | mask] = (-p * m0 + (1.0 - p) * m1) / det;
    }
  }
  // Clip and renormalize.
  std::vector<Distribution::Entry> out;
  double total = 0.0;
  for (std::size_t x = 0; x < dim; ++x) {
    if (probs[x] > 0.0) {
      out.emplace_back(x, probs[x]);
      total += probs[x];
    }
  }
  if (total <= 0.0) {
    throw std::runtime_error("ReadoutMitigator: mitigation emptied support");
  }
  return Distribution(dist.num_bits(), std::move(out));
}

}  // namespace qucp
