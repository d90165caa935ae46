#pragma once
// Measurement (readout) error mitigation — the tensored calibration-matrix
// method the paper cites among QEM techniques (Bravyi et al. [2]).
//
// Each measured qubit gets a symmetric 2x2 confusion matrix M with
// M[observed][prepared] built from its calibrated assignment error; the
// mitigated distribution applies M^-1 per bit, clips small negative
// probabilities and renormalizes.

#include <vector>

#include "sim/counts.hpp"

namespace qucp {

/// Per-qubit readout confusion matrices for an ordered set of measured
/// bits.
class ReadoutMitigator {
 public:
  /// Build from known calibration: symmetric flip probability per qubit.
  /// `flip_probs[b]` is the assignment error of measured bit b.
  [[nodiscard]] static ReadoutMitigator from_flip_probs(
      std::vector<double> flip_probs);

  [[nodiscard]] int num_bits() const {
    return static_cast<int>(flip_.size());
  }

  /// Invert the confusion model on a distribution (bit b of outcomes =
  /// calibrated bit b). Negative probabilities from the inversion are
  /// clipped before renormalization.
  [[nodiscard]] Distribution mitigate(const Distribution& dist) const;

 private:
  explicit ReadoutMitigator(std::vector<double> flip);

  std::vector<double> flip_;  // P(0|1) = P(1|0) per bit
};

}  // namespace qucp
