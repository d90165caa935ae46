#pragma once
// Estimated Fidelity Score (paper Eq. 1) and crosstalk policies.
//
//   EFS = Avg2q(cross) * #2q + Avg1q * #1q + sum_{Qi in P} R_Qi
//
// EFS estimates the *error* a program accumulates on a partition (lower is
// better, despite the name). Avg2q(cross) averages CX errors over the
// partition's internal edges, where edges one-hop away from already-
// allocated edges ("q_crosstalk") have their error inflated by a
// CrosstalkPolicy: a flat sigma (QuCP; sigma = 1 ignores crosstalk, as the
// QuCloud/MultiQC-style baselines do) or per-pair SRB estimates (QuMC).

#include <span>
#include <vector>

#include "hardware/device.hpp"

namespace qucp {

/// What a program needs from a partition; derived from its circuit.
struct ProgramShape {
  int num_qubits = 0;
  int num_2q = 0;  ///< two-qubit gate count
  int num_1q = 0;  ///< single-qubit gate count
};

/// Crosstalk multiplier applied to a candidate edge adjacent (one-hop) to
/// an allocated edge.
class CrosstalkPolicy final {
 public:
  /// Every one-hop conflict costs a flat `sigma` (>= 1; the paper's QuCP
  /// sets 4). The default, sigma = 1, ignores crosstalk.
  explicit CrosstalkPolicy(double sigma = 1.0);
  /// Per-pair multipliers measured by SRB (or any CrosstalkModel), which
  /// must outlive the policy.
  explicit CrosstalkPolicy(const CrosstalkModel& estimates)
      : estimates_(&estimates) {}

  /// Multiplier (>= 1) for candidate edge `cand_edge` given allocated
  /// neighbor edge `alloc_edge` (device edge ids).
  [[nodiscard]] double multiplier(int cand_edge, int alloc_edge) const {
    return estimates_ != nullptr ? estimates_->gamma(cand_edge, alloc_edge)
                                 : sigma_;
  }

 private:
  double sigma_ = 1.0;
  const CrosstalkModel* estimates_ = nullptr;
};

/// EFS evaluation detail for reporting and tests.
struct EfsBreakdown {
  double avg_2q = 0.0;       ///< crosstalk-adjusted average CX error
  double avg_1q = 0.0;
  double readout_sum = 0.0;
  double score = 0.0;        ///< Eq. 1 total
  std::vector<int> crosstalk_edges;  ///< candidate edges flagged one-hop
};

/// Score a candidate partition for a program. `allocated` holds qubits
/// already granted to co-running programs (empty for the first program).
/// The partition must be a connected subset of unallocated device qubits
/// with exactly shape.num_qubits members.
[[nodiscard]] EfsBreakdown efs_score(const Device& device,
                                     std::span<const int> partition,
                                     const ProgramShape& shape,
                                     std::span<const int> allocated,
                                     const CrosstalkPolicy& policy);

}  // namespace qucp
