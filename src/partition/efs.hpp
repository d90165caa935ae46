#pragma once
// Estimated Fidelity Score (paper Eq. 1).
//
//   EFS = Avg2q(cross) * #2q + Avg1q * #1q + sum_{Qi in P} R_Qi
//
// EFS estimates the *error* a program accumulates on a partition (lower is
// better, despite the name). Avg2q(cross) averages CX errors over the
// partition's internal edges, where edges one hop (Topology::one_hop) from
// already-allocated edges ("q_crosstalk") have their error inflated by a
// CrosstalkPolicy (hardware/crosstalk.hpp): a flat sigma (QuCP; sigma = 1
// ignores crosstalk, as the QuCloud/MultiQC-style baselines do) or per-pair
// SRB estimates (QuMC). CandidateIndex::State::score is the one
// implementation; efs_score scores a single partition through it.

#include <compare>
#include <span>
#include <vector>

#include "hardware/device.hpp"

namespace qucp {

/// What a program needs from a partition; derived from its circuit.
struct ProgramShape {
  int num_qubits = 0;
  int num_2q = 0;  ///< two-qubit gate count
  int num_1q = 0;  ///< single-qubit gate count

  /// Ordered so a shape can key a memo of scores that read nothing else.
  auto operator<=>(const ProgramShape&) const = default;
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
/// with exactly shape.num_qubits members (std::invalid_argument otherwise;
/// std::out_of_range for an allocated qubit off the device). The 1q and
/// readout sums run in the partition's order.
[[nodiscard]] EfsBreakdown efs_score(const Device& device,
                                     std::span<const int> partition,
                                     const ProgramShape& shape,
                                     std::span<const int> allocated,
                                     const CrosstalkPolicy& policy);

}  // namespace qucp
