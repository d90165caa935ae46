#pragma once
// Candidate partition generation (QuMC's heuristic).
//
// For a k-qubit program, grow a connected subgraph greedily from every
// available physical qubit: at each step add the frontier neighbor with the
// best quality (connectivity into the available region first, then lower
// local error). Deduplicated candidate sets are then ranked by EFS by the
// partitioners. An exhaustive enumerator (bounded) backs property tests.
//
// partition_candidates is the only candidate generator: the partitioners
// call it directly, and CandidateIndex (partition/candidate_index.hpp)
// calls it once per allocation state it memoizes. A frontier qubit's
// quality depends only on the available set, so it is computed once per
// call and shared by every growth.

#include <span>
#include <vector>

#include "hardware/device.hpp"

namespace qucp {

/// Greedy candidates: one attempt per available start qubit, deduplicated,
/// each a sorted connected qubit set of size k avoiding `allocated`.
[[nodiscard]] std::vector<std::vector<int>> partition_candidates(
    const Device& device, int k, std::span<const int> allocated);

}  // namespace qucp
