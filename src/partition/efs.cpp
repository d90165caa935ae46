#include "partition/efs.hpp"

#include <stdexcept>

#include "partition/candidate_index.hpp"

namespace qucp {

EfsBreakdown efs_score(const Device& device, std::span<const int> partition,
                       const ProgramShape& shape,
                       std::span<const int> allocated,
                       const CrosstalkPolicy& policy) {
  const Topology& topo = device.topology();
  if (static_cast<int>(partition.size()) != shape.num_qubits) {
    throw std::invalid_argument("efs_score: partition size != program size");
  }
  if (!topo.is_connected_subset(partition)) {
    throw std::invalid_argument("efs_score: partition not connected");
  }
  std::vector<char> alloc_mask(static_cast<std::size_t>(topo.num_qubits()), 0);
  for (int q : allocated) {
    if (q < 0 || q >= topo.num_qubits()) {
      throw std::out_of_range("efs_score: allocated qubit out of range");
    }
    alloc_mask[q] = 1;
  }
  for (int q : partition) {
    if (alloc_mask[q]) {
      throw std::invalid_argument("efs_score: partition overlaps allocation");
    }
  }
  if (shape.num_2q > 0 && partition.size() < 2) {
    throw std::invalid_argument("efs_score: program needs an edge");
  }

  const std::vector<int> part(partition.begin(), partition.end());
  return CandidateIndex::State(device, shape.num_qubits, allocated,
                               std::span(&part, 1))
      .score(0, shape, policy);
}

}  // namespace qucp
