#include "partition/efs.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace qucp {

CrosstalkPolicy::CrosstalkPolicy(double sigma) : sigma_(sigma) {
  if (sigma < 1.0) {
    throw std::invalid_argument("CrosstalkPolicy: sigma must be >= 1");
  }
}

EfsBreakdown efs_score(const Device& device, std::span<const int> partition,
                       const ProgramShape& shape,
                       std::span<const int> allocated,
                       const CrosstalkPolicy& policy) {
  const Topology& topo = device.topology();
  const Calibration& cal = device.calibration();
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

  EfsBreakdown out;
  // Avg2q(cross): average CX error over partition-internal edges, with
  // q_crosstalk edges (one-hop from an allocated edge) inflated.
  const std::vector<int> part_edges = topo.induced_edges(partition);
  const std::vector<int> alloc_edges = topo.induced_edges(allocated);
  if (!part_edges.empty()) {
    double total = 0.0;
    for (int e : part_edges) {
      double mult = 1.0;
      bool flagged = false;
      const Edge& ee = topo.edges()[e];
      for (int f : alloc_edges) {
        const Edge& fe = topo.edges()[f];
        // Unreachable shared-qubit case: the overlap validation above
        // guarantees partition and allocation are disjoint qubit sets, so
        // a partition-internal edge can never share an endpoint with an
        // allocated edge (tests/test_efs.cpp pins the invariant).
        assert(!ee.shares_qubit(fe));
        const int d = std::min(
            {topo.distance(ee.a, fe.a), topo.distance(ee.a, fe.b),
             topo.distance(ee.b, fe.a), topo.distance(ee.b, fe.b)});
        if (d == 1) {
          mult = std::max(mult, policy.multiplier(e, f));
          flagged = true;
        }
      }
      if (flagged) out.crosstalk_edges.push_back(e);
      total += std::min(1.0, cal.cx_error[e] * mult);
    }
    out.avg_2q = total / static_cast<double>(part_edges.size());
  }

  double q1_total = 0.0;
  for (int q : partition) {
    q1_total += cal.q1_error[q];
    out.readout_sum += cal.readout_error[q];
  }
  out.avg_1q = q1_total / static_cast<double>(partition.size());

  out.score = out.avg_2q * shape.num_2q + out.avg_1q * shape.num_1q +
              out.readout_sum;
  return out;
}

}  // namespace qucp
