#pragma once
// Index-less reference allocators: the oracle the production allocator is
// pinned against.
//
// reference::efs_score is Eq. 1 written out directly — the edge-distance
// test, the crosstalk multiplier and the sums in one loop — independent of
// Topology::one_hop and CandidateIndex::State, which production scores
// through.
//
// Every candidate-based partitioner allocates by walking allocation states
// through a CandidateIndex (partition/partitioners.cpp). These are the
// greedy loops it replaces, kept here: each program regenerates its
// candidates with partition_candidates and rescores every one with
// reference::efs_score (or the baseline's own ranking), with no memo at
// all. A ReferencePartitioner runs them behind the Partitioner interface
// and ignores any index it is handed, so tests can put it wherever the
// production partitioner goes (allocate, pack_fleet, solo_efs_score) and
// compare bit for bit.

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "partition/candidates.hpp"
#include "partition/efs.hpp"
#include "partition/partitioners.hpp"

namespace qucp::reference {

using Allocation = std::optional<std::vector<PartitionAssignment>>;

/// Eq. 1 for one partition: production efs_score's contract, computed
/// without the index.
inline EfsBreakdown efs_score(const Device& device,
                              std::span<const int> partition,
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
        // The overlap validation above keeps partition and allocation
        // disjoint, so no partition edge shares a qubit with an allocated
        // one.
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

/// EFS-greedy allocation (QuCP and QuMC): per program, the candidate of
/// lowest EFS under `policy`, the first one on ties.
inline Allocation efs_greedy_allocate(const Device& device,
                                      std::span<const ProgramShape> programs,
                                      const CrosstalkPolicy& policy) {
  std::vector<PartitionAssignment> result(programs.size());
  std::vector<int> allocated;
  for (std::size_t idx = 0; idx < programs.size(); ++idx) {
    const ProgramShape& shape = programs[idx];
    const auto candidates =
        partition_candidates(device, shape.num_qubits, allocated);
    const PartitionAssignment* best = nullptr;
    PartitionAssignment current;
    double best_score = 0.0;
    for (const auto& cand : candidates) {
      EfsBreakdown efs =
          reference::efs_score(device, cand, shape, allocated, policy);
      if (best == nullptr || efs.score < best_score) {
        current = {cand, std::move(efs)};
        best = &current;
        best_score = current.efs.score;
      }
    }
    if (best == nullptr) return std::nullopt;
    allocated.insert(allocated.end(), current.qubits.begin(),
                     current.qubits.end());
    result[idx] = std::move(current);
  }
  return result;
}

/// Score-based allocation for the calibration-aware, crosstalk-blind
/// baselines: per program, the candidate `score` ranks highest, the first
/// one on ties, with reference::efs_score's breakdown under no crosstalk.
template <typename ScoreFn>
Allocation score_greedy_allocate(const Device& device,
                                 std::span<const ProgramShape> programs,
                                 ScoreFn score /* higher is better */) {
  const CrosstalkPolicy no_xtalk;
  std::vector<PartitionAssignment> result(programs.size());
  std::vector<int> allocated;
  for (std::size_t idx = 0; idx < programs.size(); ++idx) {
    const ProgramShape& shape = programs[idx];
    const auto candidates =
        partition_candidates(device, shape.num_qubits, allocated);
    bool found = false;
    std::vector<int> best_cand;
    double best_score = 0.0;
    for (const auto& cand : candidates) {
      const double s = score(device, cand);
      if (!found || s > best_score) {
        best_cand = cand;
        best_score = s;
        found = true;
      }
    }
    if (!found) return std::nullopt;
    PartitionAssignment assignment;
    assignment.qubits = best_cand;
    assignment.efs =
        reference::efs_score(device, best_cand, shape, allocated, no_xtalk);
    allocated.insert(allocated.end(), best_cand.begin(), best_cand.end());
    result[idx] = std::move(assignment);
  }
  return result;
}

/// QuCloud's fidelity degree: per qubit, the sum over its in-candidate
/// edges of (1 - cx error), less its readout error.
inline double qucloud_score(const Device& dev, std::span<const int> cand) {
  double total = 0.0;
  for (int q : cand) {
    double fd = 0.0;
    for (int nb : dev.topology().neighbors(q)) {
      if (std::binary_search(cand.begin(), cand.end(), nb)) {
        fd += 1.0 - dev.cx_error(q, nb);
      }
    }
    total += fd - dev.readout_error(q);
  }
  return total;
}

/// MultiQC's region utility: log-product of edge and readout survivals.
inline double multiqc_score(const Device& dev, std::span<const int> cand) {
  double log_survival = 0.0;
  for (int e : dev.topology().induced_edges(cand)) {
    log_survival += std::log1p(-dev.calibration().cx_error[e]);
  }
  for (int q : cand) {
    log_survival += std::log1p(-dev.readout_error(q));
  }
  return log_survival;
}

/// A Partitioner that runs one of the loops above and ignores the index.
class ReferencePartitioner final : public Partitioner {
 public:
  using Loop =
      std::function<Allocation(const Device&, std::span<const ProgramShape>)>;

  ReferencePartitioner(std::string name, Loop loop)
      : name_(std::move(name)), loop_(std::move(loop)) {}

  [[nodiscard]] std::string name() const override { return name_; }

 protected:
  [[nodiscard]] Allocation do_allocate(
      const Device& device, std::span<const ProgramShape> programs,
      const CandidateIndex& /*index*/) const override {
    return loop_(device, programs);
  }

 private:
  std::string name_;
  Loop loop_;
};

/// The reference twin of the QuCP partitioner at `sigma`.
inline std::unique_ptr<Partitioner> qucp(double sigma = 4.0) {
  return std::make_unique<ReferencePartitioner>(
      "QuCP", [policy = CrosstalkPolicy(sigma)](
                  const Device& device,
                  std::span<const ProgramShape> programs) {
        return efs_greedy_allocate(device, programs, policy);
      });
}

/// The reference twin of the QuMC partitioner with `estimates`.
inline std::unique_ptr<Partitioner> qumc(CrosstalkModel estimates) {
  auto shared = std::make_shared<const CrosstalkModel>(std::move(estimates));
  return std::make_unique<ReferencePartitioner>(
      "QuMC", [shared](const Device& device,
                       std::span<const ProgramShape> programs) {
        return efs_greedy_allocate(device, programs, CrosstalkPolicy(*shared));
      });
}

/// The reference twin of the QuCloud partitioner.
inline std::unique_ptr<Partitioner> qucloud() {
  return std::make_unique<ReferencePartitioner>(
      "QuCloud",
      [](const Device& device, std::span<const ProgramShape> programs) {
        return score_greedy_allocate(device, programs, qucloud_score);
      });
}

/// The reference twin of the MultiQC partitioner.
inline std::unique_ptr<Partitioner> multiqc() {
  return std::make_unique<ReferencePartitioner>(
      "MultiQC",
      [](const Device& device, std::span<const ProgramShape> programs) {
        return score_greedy_allocate(device, programs, multiqc_score);
      });
}

/// A production partitioner and its reference twin.
struct PartitionerPair {
  std::unique_ptr<Partitioner> subject;
  std::unique_ptr<Partitioner> oracle;
};

/// make_partitioner(method, sigma, estimates) and its reference twin, for
/// the candidate-based methods (QuCP, QuMC, QuCloud, MultiQC).
inline PartitionerPair pair_of(
    Method method, double sigma = 4.0,
    const std::optional<CrosstalkModel>& estimates = std::nullopt) {
  PartitionerPair out{make_partitioner(method, sigma, estimates), nullptr};
  switch (method) {
    case Method::QuCP: out.oracle = qucp(sigma); break;
    case Method::QuMC: out.oracle = qumc(*estimates); break;
    case Method::QuCloud: out.oracle = qucloud(); break;
    case Method::MultiQC: out.oracle = multiqc(); break;
    case Method::CNA:
    case Method::Naive:
      throw std::invalid_argument("reference::pair_of: no reference twin");
  }
  return out;
}

}  // namespace qucp::reference
