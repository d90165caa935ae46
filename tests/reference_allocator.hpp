#pragma once
// Index-less reference allocators: the oracle the production allocator is
// pinned against.
//
// Every candidate-based partitioner allocates by walking allocation states
// through a CandidateIndex (partition/partitioners.cpp). These are the
// greedy loops it replaces, kept here: each program regenerates its
// candidates with partition_candidates and rescores every one with
// efs_score (or the baseline's own ranking), with no memo at all. A
// ReferencePartitioner runs them behind the Partitioner interface and
// ignores any index it is handed, so tests can put it wherever the
// production partitioner goes (allocate, pack_fleet, solo_efs_score) and
// compare bit for bit.

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "partition/candidates.hpp"
#include "partition/efs.hpp"
#include "partition/partitioners.hpp"

namespace qucp::reference {

using Allocation = std::optional<std::vector<PartitionAssignment>>;

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
      EfsBreakdown efs = efs_score(device, cand, shape, allocated, policy);
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
/// one on ties, with efs_score's breakdown under no crosstalk.
template <typename ScoreFn>
Allocation score_greedy_allocate(const Device& device,
                                 std::span<const ProgramShape> programs,
                                 ScoreFn score /* higher is better */) {
  const NoCrosstalkPolicy no_xtalk;
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
        efs_score(device, best_cand, shape, allocated, no_xtalk);
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

/// The reference twin of QucpPartitioner(sigma).
inline std::unique_ptr<Partitioner> qucp(double sigma = 4.0) {
  return std::make_unique<ReferencePartitioner>(
      "QuCP", [policy = SigmaPolicy(sigma)](
                  const Device& device,
                  std::span<const ProgramShape> programs) {
        return efs_greedy_allocate(device, programs, policy);
      });
}

/// The reference twin of QumcPartitioner(estimates).
inline std::unique_ptr<Partitioner> qumc(CrosstalkModel estimates) {
  auto shared = std::make_shared<const CrosstalkModel>(std::move(estimates));
  return std::make_unique<ReferencePartitioner>(
      "QuMC", [shared](const Device& device,
                       std::span<const ProgramShape> programs) {
        return efs_greedy_allocate(device, programs, EstimatePolicy(*shared));
      });
}

/// The reference twin of QucloudPartitioner.
inline std::unique_ptr<Partitioner> qucloud() {
  return std::make_unique<ReferencePartitioner>(
      "QuCloud",
      [](const Device& device, std::span<const ProgramShape> programs) {
        return score_greedy_allocate(device, programs, qucloud_score);
      });
}

/// The reference twin of MultiqcPartitioner.
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

}  // namespace qucp::reference
