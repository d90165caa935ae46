#pragma once
// Qubit partitioners: QuCP (this paper), QuMC, QuCloud-style,
// MultiQC-style, and a naive first-fit baseline.
//
// All allocate connected, mutually-disjoint physical-qubit regions for a
// batch of programs. Programs are processed largest-first (qubits, then CX
// count), the order QuMC uses. QuCP and QuMC share the candidate
// generation + EFS machinery and differ only in where the crosstalk
// multiplier comes from: a flat sigma vs. SRB measurements — the paper's
// central comparison.

#include <memory>
#include <optional>
#include <string>

#include "circuit/circuit.hpp"
#include "partition/efs.hpp"

namespace qucp {

class CandidateIndex;     // partition/candidate_index.hpp

/// Derive a program's partition requirements from its circuit.
[[nodiscard]] ProgramShape shape_of(const Circuit& circuit);

struct PartitionAssignment {
  std::vector<int> qubits;  ///< sorted physical qubits
  EfsBreakdown efs;         ///< score in its allocation context
};

class Partitioner {
 public:
  virtual ~Partitioner() = default;
  [[nodiscard]] virtual std::string name() const = 0;

  /// Allocate one partition per program, in the given order (callers sort
  /// with `allocation_order` first when emulating QuMC's largest-first
  /// policy). Returns nullopt when some program cannot be placed.
  ///
  /// Every candidate-based partitioner walks allocation states through a
  /// CandidateIndex (partition/candidate_index.hpp). `index` (optional) is
  /// a persistent per-device index, built for `device`, whose memoized
  /// states let the walk skip candidate generation and crosstalk scans for
  /// any (allocated set, width) seen before, under any crosstalk policy.
  /// Without one the call walks a zero-budget index of its own, which
  /// memoizes nothing: the same code, every state built afresh. Results
  /// are the same either way (same partitions, same order, same EFS
  /// doubles), and equal to the index-less greedy loops that
  /// tests/reference_allocator.hpp keeps as the oracle.
  [[nodiscard]] std::optional<std::vector<PartitionAssignment>> allocate(
      const Device& device, std::span<const ProgramShape> programs,
      const CandidateIndex* index = nullptr) const;

 protected:
  [[nodiscard]] virtual std::optional<std::vector<PartitionAssignment>>
  do_allocate(const Device& device, std::span<const ProgramShape> programs,
              const CandidateIndex& index) const = 0;
};

/// Largest-first processing order (qubits desc, then 2q count desc, stable).
[[nodiscard]] std::vector<std::size_t> allocation_order(
    std::span<const ProgramShape> programs);

/// Partition a whole batch the QuMC way: allocate `shapes` in
/// allocation_order (largest first) and return one assignment per shape
/// in input order. nullopt when the batch cannot be placed. The fleet
/// packer's admission probe and run_parallel() both allocate through this,
/// so a batch's plan-time assignments are the ones it executes on.
/// `index` as in Partitioner::allocate.
[[nodiscard]] std::optional<std::vector<PartitionAssignment>> allocate_batch(
    const Device& device, const Partitioner& partitioner,
    std::span<const ProgramShape> shapes,
    const CandidateIndex* index = nullptr);

/// Best solo-partition EFS of one program shape on `device`: the score the
/// shape gets when it is allocated alone on an otherwise-empty chip. This
/// is the packer's §IV-B spill baseline and the fleet scheduler's
/// calibration-aware routing score (BestEfs routes a job to the device
/// where this number is lowest). nullopt when the shape cannot be placed
/// on the device at all. `index` as in Partitioner::allocate.
[[nodiscard]] std::optional<double> solo_efs_score(
    const Device& device, const Partitioner& partitioner,
    const ProgramShape& shape, const CandidateIndex* index = nullptr);

/// QuCP: EFS-greedy with flat sigma crosstalk emulation. No SRB needed.
class QucpPartitioner final : public Partitioner {
 public:
  explicit QucpPartitioner(double sigma = 4.0) : policy_(sigma) {}
  [[nodiscard]] std::string name() const override { return "QuCP"; }
  [[nodiscard]] std::optional<std::vector<PartitionAssignment>> do_allocate(
      const Device& device, std::span<const ProgramShape> programs,
      const CandidateIndex& index) const override;
  [[nodiscard]] double sigma() const noexcept { return policy_.sigma(); }

 private:
  SigmaPolicy policy_;
};

/// QuMC: EFS-greedy with measured (SRB-estimated) per-pair crosstalk.
class QumcPartitioner final : public Partitioner {
 public:
  explicit QumcPartitioner(CrosstalkModel srb_estimates)
      : estimates_(std::move(srb_estimates)), policy_(estimates_) {}
  [[nodiscard]] std::string name() const override { return "QuMC"; }
  [[nodiscard]] std::optional<std::vector<PartitionAssignment>> do_allocate(
      const Device& device, std::span<const ProgramShape> programs,
      const CandidateIndex& index) const override;

 private:
  CrosstalkModel estimates_;
  EstimatePolicy policy_;
};

/// QuCloud-style: ranks candidates by qubit "fidelity degree"
/// (connectivity weighted by local gate fidelity) without crosstalk terms.
class QucloudPartitioner final : public Partitioner {
 public:
  [[nodiscard]] std::string name() const override { return "QuCloud"; }
  [[nodiscard]] std::optional<std::vector<PartitionAssignment>> do_allocate(
      const Device& device, std::span<const ProgramShape> programs,
      const CandidateIndex& index) const override;
};

/// MultiQC-style (Das et al.): picks the most reliable region by a
/// success-probability utility (product of gate/readout survivals).
class MultiqcPartitioner final : public Partitioner {
 public:
  [[nodiscard]] std::string name() const override { return "MultiQC"; }
  [[nodiscard]] std::optional<std::vector<PartitionAssignment>> do_allocate(
      const Device& device, std::span<const ProgramShape> programs,
      const CandidateIndex& index) const override;
};

/// First-fit connected region by BFS from the lowest free index,
/// calibration-blind. Ablation baseline.
class NaivePartitioner final : public Partitioner {
 public:
  [[nodiscard]] std::string name() const override { return "Naive"; }
  [[nodiscard]] std::optional<std::vector<PartitionAssignment>> do_allocate(
      const Device& device, std::span<const ProgramShape> programs,
      const CandidateIndex& index) const override;
};

}  // namespace qucp
