#pragma once
// Qubit partitioners for the paper's comparison set (Method), all served by
// one class, MethodPartitioner. Each allocates connected, mutually-disjoint
// physical-qubit regions for a batch of programs, processed largest-first
// (qubits, then CX count), the order QuMC uses. QuCP and QuMC share the
// candidate generation + EFS machinery and differ only in where the
// crosstalk multiplier comes from: a flat sigma vs. SRB measurements — the
// paper's central comparison.

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "circuit/circuit.hpp"
#include "partition/efs.hpp"

namespace qucp {

class CandidateIndex;     // partition/candidate_index.hpp

/// The paper's comparison set of multi-programming methods:
///   QuCP    — EFS partitioning with sigma-emulated crosstalk (this paper)
///   QuMC    — EFS partitioning with SRB-measured crosstalk
///   CNA     — first-fit partitioning + gate-level crosstalk-aware mapping
///   QuCloud — fidelity-degree partitioning, crosstalk-blind
///   MultiQC — reliability partitioning, crosstalk-blind
///   Naive   — first-fit partitioning, calibration-blind
enum class Method { QuCP, QuMC, CNA, QuCloud, MultiQC, Naive };

[[nodiscard]] std::string_view method_name(Method m) noexcept;

/// Derive a program's partition requirements from its circuit.
[[nodiscard]] ProgramShape shape_of(const Circuit& circuit);

struct PartitionAssignment {
  std::vector<int> qubits;  ///< sorted physical qubits
  EfsBreakdown efs;         ///< score in its allocation context
};

/// The allocator interface: MethodPartitioner in production, the index-less
/// oracle of tests/reference_allocator.hpp in tests.
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

/// The partitioner behind every method. QuCP and QuMC take each program's
/// lowest-EFS candidate; QuCloud ranks candidates by qubit "fidelity
/// degree" and MultiQC (Das et al.) by gate/readout survival; Naive and CNA
/// (which has no partitioning algorithm of its own) take the first-fit BFS
/// region from the lowest free qubit. The crosstalk policy is built per
/// call, so a copy does not depend on its original.
class MethodPartitioner final : public Partitioner {
 public:
  /// `sigma` is read by QuCP only and must be >= 1 there; `estimates` are
  /// read (and kept) by QuMC only, which throws std::invalid_argument
  /// without them.
  MethodPartitioner(Method method, double sigma,
                    const std::optional<CrosstalkModel>& estimates);
  [[nodiscard]] std::string name() const override;

 protected:
  [[nodiscard]] std::optional<std::vector<PartitionAssignment>> do_allocate(
      const Device& device, std::span<const ProgramShape> programs,
      const CandidateIndex& index) const override;

 private:
  Method method_;
  double sigma_;
  std::optional<CrosstalkModel> estimates_;  ///< QuMC's only
};

/// The partitioner behind a method, as MethodPartitioner builds it.
[[nodiscard]] std::unique_ptr<Partitioner> make_partitioner(
    Method method, double sigma,
    const std::optional<CrosstalkModel>& estimates);

}  // namespace qucp
