#pragma once
// Online batch packer: groups queued jobs into parallel batches.
//
// Greedy policy in queue order: a job joins the current batch when (a) the
// partitioner can still place every member of the grown batch on the
// device, and (b) the paper's fidelity-threshold check passes — the job's
// estimated EFS in batch context may exceed its best solo EFS by at most
// `efs_threshold` (§IV-B: tau = 0 forces independent execution, larger tau
// trades fidelity for throughput). A job that fails either check spills to
// the next batch; a job that cannot be placed even alone is reported
// unplaceable. The scan never assumes the queue length is a multiple of
// the batch size — partial tail batches are first-class (the bug the old
// examples/cloud_queue.cpp slicing had).
//
// pack_batches() is the single-device entry point; the general N-device
// engine (one open batch per device, policy-routed preference order,
// cross-device spill) lives in service/fleet.hpp, and this function is its
// one-slot instantiation — decision-identical to the historical packer.
//
// Pure logic, no threads: the ExecutionService drives it under its own
// locking, and tests exercise it directly.

#include <cstdint>
#include <limits>
#include <map>
#include <span>
#include <vector>

#include "core/runtime.hpp"
#include "partition/partitioners.hpp"

namespace qucp {

struct PackJob {
  std::size_t index = 0;        ///< caller's identifier, echoed back
  ProgramShape shape;
  std::uint64_t fingerprint = 0;  ///< solo-EFS cache key
  bool exclusive = false;         ///< must run alone in its batch
  /// Structural fingerprint (parameter-blind). When nonzero, the planner
  /// keys its solo-EFS cache on this instead of `fingerprint`, since solo
  /// EFS depends only on shape and placement — a parameter sweep over one
  /// ansatz then scores once, not once per binding. Last field so
  /// positional aggregate initializers predating it stay valid.
  std::uint64_t structural_fp = 0;
};

struct PackedBatch {
  std::vector<std::size_t> jobs;  ///< PackJob::index values, queue order
  /// Partition each member was admitted on (parallel to `jobs`), exported
  /// from the admission probe when every member went through it —
  /// whichever path (incremental grow-one or from-scratch re-allocation)
  /// served each probe; both yield the same assignments. Empty when
  /// unavailable (single_batch packing; batches holding an exclusive job,
  /// which bypasses the probe). The service uses these only to key its
  /// sweep prebinds, and run_batch_pipeline re-verifies them against its
  /// own allocation before trusting a prebound transpile.
  std::vector<std::vector<int>> partitions;
};

struct PackResult {
  std::vector<PackedBatch> batches;      ///< dispatch order
  std::vector<std::size_t> unplaceable;  ///< jobs that do not fit even alone
  /// Co-placement rejections: the allocation failed or the EFS threshold
  /// tripped with co-runners present, deferring the job to a later batch.
  /// Waiting behind a batch that is simply full is not counted.
  std::uint64_t spill_events = 0;
};

struct PackOptions {
  int max_batch_size = 4;  ///< <= 0 means unbounded
  /// Max allowed (EFS in batch context) - (best solo EFS) before a
  /// co-placement is rejected. EFS measures accumulated *error*, so larger
  /// thresholds admit noisier packings. infinity() disables the check.
  double efs_threshold = std::numeric_limits<double>::infinity();
  /// Pack everything into exactly one batch with no feasibility checks;
  /// the execution pipeline then reports failure for the whole batch when
  /// it does not fit. This is run_parallel()'s historical contract.
  bool single_batch = false;
  /// Device-time model for the fleet packer's drain estimates (queue-aware
  /// routing, modeled-wait accounting). The service sets shots from its
  /// ExecOptions; queue_depth is ignored — queueing is what the estimates
  /// model. Does not influence packing decisions for time-blind policies.
  RuntimeModel runtime;
};

class CandidateIndex;  // partition/candidate_index.hpp

/// Pack `jobs` (already in the desired queue order) into batches.
/// `solo_efs_cache` memoizes best-solo-partition EFS per circuit
/// fingerprint across calls; pass a service-owned map. `index` (optional,
/// must match `device`) reuses the backend's persistent candidate cache
/// for the tentative allocations and solo-EFS probes; packing decisions
/// are identical with and without it. Not thread-safe — callers serialize
/// packing.
[[nodiscard]] PackResult pack_batches(
    const Device& device, std::span<const PackJob> jobs,
    const Partitioner& partitioner, const PackOptions& options,
    std::map<std::uint64_t, double>& solo_efs_cache,
    const CandidateIndex* index = nullptr);

}  // namespace qucp
