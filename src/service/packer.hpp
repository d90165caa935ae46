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
// Every batch carries the assignments its members were admitted on
// (PackedBatch::assignments): packing is the only partition allocation a
// batch gets, and the execution pipeline runs on its result.
//
// This header holds the packer's vocabulary (jobs, batches, options). The
// engine itself is pack_fleet() in service/fleet.hpp: one open batch per
// device, policy-routed preference order, cross-device spill. A one-slot
// plan never consults its routing policy, so with one FleetSlot it is the
// single-device packer described above under every RoutePolicy.
//
// Pure logic, no threads: the ExecutionService drives it under its own
// locking, and tests exercise it directly.

#include <cstdint>
#include <limits>
#include <vector>

#include "core/runtime.hpp"
#include "partition/partitioners.hpp"

namespace qucp {

struct PackJob {
  std::size_t index = 0;        ///< caller's identifier, echoed back
  ProgramShape shape;           ///< what the planner scores and places
  /// The caller's circuit key. The planner never reads it (solo EFS reads
  /// only `shape`, and the memo is keyed on that); the fleet simulator
  /// stores its job class's circuit fingerprint here.
  std::uint64_t fingerprint = 0;
  bool exclusive = false;         ///< must run alone in its batch
  /// Parameter-blind fingerprint. Unread by the planner; last field so
  /// positional aggregate initializers that fill it stay valid.
  std::uint64_t structural_fp = 0;
};

struct PackedBatch {
  std::vector<std::size_t> jobs;  ///< PackJob::index values, queue order
  /// Partition and EFS of each member (parallel to `jobs`), exported from
  /// the admission probe that admitted the batch: the plan's allocation.
  /// The service executes the batch on exactly these assignments, so the
  /// EFS the §IV-B threshold checked is the EFS each job reports.
  std::vector<PartitionAssignment> assignments;
};

struct PackOptions {
  int max_batch_size = 4;  ///< <= 0 means unbounded
  /// Max allowed (EFS in batch context) - (best solo EFS) before a
  /// co-placement is rejected. EFS measures accumulated *error*, so larger
  /// thresholds admit noisier packings. infinity() disables the check.
  double efs_threshold = std::numeric_limits<double>::infinity();
  /// Device-time model for the fleet packer's drain estimates (queue-aware
  /// routing, modeled-wait accounting). The service sets shots from its
  /// ExecOptions; queue_depth is ignored — queueing is what the estimates
  /// model. Does not influence packing decisions for time-blind policies.
  RuntimeModel runtime;
};

}  // namespace qucp
