#pragma once
// Sharded MPSC submission intake: the lock-free front half of the
// ExecutionService queue.
//
// Every submit() used to take the one service mutex, so N producer threads
// serialized on a single cache line long before the packer or the
// simulator became the bottleneck. The intake splits the pending queue
// into S independent fixed-capacity ring buffers (shards). A producer
// thread picks its home shard once (thread ordinal mod S) and then
// publishes each job with one push protocol, the producer side of
// Vyukov's bounded queue: a ticket CAS that succeeds only when the
// ticket's cell is free, then a per-cell sequence release. Unrelated
// submitter threads never touch the same shard, and same-shard producers
// contend only on that one CAS. Nothing is claimed before there is room,
// so a producer that stops (or throws) between pushes leaves no hole.
//
// The consumer side is single-threaded by construction: only the pack
// cycle drains, under the service's pack mutex, walking shards in id
// order and each shard in ticket (FIFO) order. The service then sorts the
// drained jobs totally (canonically or by submission id) before packing,
// so the ring layout never changes a plan.
//
// Capacity is fixed at construction (rounded up to a power of two). A
// full shard makes try_push return false; the service reacts by draining
// the rings itself (backpressure dispatch) and retrying, so producers
// never block on a condition variable and never drop jobs.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace qucp::detail {

struct JobState;  // service/job.hpp
using JobPtr = std::shared_ptr<JobState>;

/// Bounded multi-producer ring buffer of queued jobs (Vyukov bounded
/// queue). Producers are lock-free (ticket CAS + cell-sequence publish);
/// the consumer side assumes a single drainer at a time — the service
/// serializes pops under its pack mutex.
class SubmitRing {
 public:
  /// `capacity` is rounded up to a power of two, minimum 2.
  explicit SubmitRing(std::size_t capacity);

  SubmitRing(const SubmitRing&) = delete;
  SubmitRing& operator=(const SubmitRing&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Publish one job. The ticket is claimed only once its cell is free,
  /// so a false return (ring full) leaves both the ring and the job
  /// untouched.
  [[nodiscard]] bool try_push(const JobPtr& job);

  /// Pop the oldest job in ticket order. False when empty, or when the
  /// head ticket was claimed by a producer that has not released its cell
  /// yet (the job stays queued for the next drain — nothing is ever lost
  /// or reordered). Single consumer at a time.
  [[nodiscard]] bool try_pop(JobPtr& out);

 private:
  struct Cell {
    std::atomic<std::uint64_t> seq{0};
    JobPtr value;
  };

  std::size_t capacity_ = 0;
  std::uint64_t mask_ = 0;
  std::vector<Cell> cells_;
  alignas(64) std::atomic<std::uint64_t> enqueue_pos_{0};
  alignas(64) std::atomic<std::uint64_t> dequeue_pos_{0};
};

/// The service-facing intake: S independent SubmitRings plus the
/// thread-to-shard mapping. Producers push one job at a time to their
/// home shard (stable per thread for FIFO-per-producer ordering); the pack
/// cycle drains all shards in shard-then-ticket order.
class ShardedIntake {
 public:
  ShardedIntake(std::size_t num_shards, std::size_t shard_capacity);

  /// Stable home shard of the calling thread: thread ordinal (order of
  /// first intake use, process-wide) mod num_shards. Keeps one submitter
  /// alone on its shard for up to S concurrent producers.
  [[nodiscard]] std::size_t home_shard() const noexcept;

  [[nodiscard]] bool try_push(const JobPtr& job, std::size_t shard) {
    return shards_[shard]->try_push(job);
  }

  /// Drain every shard into `out` (appended), shard 0..S-1, each in FIFO
  /// ticket order. Returns the number of jobs drained. Single consumer at
  /// a time — the service calls this under its pack mutex.
  std::size_t drain(std::vector<JobPtr>& out);

 private:
  std::vector<std::unique_ptr<SubmitRing>> shards_;
};

}  // namespace qucp::detail
