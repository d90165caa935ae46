#pragma once
// Jobs: the unit of work the ExecutionService queues, packs and runs.
//
// submit() returns a JobHandle — a cheap, copyable reference to shared job
// state. Handles expose non-blocking status() plus blocking wait()/result()
// in the style of std::future, except that result() can be read any number
// of times and status() can be polled while the job is still queued or
// running.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "core/parallel.hpp"

namespace qucp {

enum class JobStatus {
  Queued,   ///< submitted, waiting to be packed into a batch
  Running,  ///< its batch is on a worker thread
  Done,     ///< result available
  Failed,   ///< terminal error; JobHandle::error() has the message
};

/// Batch-level context attached to every job result, so callers can
/// reconstruct per-batch figures (speedup, throughput) from job handles.
struct BatchStats {
  /// Service-wide batch sequence number; unique across the whole fleet
  /// (interleaved per-backend ordinals), and for a single-backend service
  /// the plain dispatch order it always was.
  std::uint64_t batch_index = 0;
  /// Registry id of the backend this batch executed on (0 on a
  /// single-backend service) and its device name.
  int backend_id = 0;
  std::string backend_device;
  std::size_t batch_size = 0;     ///< co-scheduled jobs, this one included
  double makespan_ns = 0.0;
  double throughput = 0.0;        ///< device-qubit utilization of the batch
  int crosstalk_events = 0;
  /// Modeled speedup of the batch vs one serial job per program
  /// (core/runtime.hpp).
  double runtime_reduction = 1.0;
};

struct JobResult {
  ProgramReport report;  ///< per-program outcome, as run_parallel() reports
  BatchStats batch;      ///< the batch this job was co-scheduled into
};

struct JobOptions {
  /// Overrides the circuit's name in reports (handy when submitting many
  /// copies of one circuit). Also a determinism key: the service orders
  /// canonically by (circuit fingerprint, name), so give concurrent
  /// submissions of identical circuits distinct names to make each
  /// handle's result reproducible run to run.
  std::string name;
  /// Run this job alone in its own batch (no co-runners, no crosstalk).
  bool exclusive = false;
};

namespace detail {

/// Shared state between the service and handles. Internal to the service
/// subsystem; user code never touches it directly.
struct JobState {
  // Immutable after submit().
  std::uint64_t id = 0;  ///< submission sequence number (tie-break only)
  Circuit circuit;
  std::uint64_t fingerprint = 0;
  std::uint64_t structural_fp = 0;  ///< parameter-blind fingerprint
  std::string name;
  bool exclusive = false;
  /// Marked by submit_all() when this job arrived as part of a parameter
  /// sweep (>= 2 jobs of one structural fingerprint, with parameters, in
  /// one submitted vector). Dispatch groups marked jobs per planned batch
  /// and binds them against one transpile-cache probe per group;
  /// single-shot submit() never sets it, so that traffic is byte-for-byte
  /// untouched.
  bool sweep = false;

  // Guarded by mutex.
  mutable std::mutex mutex;
  mutable std::condition_variable cv;
  JobStatus status = JobStatus::Queued;
  std::optional<JobResult> result;
  std::string error;

  void finish(JobResult r);
  void fail(std::string message);
  void set_running();
};

}  // namespace detail

class JobHandle {
 public:
  JobHandle() = default;
  explicit JobHandle(std::shared_ptr<detail::JobState> state)
      : state_(std::move(state)) {}

  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }
  [[nodiscard]] std::uint64_t id() const { return state().id; }
  [[nodiscard]] const std::string& name() const { return state().name; }

  /// Current status; non-blocking.
  [[nodiscard]] JobStatus status() const;
  /// True once the job reached Done or Failed.
  [[nodiscard]] bool finished() const;

  /// Block until the job finishes.
  void wait() const;
  /// Block up to `timeout`; true when the job finished in time.
  [[nodiscard]] bool wait_for(std::chrono::milliseconds timeout) const;

  /// Block until finished, then return the result. Throws
  /// std::runtime_error with the failure message when the job Failed.
  [[nodiscard]] const JobResult& result() const;

  /// Failure message; empty unless status() == Failed.
  [[nodiscard]] std::string error() const;

 private:
  [[nodiscard]] const detail::JobState& state() const;

  std::shared_ptr<detail::JobState> state_;

  friend class ExecutionService;
};

}  // namespace qucp
