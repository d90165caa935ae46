#pragma once
// Compatibility facade: one-shot parallel circuit execution.
//
// NOTE: the primary public API now lives in service/service.hpp — an
// asynchronous job-queue ExecutionService with submit()/flush()/shutdown(),
// an online batch packer and a worker pool. run_parallel() remains for
// existing callers: it runs all its programs as one batch, synchronously,
// with the caller's seed preserved bit for bit. New code should construct
// an ExecutionService and submit jobs instead.
//
// run_parallel() takes logical circuits and a device and performs the full
// multi-programming pipeline of the paper: partition allocation (per
// method, largest-first via allocate_batch), then the service's
// run_batch_pipeline on those partitions — per-partition transpilation,
// simultaneous ALAP execution on the noisy simulator, and fidelity scoring
// (PST/JSD vs the ideal output).
//
// Methods map to the paper's comparison set:
//   QuCP    — EFS partitioning with sigma-emulated crosstalk (this paper)
//   QuMC    — EFS partitioning with SRB-measured crosstalk
//   CNA     — first-fit partitioning + gate-level crosstalk-aware mapping
//   QuCloud — fidelity-degree partitioning, crosstalk-blind
//   MultiQC — reliability partitioning, crosstalk-blind
//   Naive   — first-fit partitioning, calibration-blind

#include <optional>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "hardware/device.hpp"
#include "metrics/metrics.hpp"
#include "partition/partitioners.hpp"
#include "sim/executor.hpp"

namespace qucp {

enum class Method { QuCP, QuMC, CNA, QuCloud, MultiQC, Naive };

[[nodiscard]] std::string_view method_name(Method m) noexcept;

struct ParallelOptions {
  Method method = Method::QuCP;
  double sigma = 4.0;  ///< QuCP's crosstalk parameter (paper: sigma = 4)
  ExecOptions exec;    ///< shots, scheduling policy, noise toggles, seed
  /// SRB crosstalk estimates; required by QuMC, used by CNA when present.
  std::optional<CrosstalkModel> srb_estimates;
  /// Peephole-optimize circuits during transpilation. ZNE disables this:
  /// optimization would cancel the folded G G^dagger G sequences and undo
  /// the intended noise scaling.
  bool optimize_circuits = true;
};

struct ProgramReport {
  std::string name;
  std::vector<int> partition;      ///< physical qubits granted
  std::vector<int> final_layout;   ///< logical -> physical after routing
  double efs = 0.0;                ///< EFS in allocation context (Eq. 1)
  int swaps_added = 0;
  Distribution ideal;              ///< noiseless reference output
  Distribution noisy;              ///< exact noisy output
  Counts counts;                   ///< sampled shots
  double jsd_value = 0.0;          ///< JSD(noisy, ideal)
  double pst_value = 0.0;          ///< mass on the ideal most-likely outcome
};

struct BatchReport {
  std::vector<ProgramReport> programs;  ///< in input order
  double throughput = 0.0;
  double makespan_ns = 0.0;
  int crosstalk_events = 0;
  /// Modeled speedup of one parallel batch vs running each program as its
  /// own serial job (see core/runtime.hpp).
  double runtime_reduction = 1.0;
};

/// Execute a batch of logical programs simultaneously. Throws
/// std::runtime_error when the batch cannot be placed on the device and
/// std::invalid_argument when QuMC is requested without SRB estimates.
[[nodiscard]] BatchReport run_parallel(const Device& device,
                                       const std::vector<Circuit>& programs,
                                       const ParallelOptions& options = {});

/// The partitioner behind a method (CNA shares Naive's first-fit
/// partitioner — the paper notes CNA has no partitioning algorithm of its
/// own). QuMC requires estimates.
[[nodiscard]] std::unique_ptr<Partitioner> make_partitioner(
    Method method, double sigma,
    const std::optional<CrosstalkModel>& estimates);

}  // namespace qucp
