#pragma once
// Parallel-job executor: the simulated "quantum hardware".
//
// Takes pre-mapped physical programs (circuits over device qubit indices,
// mutually disjoint), schedules them against a common end time (ALAP), and
// simulates each program's partition exactly with a density matrix. The
// programs only couple through crosstalk: ground-truth gamma multipliers
// amplify the depolarizing rate of CX gates whose time intervals overlap on
// one-hop edge pairs — the physical mechanism the paper's methods react to.
//
// Noise sources, matching the paper's discussion: per-edge CX error,
// per-qubit single-qubit error, readout assignment error, idle thermal
// relaxation (T1/T2) in schedule gaps, and crosstalk. Every source is read
// from the device and always applied; a device turns one off by its
// parameters (zero error rates, infinite T1/T2, an empty crosstalk ground
// truth). A gate's idle relaxation, the gate and its depolarizing share
// one sweep over rho.
//
// Each program's exact noisy distribution is a pure function of its exact
// binding, the device, its time deltas (ALAP alignment shift, then any
// crosstalk-serialization delays), the crosstalk gamma of each of its CXs
// and the active kernel variant. With a program cache,
// execute_parallel memoizes it under those inputs (CompiledProgramCache::
// outcome, sim/fusion.hpp), so cloud traffic that resubmits a circuit into
// the same timing and crosstalk skips the density-matrix walk and only
// samples its shots: counts stay bit-identical.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "hardware/device.hpp"
#include "schedule/schedule.hpp"
#include "sim/counts.hpp"

namespace qucp {

class CompiledProgramCache;  // sim/fusion.hpp

/// A program already mapped to physical qubits. The circuit spans the whole
/// device index space but may only touch its partition's qubits; CX/CZ ops
/// must sit on coupled edges; SWAPs are lowered internally.
struct PhysicalProgram {
  Circuit circuit;
  std::string name;
};

struct ExecOptions {
  int shots = 4096;
  SchedulePolicy schedule = SchedulePolicy::ALAP;
  std::uint64_t seed = 1234;  ///< sampling seed

  /// Cap on kern::parallel_for worker threads while this run simulates
  /// (0 = inherit the ambient cap: QUCP_KERNEL_THREADS, else hardware
  /// concurrency). The ExecutionService sets hw / num_workers here so N
  /// concurrent batch workers cannot oversubscribe the machine N-fold.
  int kernel_threads = 0;

  /// Software crosstalk mitigation by instruction scheduling (Murali et
  /// al., the alternative to QuCP's avoidance): programs are placed in
  /// input order, and each is delayed as a whole, never moving an earlier
  /// one, until none of its CX gates overlaps a one-hop CX of an earlier
  /// program. No CX pair from two programs at one-hop distance then
  /// overlaps in time, so a batch sees only the crosstalk its programs
  /// would see alone. Buys that immunity with idle decoherence and a
  /// longer makespan.
  bool serialize_crosstalk = false;
};

struct ProgramOutcome {
  std::string name;
  Distribution distribution;  ///< exact noisy outcome distribution
  Counts counts;              ///< sampled shots
  /// Makespan of the program's physical circuit scheduled alone under
  /// ExecOptions::schedule, SWAP and CZ unlowered: its solo runtime, read
  /// from the cached structure (ExecutableStructure::solo_makespan_ns).
  double solo_makespan_ns = 0.0;
};

/// Calibration-derived noise constants, computed once per calibration
/// snapshot instead of once per gate application: the per-edge CX
/// depolarizing parameter at gamma = 1, the per-qubit 1q depolarizing
/// parameter, and the ground-truth crosstalk partners of every edge. A
/// CalibrationEpoch (service/backend.hpp) derives one table when it is
/// built and hands it to every execution on that epoch; crosstalk-
/// amplified CX events (gamma > 1) still derive their parameter on the
/// fly. Purely a recompute-avoidance table — depolarizing_param is
/// deterministic, so results are bit-identical with or without it.
struct DerivedNoise {
  std::vector<double> cx_depol;  ///< depolarizing_param(cx_error[e]) per edge
  std::vector<double> q1_depol;  ///< depolarizing_param(q1_error[q]) per qubit
  /// Edges with ground-truth gamma > 1 against edge e, in CSR form:
  /// xtalk_partner[xtalk_begin[e] .. xtalk_begin[e + 1]), each with its
  /// gamma at the same position of xtalk_gamma. Symmetric, like the
  /// model's keys.
  std::vector<std::uint32_t> xtalk_begin;
  std::vector<int> xtalk_partner;
  std::vector<double> xtalk_gamma;
  [[nodiscard]] static DerivedNoise from(const Device& device);
};

struct ParallelRunReport {
  std::vector<ProgramOutcome> programs;
  double makespan_ns = 0.0;
  int crosstalk_events = 0;   ///< CX pairs overlapped on one-hop edges
  double max_gamma_applied = 1.0;
  int qubits_used = 0;
  double throughput = 0.0;    ///< hardware_throughput (paper §II-A)
};

/// Execute programs simultaneously on the device. Programs must occupy
/// pairwise-disjoint qubit sets and respect the coupling graph.
/// `program_cache` (optional) memoizes each program's lowering, angle-free
/// kernels, schedule and CX edge ids per structure, its parametric
/// kernels per binding, and up to CompiledProgramCache::kMaxOutcomeVariants
/// exact outcome distributions of its last binding keyed by OutcomeKey
/// (sim/fusion.hpp); it must have been built for `device`, else
/// std::invalid_argument. When null the call compiles through a
/// zero-budget cache of its own: the same code, nothing kept past the
/// call. `derived` (optional) supplies the calibration-derived
/// constants precomputed for this device — it must have been built from
/// exactly `device` (the outcome memo trusts it); a table sized for another
/// topology throws std::invalid_argument. When null they are derived per
/// call. Every gate replays through a precompiled kernel, gate by gate in
/// schedule order: each gate and its channels — idle relaxation on its
/// operands since their last op, then depolarizing — run as one
/// DensityMatrix::apply_noisy_gate sweep, bit-identical to applying the
/// channels one full pass at a time; idle windows before measurements
/// relax in a pass of their own.
[[nodiscard]] ParallelRunReport execute_parallel(
    const Device& device, std::vector<PhysicalProgram> programs,
    const ExecOptions& options = {},
    const CompiledProgramCache* program_cache = nullptr,
    const DerivedNoise* derived = nullptr);

namespace detail {

/// One CX of a batch in device time, for crosstalk accounting.
struct CxEvent {
  std::size_t program = 0;
  std::size_t op = 0;  ///< op index in the program's lowered circuit
  int edge = -1;       ///< device edge id
  double start_ns = 0.0;
  double end_ns = 0.0;
  double gamma = 1.0;  ///< accumulated crosstalk multiplier
};

struct CrosstalkTally {
  int events = 0;  ///< overlapping event pairs with gamma > 1
  double max_gamma = 1.0;
};

/// Ground-truth crosstalk: raise each event's gamma to the largest
/// multiplier of any event it overlaps in time on a partner edge of
/// `derived` (built from the device the events ran on), counting every
/// such pair once — the same pairs, counts and multipliers as checking all
/// event pairs against the device's CrosstalkModel.
CrosstalkTally amplify_crosstalk(std::span<CxEvent> events,
                                 const DerivedNoise& derived);

}  // namespace detail

/// Convenience: execute a single program (no co-runners).
[[nodiscard]] ProgramOutcome execute_single(const Device& device,
                                            const Circuit& physical_circuit,
                                            const ExecOptions& options = {});

}  // namespace qucp
