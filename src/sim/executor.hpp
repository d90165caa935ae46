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
// relaxation (T1/T2) in schedule gaps, and crosstalk.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "common/rng.hpp"
#include "hardware/device.hpp"
#include "schedule/schedule.hpp"
#include "sim/counts.hpp"

namespace qucp {

class GateMatrixCache;        // circuit/gate_cache.hpp
class CompiledProgramCache;   // sim/fusion.hpp

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
  bool idle_noise = true;
  bool readout_noise = true;
  bool gate_noise = true;
  bool crosstalk_noise = true;
  std::uint64_t seed = 1234;  ///< sampling seed

  /// Cap on kern::parallel_for worker threads while this run simulates
  /// (0 = inherit the ambient cap: QUCP_KERNEL_THREADS, else hardware
  /// concurrency). The ExecutionService sets hw / num_workers here so N
  /// concurrent batch workers cannot oversubscribe the machine N-fold.
  int kernel_threads = 0;

  /// Software crosstalk mitigation by instruction scheduling (Murali et
  /// al., the alternative to QuCP's avoidance): delay whole programs until
  /// no one-hop CX pairs overlap in time. With `serialize_hints` set only
  /// the listed (SRB-characterized) pairs are serialized; otherwise every
  /// one-hop overlap is. Buys crosstalk immunity with idle decoherence
  /// and a longer makespan. Held by value: ExecOptions frequently outlive
  /// the caller's stack frame in the async ExecutionService, so a borrowed
  /// pointer here would be a dangling-lifetime trap.
  bool serialize_crosstalk = false;
  std::optional<CrosstalkModel> serialize_hints;
};

struct ProgramOutcome {
  std::string name;
  Distribution distribution;  ///< exact noisy outcome distribution
  Counts counts;              ///< sampled shots
};

/// Calibration-derived noise constants, computed once per calibration
/// snapshot instead of once per gate application: the per-edge CX
/// depolarizing parameter at gamma = 1 and the per-qubit 1q depolarizing
/// parameter. A CalibrationEpoch (service/backend.hpp) derives one table
/// when it is built and hands it to every execution on that epoch;
/// crosstalk-amplified CX events (gamma > 1) still derive their parameter
/// on the fly. Purely a recompute-avoidance table — depolarizing_param is
/// deterministic, so results are bit-identical with or without it.
struct DerivedNoise {
  std::vector<double> cx_depol;  ///< depolarizing_param(cx_error[e]) per edge
  std::vector<double> q1_depol;  ///< depolarizing_param(q1_error[q]) per qubit
  [[nodiscard]] static DerivedNoise from(const Calibration& cal);
};

struct ParallelRunReport {
  std::vector<ProgramOutcome> programs;
  double makespan_ns = 0.0;
  int crosstalk_events = 0;   ///< CX pairs overlapped on one-hop edges
  double max_gamma_applied = 1.0;
  int qubits_used = 0;
  double throughput = 0.0;    ///< qubits_used / device qubits
};

/// Execute programs simultaneously on the device. Programs must occupy
/// pairwise-disjoint qubit sets and respect the coupling graph.
/// `gate_cache` (optional) memoizes gate unitaries across calls — a Backend
/// passes its own so repeated shot-batches stop rebuilding matrices per op;
/// when null a run-local cache still deduplicates within the call.
/// `program_cache` (optional) memoizes each program's CX lowering and
/// per-op compiled kernels (sim/fusion.hpp) across calls; when null the
/// compilation happens per call. `derived` (optional) supplies the
/// calibration-derived depolarizing parameters precomputed for this
/// device's calibration snapshot — it must have been built from exactly
/// device.calibration(). Either way every gate replays through a
/// precompiled kernel, with noise channels interleaved exactly as the
/// uncompiled path did — results are bit-identical.
[[nodiscard]] ParallelRunReport execute_parallel(
    const Device& device, std::vector<PhysicalProgram> programs,
    const ExecOptions& options = {}, GateMatrixCache* gate_cache = nullptr,
    const CompiledProgramCache* program_cache = nullptr,
    const DerivedNoise* derived = nullptr);

/// Convenience: execute a single program (no co-runners).
[[nodiscard]] ProgramOutcome execute_single(const Device& device,
                                            const Circuit& physical_circuit,
                                            const ExecOptions& options = {});

}  // namespace qucp
