#pragma once
// Randomized benchmarking of a coupled qubit pair.
//
// We use mirror (Loschmidt-echo) sequences: m cycles of [random 1q
// Clifford layer + CX] followed by the exact inverse circuit. Survival
// P(00) decays exponentially in m with the pair's effective error rate —
// the same observable SRB uses on hardware, at a fraction of the
// implementation cost (recovery is circuit inversion rather than Clifford
// tableau compilation). DESIGN.md records this substitution.

#include <vector>

#include "common/rng.hpp"
#include "hardware/device.hpp"
#include "sim/executor.hpp"

namespace qucp {

struct RbOptions {
  std::vector<int> lengths = {1, 3, 6, 10, 15};  ///< cycles per sequence
  int seeds = 5;          ///< random sequences averaged per length
  ExecOptions exec;       ///< execution configuration
};

/// One RB sequence of `cycles` cycles on edge (a, b), including the mirror
/// inverse and terminal measurements. Physical circuit over device qubits.
[[nodiscard]] Circuit make_rb_sequence(const Device& device, int a, int b,
                                       int cycles, Rng& rng);

struct RbResult {
  double epc = 0.0;     ///< error per cycle, (d-1)/d * (1 - alpha_cycle)
  double alpha = 0.0;   ///< fitted decay per cycle
  std::vector<double> lengths;
  std::vector<double> survival;  ///< mean P(00) per length
};

/// RB on a single edge, run alone on the device.
[[nodiscard]] RbResult run_rb(const Device& device, int a, int b,
                              const RbOptions& options, Rng rng);

/// Simultaneous RB: sequences on both edges execute in parallel; returns
/// the per-edge results in order {(a1,b1), (a2,b2)}. Edges must be
/// disjoint.
[[nodiscard]] std::pair<RbResult, RbResult> run_simultaneous_rb(
    const Device& device, int a1, int b1, int a2, int b2,
    const RbOptions& options, Rng rng);

}  // namespace qucp
