#pragma once
// End-to-end ZNE with optional parallel execution (paper §IV-D).
//
// The observable is the parity expectation <Z...Z> over measured bits —
// computable from counts for any benchmark. Three processes are compared:
//   Baseline  — the unfolded circuit on its best partition, no mitigation
//   ZNE       — folded circuits executed one job each, extrapolated
//   QuCP+ZNE  — folded circuits executed in ONE parallel batch (same
//               number of circuit executions as Baseline), extrapolated
// Folding is at random with a fixed seed. Per the paper, the reported
// mitigated value uses the extrapolation (Linear, Poly2 or Richardson;
// zne/factory.hpp) closest to the ideal (noiseless) expectation.

#include <vector>

#include "core/parallel.hpp"
#include "zne/factory.hpp"
#include "zne/folding.hpp"

namespace qucp {

/// Parity expectation <Z^(x)m> over the measured bits of a distribution.
[[nodiscard]] double parity_expectation(const Distribution& dist);

struct ZneOptions {
  std::vector<double> scales = paper_scale_factors();
  ParallelOptions parallel;       ///< method/exec used for execution
};

enum class ZneProcess { Baseline, Independent, Parallel };

struct ZneResult {
  double ideal_expectation = 0.0;
  double unmitigated = 0.0;          ///< scale-1 measured expectation
  std::vector<double> scales;        ///< achieved scale factors
  std::vector<double> expectations;  ///< measured value per scale
  double mitigated = 0.0;            ///< best extrapolation
  std::string best_factory;          ///< its name; "none" for Baseline
  double abs_error = 0.0;            ///< |mitigated or unmitigated - ideal|
  double throughput = 0.0;
};

/// Run one process on a circuit. Baseline ignores `scales` beyond 1.0.
/// Throws std::invalid_argument when `scales` does not start at 1.0, or
/// when the mitigated processes achieve scales no extrapolation can fit
/// (fewer than two distinct ones).
[[nodiscard]] ZneResult run_zne(const Device& device, const Circuit& circuit,
                                ZneProcess process, const ZneOptions& options);

}  // namespace qucp
