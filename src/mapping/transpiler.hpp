#pragma once
// End-to-end transpilation of a logical program onto a partition.
//
// Pipeline (the library's stand-in for Qiskit's optimization_level=3 +
// layout + routing): peephole optimize -> initial placement -> SABRE-style
// routing -> re-optimize -> terminal measurements on final positions. It
// has one implementation, TranspileTemplate::build (mapping/parametric.hpp),
// which also records how each parameter flows through it.
// Styles package the mapper configurations the paper compares: the
// QuCP/QuMC hardware-aware mapper [18], and CNA's noise-adaptive,
// gate-level crosstalk-aware mapper [16][20].

#include <span>

#include "mapping/initial.hpp"
#include "mapping/router.hpp"

namespace qucp {

struct TranspileOptions {
  PlacementStyle placement = PlacementStyle::HardwareAware;
  RouterOptions router;
  bool optimize_input = true;
  bool optimize_output = true;
};

/// Preset used by QuCP / QuMC / MultiQC (noise-aware mapping [18]).
[[nodiscard]] TranspileOptions hardware_aware_options();

/// Preset used by the CNA baseline: noise-adaptive placement and a router
/// penalizing edges one-hop from co-runner edges (gate-level crosstalk).
/// `context_edges` are the device edge ids inside co-runners' partitions;
/// `estimates` are SRB-measured crosstalk multipliers, which must outlive
/// the options. Without them (null) every one-hop pair costs a flat 2.
[[nodiscard]] TranspileOptions cna_options(std::vector<int> context_edges,
                                           const CrosstalkModel* estimates);

struct TranspiledProgram {
  Circuit physical;               ///< device-wide circuit, partition-local ops
  std::vector<int> initial_layout;  ///< logical -> physical before routing
  std::vector<int> final_layout;    ///< logical -> physical after routing
  int swaps_added = 0;
};

/// Transpile `logical` (k qubits + terminal measurements) onto the given
/// partition of the device: the result of a TranspileTemplate built from
/// it (mapping/parametric.hpp), so a one-off transpile and the service's
/// cached one run one pipeline. tests/reference_transpile.hpp keeps the
/// untraced pipeline as the oracle both are pinned against.
[[nodiscard]] TranspiledProgram transpile_to_partition(
    const Circuit& logical, const Device& device,
    std::span<const int> partition, const TranspileOptions& options = {});

}  // namespace qucp
