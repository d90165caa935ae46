#pragma once
// SWAP routing restricted to a partition (SABRE-style).
//
// Makes every two-qubit gate act on coupled qubits by inserting SWAPs along
// partition-internal edges. The cost function blends hop distance for the
// front layer, a look-ahead over the next 20 two-qubit gates at weight
// 0.5, a per-qubit decay term against ping-ponging (+0.001 per use,
// cleared every 5 swaps), an optional noise term (10x the edge's CX
// error), and a gate-level crosstalk penalty against edges one hop
// (Topology::one_hop) from co-runner edges (5x the edge's CX error x
// (multiplier - 1)), which only the CNA baseline's preset turns on by
// naming those edges. The weights are fixed constants of router.cpp; the
// options only switch the noise term and supply the CNA context.

#include <optional>
#include <span>
#include <vector>

#include "circuit/circuit.hpp"
#include "hardware/device.hpp"

namespace qucp {

struct RouterOptions {
  bool noise_aware = true;  ///< add the CX-error term to swap scores

  /// Gate-level crosstalk penalty (CNA): a swap edge one hop from a
  /// context edge is discouraged in proportion to `crosstalk`'s multiplier
  /// for the pair, less one. Empty (no penalty) unless cna_options fills it.
  std::vector<int> context_edges;  ///< co-runner partition edges
  CrosstalkPolicy crosstalk;       ///< multipliers for the penalty
};

struct RoutingResult {
  Circuit physical;              ///< over device-qubit indices
  std::vector<int> final_layout; ///< logical -> physical after routing
  /// Provenance, parallel to physical.ops(): the index of the input op
  /// each emitted op was copied from, or -1 for an inserted SWAP. Every
  /// input op except barriers appears exactly once.
  std::vector<int> source;
  int swaps_added = 0;
};

/// Route `circuit` (logical) onto the partition starting from
/// `initial_layout` (logical -> physical). Measurements must be terminal;
/// they are re-emitted on the final physical positions with their original
/// clbits; barriers are dropped. Gates are copied verbatim (parameters
/// included — the router never reads them). Throws std::runtime_error if
/// routing cannot progress (partition not connected).
[[nodiscard]] RoutingResult route_on_partition(
    const Circuit& circuit, const Device& device,
    std::span<const int> partition, std::span<const int> initial_layout,
    const RouterOptions& options = {});

}  // namespace qucp
