#pragma once
// The untraced transpile pipeline: the oracle TranspileTemplate is pinned
// against.
//
// The library transpiles through one implementation,
// TranspileTemplate::build (mapping/parametric.hpp), which traces every
// parameter through its two optimize passes so later bindings can be
// patched in. This is the pipeline without any tracing, kept here: peephole
// optimize -> initial placement -> routing -> re-optimize. A template's
// build result, each of its accepted binds, transpile_to_partition() and
// every CalibrationEpoch transpile (at any cache budget) must equal it bit
// for bit.

#include <span>
#include <utility>
#include <vector>

#include "circuit/optimize.hpp"
#include "mapping/transpiler.hpp"

namespace qucp::reference {

inline TranspiledProgram untraced_transpile(
    const Circuit& logical, const Device& device,
    std::span<const int> partition, const TranspileOptions& options = {}) {
  const Circuit prepared =
      options.optimize_input ? optimize(logical) : logical;
  const std::vector<int> layout =
      initial_layout(prepared, device, partition, options.placement);
  RoutingResult routed = route_on_partition(prepared, device, partition,
                                            layout, options.router);
  TranspiledProgram out;
  out.initial_layout = layout;
  out.final_layout = std::move(routed.final_layout);
  out.swaps_added = routed.swaps_added;
  out.physical = options.optimize_output ? optimize(routed.physical)
                                         : std::move(routed.physical);
  return out;
}

}  // namespace qucp::reference
