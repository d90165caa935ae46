#include "mapping/transpiler.hpp"

#include "mapping/parametric.hpp"

namespace qucp {

TranspileOptions hardware_aware_options() {
  TranspileOptions opts;
  opts.placement = PlacementStyle::HardwareAware;
  opts.router.noise_aware = true;
  return opts;
}

TranspileOptions cna_options(std::vector<int> context_edges,
                             const CrosstalkModel* estimates) {
  TranspileOptions opts;
  opts.placement = PlacementStyle::NoiseAdaptive;
  opts.router.noise_aware = true;
  opts.router.context_edges = std::move(context_edges);
  opts.router.crosstalk = estimates != nullptr ? CrosstalkPolicy(*estimates)
                                               : CrosstalkPolicy(2.0);
  return opts;
}

TranspiledProgram transpile_to_partition(const Circuit& logical,
                                         const Device& device,
                                         std::span<const int> partition,
                                         const TranspileOptions& options) {
  return TranspileTemplate::build(logical, device, partition, options).result;
}

}  // namespace qucp
