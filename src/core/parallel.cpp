#include "core/parallel.hpp"

#include <stdexcept>

#include "service/service.hpp"

namespace qucp {

BatchReport run_parallel(const Device& device,
                         const std::vector<Circuit>& programs,
                         const ParallelOptions& options) {
  if (programs.empty()) {
    throw std::invalid_argument("run_parallel: no programs");
  }
  // The service workers' batch pipeline on a throwaway zero-budget epoch,
  // with the batch allocated as the fleet packer allocates it. Input order
  // and the caller's seed are preserved, so the output is bit-identical to
  // the historical facade (asserted by tests/test_service.cpp).
  const CalibrationEpoch epoch(0, device, /*cache_budget_bytes=*/0);
  const auto partitioner =
      make_partitioner(options.method, options.sigma, options.srb_estimates);
  std::vector<ProgramShape> shapes;
  shapes.reserve(programs.size());
  for (const Circuit& c : programs) shapes.push_back(shape_of(c));
  auto assignments = allocate_batch(device, *partitioner, shapes,
                                    &epoch.candidate_index());
  if (!assignments) {
    throw std::runtime_error("run_parallel: batch does not fit on " +
                             device.name());
  }
  return run_batch_pipeline(epoch, programs, *assignments, {}, options);
}

}  // namespace qucp
