#include "core/parallel.hpp"

#include <stdexcept>

#include "service/service.hpp"

namespace qucp {

std::string_view method_name(Method m) noexcept {
  switch (m) {
    case Method::QuCP: return "QuCP";
    case Method::QuMC: return "QuMC";
    case Method::CNA: return "CNA";
    case Method::QuCloud: return "QuCloud";
    case Method::MultiQC: return "MultiQC";
    case Method::Naive: return "Naive";
  }
  return "?";
}

std::unique_ptr<Partitioner> make_partitioner(
    Method method, double sigma,
    const std::optional<CrosstalkModel>& estimates) {
  switch (method) {
    case Method::QuCP:
      return std::make_unique<QucpPartitioner>(sigma);
    case Method::QuMC:
      if (!estimates) {
        throw std::invalid_argument(
            "make_partitioner: QuMC requires SRB estimates");
      }
      return std::make_unique<QumcPartitioner>(*estimates);
    case Method::CNA:
      // The paper notes CNA proposes no qubit-partition algorithm of its
      // own: it inherits first-fit regions and mitigates crosstalk at gate
      // level during mapping instead.
      return std::make_unique<NaivePartitioner>();
    case Method::MultiQC:
      return std::make_unique<MultiqcPartitioner>();
    case Method::QuCloud:
      return std::make_unique<QucloudPartitioner>();
    case Method::Naive:
      return std::make_unique<NaivePartitioner>();
  }
  throw std::logic_error("make_partitioner: unhandled method");
}

BatchReport run_parallel(const Device& device,
                         const std::vector<Circuit>& programs,
                         const ParallelOptions& options) {
  if (programs.empty()) {
    throw std::invalid_argument("run_parallel: no programs");
  }
  // Compatibility shim: one synchronous pass through the service's batch
  // pipeline — the exact code path an ExecutionService worker runs for a
  // batch, on a throwaway uncached calibration epoch. Input order and the
  // caller's seed are preserved, so the output is bit-identical to the
  // historical facade (asserted by tests/test_service.cpp), and pipeline
  // exceptions (invalid_argument for config errors, runtime_error for an
  // unplaceable batch) propagate with their original types.
  const CalibrationEpoch epoch(0, device, /*transpile_cache_capacity=*/0);
  return run_batch_pipeline(epoch, programs, {}, options);
}

}  // namespace qucp
