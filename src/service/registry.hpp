#pragma once
// BackendRegistry: the set of device endpoints an ExecutionService fleet
// schedules over.
//
// Each registered Backend carries its own epoch-versioned cache set — the
// four caches of its current CalibrationEpoch (service/backend.hpp):
// transpile templates, CandidateIndex allocation states, and the
// CompiledProgramCache's fused programs and executables — so per-device
// memoization survives routing decisions: a
// job bounced between devices warms each device's caches independently,
// and a device recalibrated mid-stream swaps in a fresh cache set without
// touching its fleet peers. Backends are held by shared_ptr and
// identified by a dense id (their registration order) — the id the
// FleetScheduler routes on and the id a JobResult reports back.
//
// Heterogeneous fleets are first-class: a registry may mix e.g. toronto27
// and manhattan65, and calibration-aware policies (BestEfs) use each
// device's own error data to route.

#include <cstddef>
#include <memory>
#include <vector>

#include "service/backend.hpp"

namespace qucp {

class BackendRegistry {
 public:
  BackendRegistry() = default;

  /// One Backend per device, in order; ids are the vector positions.
  /// `cache_budget_bytes` applies to every constructed backend.
  explicit BackendRegistry(
      std::vector<Device> devices,
      std::size_t cache_budget_bytes = kDefaultCacheBudgetBytes);

  /// Adopt pre-built backends (shared caches, custom budgets). Throws
  /// std::invalid_argument on a null entry.
  explicit BackendRegistry(std::vector<std::shared_ptr<Backend>> backends);

  /// Register one more backend; returns its id. Only meaningful before
  /// the registry is handed to an ExecutionService (the service sizes its
  /// lanes at construction).
  std::size_t add(std::shared_ptr<Backend> backend);
  std::size_t add(Device device,
                  std::size_t cache_budget_bytes = kDefaultCacheBudgetBytes);

  [[nodiscard]] std::size_t size() const noexcept { return backends_.size(); }
  [[nodiscard]] bool empty() const noexcept { return backends_.empty(); }

  /// Bounds-checked access; throws std::out_of_range.
  [[nodiscard]] Backend& at(std::size_t id);
  [[nodiscard]] const Backend& at(std::size_t id) const;
  [[nodiscard]] Backend& operator[](std::size_t id) { return at(id); }
  [[nodiscard]] const Backend& operator[](std::size_t id) const {
    return at(id);
  }

  /// Shared ownership of backend `id` (e.g. to build a service lane).
  [[nodiscard]] std::shared_ptr<Backend> share(std::size_t id) const;

 private:
  std::vector<std::shared_ptr<Backend>> backends_;
};

}  // namespace qucp
