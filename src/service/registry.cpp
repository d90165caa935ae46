#include "service/registry.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace qucp {

BackendRegistry::BackendRegistry(std::vector<Device> devices,
                                 std::size_t cache_budget_bytes) {
  backends_.reserve(devices.size());
  for (Device& device : devices) {
    backends_.push_back(
        std::make_shared<Backend>(std::move(device), cache_budget_bytes));
  }
}

BackendRegistry::BackendRegistry(
    std::vector<std::shared_ptr<Backend>> backends) {
  backends_.reserve(backends.size());
  for (auto& backend : backends) add(std::move(backend));
}

std::size_t BackendRegistry::add(std::shared_ptr<Backend> backend) {
  if (!backend) {
    throw std::invalid_argument("BackendRegistry::add: null backend");
  }
  // One Backend = one device endpoint: registering the same object twice
  // would give a fleet two lanes racing over a single chip's queue and
  // double-count its caches in every per-backend stats breakdown.
  for (const auto& existing : backends_) {
    if (existing == backend) {
      throw std::invalid_argument(
          "BackendRegistry::add: backend already registered");
    }
  }
  backends_.push_back(std::move(backend));
  return backends_.size() - 1;
}

std::size_t BackendRegistry::add(Device device,
                                 std::size_t cache_budget_bytes) {
  return add(
      std::make_shared<Backend>(std::move(device), cache_budget_bytes));
}

Backend& BackendRegistry::at(std::size_t id) {
  if (id >= backends_.size()) {
    throw std::out_of_range("BackendRegistry: no backend " +
                            std::to_string(id));
  }
  return *backends_[id];
}

const Backend& BackendRegistry::at(std::size_t id) const {
  if (id >= backends_.size()) {
    throw std::out_of_range("BackendRegistry: no backend " +
                            std::to_string(id));
  }
  return *backends_[id];
}

std::shared_ptr<Backend> BackendRegistry::share(std::size_t id) const {
  if (id >= backends_.size()) {
    throw std::out_of_range("BackendRegistry: no backend " +
                            std::to_string(id));
  }
  return backends_[id];
}

}  // namespace qucp
