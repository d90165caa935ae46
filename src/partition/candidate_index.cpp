#include "partition/candidate_index.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "partition/candidates.hpp"

namespace qucp {

std::vector<int> CandidateIndex::cached_sizes() const {
  std::lock_guard<std::mutex> lock(sizes_mutex_);
  return {sizes_.begin(), sizes_.end()};
}

void CandidateIndex::StateKey::allocate(std::span<const int> qubits) {
  for (int q : qubits) {
    assert(q >= 0 && static_cast<std::size_t>(q) / 64 < allocated.size());
    allocated[static_cast<std::size_t>(q) / 64] |= std::uint64_t{1}
                                                   << (q % 64);
  }
}

std::size_t CandidateIndex::KeyHash::operator()(
    const StateKey& key) const noexcept {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(key.k);
  for (std::uint64_t word : key.allocated) {
    h ^= word + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return static_cast<std::size_t>(h);
}

CandidateIndex::StateKey CandidateIndex::empty_key(int k) const {
  const auto n = static_cast<std::size_t>(device_->topology().num_qubits());
  return {std::vector<std::uint64_t>((n + 63) / 64, 0), k};
}

std::shared_ptr<const CandidateIndex::State> CandidateIndex::state(
    const StateKey& key) const {
  if (key.k <= 0) throw std::invalid_argument("CandidateIndex::state: k <= 0");
  if (auto hit = states_.find(key)) return hit;
  // Built outside any lock: a concurrent miss on the same key builds an
  // identical state, and the first one published wins.
  std::shared_ptr<const State> built = build_state(key);
  const std::size_t bytes =
      built->bytes() + key.allocated.capacity() * sizeof(std::uint64_t);
  return states_.insert(key, std::move(built), bytes);
}

std::size_t CandidateIndex::State::bytes() const noexcept {
  return sizeof(State) + heap_bytes(parts_) + heap_bytes(base_) +
         heap_bytes(edge_begin_) + heap_bytes(edges_) + heap_bytes(hop_begin_) +
         heap_bytes(hops_);
}

CandidateIndex::State::State(const Device& device, int k,
                             std::span<const int> allocated,
                             std::span<const std::vector<int>> candidates)
    : device_(&device), k_(k) {
  const Topology& topo = device.topology();
  const Calibration& cal = device.calibration();
  // Per device edge, the allocated edges one hop from it, in edge-id
  // order (the order score() takes the largest multiplier in).
  std::vector<std::vector<int>> near(
      static_cast<std::size_t>(topo.num_edges()));
  for (int f : topo.induced_edges(allocated)) {
    for (int e = 0; e < topo.num_edges(); ++e) {
      if (topo.one_hop(e, f)) near[e].push_back(f);
    }
  }
  parts_.reserve(candidates.size() * static_cast<std::size_t>(k));
  base_.reserve(candidates.size());
  edge_begin_.push_back(0);
  hop_begin_.push_back(0);
  for (const std::vector<int>& part : candidates) {
    parts_.insert(parts_.end(), part.begin(), part.end());
    BaseScore base;
    for (int e : topo.induced_edges(part)) {
      base.edge_error_total += std::min(1.0, cal.cx_error[e]);
      ++base.num_edges;
      edges_.push_back(e);
      hops_.insert(hops_.end(), near[e].begin(), near[e].end());
      hop_begin_.push_back(static_cast<std::uint32_t>(hops_.size()));
    }
    for (int q : part) {
      base.q1_total += cal.q1_error[q];
      base.readout_sum += cal.readout_error[q];
    }
    base_.push_back(base);
    edge_begin_.push_back(static_cast<std::uint32_t>(edges_.size()));
  }
}

std::shared_ptr<const CandidateIndex::State> CandidateIndex::build_state(
    const StateKey& key) const {
  std::vector<int> allocated;
  for (std::size_t w = 0; w < key.allocated.size(); ++w) {
    for (std::uint64_t bits = key.allocated[w]; bits != 0; bits &= bits - 1) {
      allocated.push_back(static_cast<int>(w * 64) + std::countr_zero(bits));
    }
  }
  auto out = std::make_shared<const State>(
      *device_, key.k, allocated,
      partition_candidates(*device_, key.k, allocated));
  {
    std::lock_guard<std::mutex> lock(sizes_mutex_);
    sizes_.insert(key.k);
  }
  return out;
}

EfsBreakdown CandidateIndex::State::score(std::size_t i,
                                          const ProgramShape& shape,
                                          const CrosstalkPolicy& policy,
                                          bool with_edges) const {
  if (shape.num_qubits != k_) {
    throw std::invalid_argument("efs_score: partition size != program size");
  }
  if (shape.num_2q > 0 && k_ < 2) {
    throw std::invalid_argument("efs_score: program needs an edge");
  }
  const BaseScore& base = base_[i];
  const std::uint32_t e0 = edge_begin_[i];
  const std::uint32_t e1 = edge_begin_[i + 1];
  EfsBreakdown out;
  if (hop_begin_[e0] == hop_begin_[e1]) {
    // No edge one hop from the allocation: every multiplier is 1 and the
    // cached base is the sum.
    if (base.num_edges > 0) {
      out.avg_2q = base.edge_error_total / static_cast<double>(base.num_edges);
    }
  } else {
    // Avg2q(cross): each edge's error under its largest one-hop multiplier.
    const Calibration& cal = device_->calibration();
    double total = 0.0;
    for (std::uint32_t j = e0; j < e1; ++j) {
      const int e = edges_[j];
      double mult = 1.0;
      for (std::uint32_t h = hop_begin_[j]; h < hop_begin_[j + 1]; ++h) {
        mult = std::max(mult, policy.multiplier(e, hops_[h]));
      }
      if (with_edges && hop_begin_[j] != hop_begin_[j + 1]) {
        out.crosstalk_edges.push_back(e);
      }
      total += std::min(1.0, cal.cx_error[e] * mult);
    }
    out.avg_2q = total / static_cast<double>(e1 - e0);
  }
  out.avg_1q = base.q1_total / static_cast<double>(k_);
  out.readout_sum = base.readout_sum;
  out.score = out.avg_2q * shape.num_2q + out.avg_1q * shape.num_1q +
              out.readout_sum;
  return out;
}

}  // namespace qucp
