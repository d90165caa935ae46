#include "partition/candidate_index.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "partition/candidates.hpp"

namespace qucp {

namespace {

/// Static EFS components of a candidate, accumulated in efs_score's exact
/// summation order: edge errors (with the mult == 1 cap) in induced-edge
/// order, 1q and readout errors in partition order. The bit-identity
/// contract with efs.cpp depends on these exact float operations.
CandidateIndex::BaseScore compute_base(const Device& device,
                                       const std::vector<int>& part,
                                       const std::vector<int>& part_edges) {
  const Calibration& cal = device.calibration();
  CandidateIndex::BaseScore base;
  base.num_edges = static_cast<int>(part_edges.size());
  for (int e : part_edges) {
    base.edge_error_total += std::min(1.0, cal.cx_error[e] * 1.0);
  }
  for (int q : part) {
    base.q1_total += cal.q1_error[q];
    base.readout_sum += cal.readout_error[q];
  }
  return base;
}

}  // namespace

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

std::shared_ptr<const CandidateIndex::State> CandidateIndex::build_state(
    const StateKey& key) const {
  const Device& device = *device_;
  const Topology& topo = device.topology();
  std::vector<int> allocated;
  for (std::size_t w = 0; w < key.allocated.size(); ++w) {
    for (std::uint64_t bits = key.allocated[w]; bits != 0; bits &= bits - 1) {
      allocated.push_back(static_cast<int>(w * 64) + std::countr_zero(bits));
    }
  }
  const std::vector<std::vector<int>> candidates =
      partition_candidates(device, key.k, allocated);

  // Edge-id order, exactly what efs_score's induced_edges(allocated) scan
  // walks. A candidate edge can sit one hop from an allocated edge only
  // when one of its endpoints neighbours an allocated qubit.
  const std::vector<int> alloc_edges = topo.induced_edges(allocated);
  std::vector<char> near1(static_cast<std::size_t>(topo.num_qubits()), 0);
  for (int q : allocated) {
    for (int nb : topo.neighbors(q)) near1[nb] = 1;
  }

  auto out = std::make_shared<State>();
  out->device_ = &device;
  out->k_ = key.k;
  out->parts_.reserve(candidates.size() * static_cast<std::size_t>(key.k));
  out->base_.reserve(candidates.size());
  out->edge_begin_.push_back(0);
  out->hop_begin_.push_back(0);
  for (const std::vector<int>& part : candidates) {
    out->parts_.insert(out->parts_.end(), part.begin(), part.end());
    const std::vector<int> edges = topo.induced_edges(part);
    out->base_.push_back(compute_base(device, part, edges));
    for (int e : edges) {
      out->edges_.push_back(e);
      const Edge& ee = topo.edges()[e];
      if (near1[ee.a] || near1[ee.b]) {
        for (int f : alloc_edges) {
          const Edge& fe = topo.edges()[f];
          assert(!ee.shares_qubit(fe));
          const int d = std::min(
              {topo.distance(ee.a, fe.a), topo.distance(ee.a, fe.b),
               topo.distance(ee.b, fe.a), topo.distance(ee.b, fe.b)});
          if (d == 1) out->hops_.push_back(f);
        }
      }
      out->hop_begin_.push_back(static_cast<std::uint32_t>(out->hops_.size()));
    }
    out->edge_begin_.push_back(static_cast<std::uint32_t>(out->edges_.size()));
  }
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
    // cached base is efs_score's sum.
    if (base.num_edges > 0) {
      out.avg_2q = base.edge_error_total / static_cast<double>(base.num_edges);
    }
  } else {
    // efs_score's edge loop, with the d == 1 scan precomputed.
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
