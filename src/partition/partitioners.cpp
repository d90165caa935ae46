#include "partition/partitioners.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <set>
#include <stdexcept>

#include "partition/candidate_index.hpp"

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

ProgramShape shape_of(const Circuit& circuit) {
  ProgramShape shape;
  shape.num_qubits = static_cast<int>(circuit.active_qubits().size());
  shape.num_2q = circuit.two_qubit_count();
  shape.num_1q = circuit.gate_count() - circuit.two_qubit_count();
  return shape;
}

std::vector<std::size_t> allocation_order(
    std::span<const ProgramShape> programs) {
  std::vector<std::size_t> order(programs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     if (programs[a].num_qubits != programs[b].num_qubits) {
                       return programs[a].num_qubits > programs[b].num_qubits;
                     }
                     return programs[a].num_2q > programs[b].num_2q;
                   });
  return order;
}

std::optional<std::vector<PartitionAssignment>> Partitioner::allocate(
    const Device& device, std::span<const ProgramShape> programs,
    const CandidateIndex* index) const {
  if (index != nullptr) return do_allocate(device, programs, *index);
  const CandidateIndex local(device, 0);
  return do_allocate(device, programs, local);
}

std::optional<std::vector<PartitionAssignment>> allocate_batch(
    const Device& device, const Partitioner& partitioner,
    std::span<const ProgramShape> shapes, const CandidateIndex* index) {
  const std::vector<std::size_t> order = allocation_order(shapes);
  std::vector<ProgramShape> ordered;
  ordered.reserve(order.size());
  for (std::size_t idx : order) ordered.push_back(shapes[idx]);
  auto alloc = partitioner.allocate(device, ordered, index);
  if (!alloc) return std::nullopt;
  std::vector<PartitionAssignment> assignments(shapes.size());
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    assignments[order[pos]] = std::move((*alloc)[pos]);
  }
  return assignments;
}

std::optional<double> solo_efs_score(const Device& device,
                                     const Partitioner& partitioner,
                                     const ProgramShape& shape,
                                     const CandidateIndex* index) {
  const ProgramShape shapes[] = {shape};
  const auto alloc = partitioner.allocate(device, shapes, index);
  if (!alloc) return std::nullopt;
  return (*alloc)[0].efs.score;
}

namespace {

/// Greedy allocation shared by every candidate-based partitioner: walk the
/// allocated-qubit bitmask through the index's allocation states.
/// `cost(state, i, shape)` is the partitioner's own ranking of candidate i
/// (lowest wins, the first one on ties); the winner's EFS is then scored
/// under `efs_policy`.
template <typename Cost>
std::optional<std::vector<PartitionAssignment>> memo_allocate(
    const CandidateIndex& index, std::span<const ProgramShape> programs,
    const CrosstalkPolicy& efs_policy, Cost cost) {
  std::vector<PartitionAssignment> result(programs.size());
  CandidateIndex::StateKey key = index.empty_key(0);
  for (std::size_t idx = 0; idx < programs.size(); ++idx) {
    const ProgramShape& shape = programs[idx];
    key.k = shape.num_qubits;
    const std::shared_ptr<const CandidateIndex::State> state = index.state(key);
    std::size_t best = state->size();
    double best_cost = 0.0;
    for (std::size_t i = 0; i < state->size(); ++i) {
      const double c = cost(*state, i, shape);
      if (best == state->size() || c < best_cost) {
        best = i;
        best_cost = c;
      }
    }
    if (best == state->size()) return std::nullopt;
    const std::span<const int> part = state->part(best);
    result[idx] = {{part.begin(), part.end()},
                   state->score(best, shape, efs_policy)};
    key.allocate(part);
  }
  return result;
}

/// EFS-greedy allocation shared by QuCP and QuMC: each program takes the
/// candidate of lowest EFS under `policy`.
std::optional<std::vector<PartitionAssignment>> efs_greedy_allocate(
    const CandidateIndex& index, std::span<const ProgramShape> programs,
    const CrosstalkPolicy& policy) {
  return memo_allocate(index, programs, policy,
                       [&](const CandidateIndex::State& state, std::size_t i,
                           const ProgramShape& shape) {
                         return state.score(i, shape, policy, false).score;
                       });
}

/// Score-based allocation for calibration-aware, crosstalk-blind baselines.
/// Each method's own ranking runs over the candidates, and the chosen
/// region's EFS breakdown is efs_score's under no crosstalk.
template <typename ScoreFn>
std::optional<std::vector<PartitionAssignment>> score_greedy_allocate(
    const Device& device, const CandidateIndex& index,
    std::span<const ProgramShape> programs,
    ScoreFn score /* higher is better */) {
  const CrosstalkPolicy no_xtalk;
  // Negated, so the highest score wins with the same first-on-ties rule
  // (negation is exact).
  return memo_allocate(index, programs, no_xtalk,
                       [&](const CandidateIndex::State& state, std::size_t i,
                           const ProgramShape&) {
                         return -score(device, state.part(i));
                       });
}

/// Fidelity degree of qubit q: sum over incident edges of (1 - cx error),
/// penalized by readout error — QuCloud's CMR-style heuristic. Candidates
/// arrive sorted, so membership is a binary search, not a per-call set.
double qucloud_score(const Device& dev, std::span<const int> cand) {
  double total = 0.0;
  for (int q : cand) {
    double fd = 0.0;
    for (int nb : dev.topology().neighbors(q)) {
      if (std::binary_search(cand.begin(), cand.end(), nb)) {
        fd += 1.0 - dev.cx_error(q, nb);
      }
    }
    total += fd - dev.readout_error(q);
  }
  return total;
}

/// Region utility: product of edge and readout survival probabilities
/// (log-sum for numeric stability) — Das et al.'s reliability ranking.
double multiqc_score(const Device& dev, std::span<const int> cand) {
  double log_survival = 0.0;
  for (int e : dev.topology().induced_edges(cand)) {
    log_survival += std::log1p(-dev.calibration().cx_error[e]);
  }
  for (int q : cand) {
    log_survival += std::log1p(-dev.readout_error(q));
  }
  return log_survival;
}

/// First-fit allocation (Naive and CNA): per program, the BFS region of
/// the requested size grown from the lowest free qubit that has one. It
/// needs no candidate enumeration, so no index.
std::optional<std::vector<PartitionAssignment>> first_fit_allocate(
    const Device& device, std::span<const ProgramShape> programs) {
  const Topology& topo = device.topology();
  const CrosstalkPolicy no_xtalk;
  std::vector<PartitionAssignment> result(programs.size());
  std::set<int> blocked;
  for (std::size_t idx = 0; idx < programs.size(); ++idx) {
    const ProgramShape& shape = programs[idx];
    std::vector<int> region;
    for (int start = 0; start < topo.num_qubits(); ++start) {
      if (blocked.count(start)) continue;
      // BFS region of the requested size.
      std::vector<int> part;
      std::set<int> visited;
      std::deque<int> queue{start};
      visited.insert(start);
      while (!queue.empty() &&
             static_cast<int>(part.size()) < shape.num_qubits) {
        const int u = queue.front();
        queue.pop_front();
        part.push_back(u);
        for (int nb : topo.neighbors(u)) {
          if (!visited.count(nb) && !blocked.count(nb)) {
            visited.insert(nb);
            queue.push_back(nb);
          }
        }
      }
      if (static_cast<int>(part.size()) == shape.num_qubits) {
        std::sort(part.begin(), part.end());
        region = std::move(part);
        break;
      }
    }
    if (region.empty()) return std::nullopt;
    PartitionAssignment assignment;
    assignment.qubits = region;
    const std::vector<int> allocated(blocked.begin(), blocked.end());
    assignment.efs = efs_score(device, region, shape, allocated, no_xtalk);
    blocked.insert(region.begin(), region.end());
    result[idx] = std::move(assignment);
  }
  return result;
}

}  // namespace

MethodPartitioner::MethodPartitioner(
    Method method, double sigma,
    const std::optional<CrosstalkModel>& estimates)
    : method_(method),
      sigma_(sigma),
      estimates_(method == Method::QuMC ? estimates : std::nullopt) {
  if (method_ == Method::QuCP) (void)CrosstalkPolicy(sigma_);  // validates
  if (method_ == Method::QuMC && !estimates_) {
    throw std::invalid_argument("MethodPartitioner: QuMC requires estimates");
  }
}

std::string MethodPartitioner::name() const {
  return std::string(method_name(method_));
}

std::optional<std::vector<PartitionAssignment>> MethodPartitioner::do_allocate(
    const Device& device, std::span<const ProgramShape> programs,
    const CandidateIndex& index) const {
  switch (method_) {
    case Method::QuCP:
      return efs_greedy_allocate(index, programs, CrosstalkPolicy(sigma_));
    case Method::QuMC:
      return efs_greedy_allocate(index, programs, CrosstalkPolicy(*estimates_));
    case Method::QuCloud:
      return score_greedy_allocate(device, index, programs, qucloud_score);
    case Method::MultiQC:
      return score_greedy_allocate(device, index, programs, multiqc_score);
    case Method::CNA:
    case Method::Naive:
      return first_fit_allocate(device, programs);
  }
  throw std::logic_error("MethodPartitioner: unhandled method");
}

std::unique_ptr<Partitioner> make_partitioner(
    Method method, double sigma,
    const std::optional<CrosstalkModel>& estimates) {
  return std::make_unique<MethodPartitioner>(method, sigma, estimates);
}

}  // namespace qucp
