#include "partition/candidates.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace qucp {

namespace {

/// Average error of edges incident to q that stay inside `usable` (flat
/// boolean membership per device qubit — the partitioner is on the
/// service's per-batch path, so no per-query set lookups).
double local_edge_error(const Device& device, int q,
                        const std::vector<char>& usable) {
  const Topology& topo = device.topology();
  double total = 0.0;
  int count = 0;
  for (int nb : topo.neighbors(q)) {
    if (!usable[nb]) continue;
    total += device.cx_error(q, nb);
    ++count;
  }
  return count == 0 ? 1.0 : total / count;
}

/// Per-qubit frontier quality under `usable`: the usable-neighbor count
/// and local_edge_error. Both depend only on the mask, not on the part
/// being grown, so one table serves every growth of a call.
void frontier_quality(const Device& device, const std::vector<char>& usable,
                      std::vector<int>& conn, std::vector<double>& err) {
  const Topology& topo = device.topology();
  const int n = topo.num_qubits();
  conn.assign(static_cast<std::size_t>(n), 0);
  err.assign(static_cast<std::size_t>(n), 1.0);
  for (int q = 0; q < n; ++q) {
    int count = 0;
    for (int nb : topo.neighbors(q)) {
      if (usable[nb]) ++count;
    }
    conn[q] = count;
    err[q] = local_edge_error(device, q, usable);
  }
}

/// One greedy growth from `start` under the usable mask. Returns the part
/// in growth order (not sorted); size < k means the region around `start`
/// was exhausted. `in_part` is scratch of num_qubits() zeros, restored to
/// all-zero before returning.
std::vector<int> grow_candidate(const Device& device, int k, int start,
                                const std::vector<char>& usable,
                                std::vector<char>& in_part,
                                const std::vector<int>& conn,
                                const std::vector<double>& err) {
  const Topology& topo = device.topology();
  std::vector<int> part{start};
  in_part[start] = 1;
  while (static_cast<int>(part.size()) < k) {
    // Frontier: usable neighbors of the current subgraph.
    int best = -1;
    int best_conn = -1;
    double best_err = 2.0;
    for (int q : part) {
      for (int nb : topo.neighbors(q)) {
        if (in_part[nb] || !usable[nb]) continue;
        // Quality: connections into the usable region (descending), then
        // local error (ascending), then index for determinism.
        if (conn[nb] > best_conn ||
            (conn[nb] == best_conn && err[nb] < best_err - 1e-15) ||
            (conn[nb] == best_conn && std::abs(err[nb] - best_err) <= 1e-15 &&
             nb < best)) {
          best = nb;
          best_conn = conn[nb];
          best_err = err[nb];
        }
      }
    }
    if (best < 0) break;  // region exhausted; candidate unusable
    part.push_back(best);
    in_part[best] = 1;
  }
  for (int q : part) in_part[q] = 0;
  return part;
}

}  // namespace

std::vector<std::vector<int>> partition_candidates(
    const Device& device, int k, std::span<const int> allocated) {
  if (k <= 0) throw std::invalid_argument("partition_candidates: k <= 0");
  const Topology& topo = device.topology();
  const int n = topo.num_qubits();
  std::vector<char> usable(n, 1);
  for (int q : allocated) {
    if (q < 0 || q >= n) {
      throw std::out_of_range("partition_candidates: allocated qubit out of range");
    }
    usable[q] = 0;
  }
  std::vector<int> conn;
  std::vector<double> err;
  frontier_quality(device, usable, conn, err);
  std::vector<char> in_part(n, 0);
  std::vector<std::vector<int>> parts;
  parts.reserve(static_cast<std::size_t>(n));
  for (int start = 0; start < n; ++start) {
    if (!usable[start]) continue;
    std::vector<int> part =
        grow_candidate(device, k, start, usable, in_part, conn, err);
    if (static_cast<int>(part.size()) == k) {
      std::sort(part.begin(), part.end());
      parts.push_back(std::move(part));
    }
  }
  // Lexicographic and duplicate-free: the order of a std::set of the parts.
  std::sort(parts.begin(), parts.end());
  parts.erase(std::unique(parts.begin(), parts.end()), parts.end());
  return parts;
}

}  // namespace qucp
