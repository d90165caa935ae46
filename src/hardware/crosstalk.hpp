#pragma once
// Ground-truth crosstalk model.
//
// Physically, simultaneous CNOTs on edge pairs at one-hop distance can
// degrade each other (Sheldon et al.; Murali et al. report error-rate
// ratios of 2-11x on IBM devices). The Device carries this model as hidden
// ground truth: the noisy simulator consults it to amplify CX depolarizing
// rates when two CNOTs overlap in time, and SRB *estimates* it by
// experiment. QuCP never reads it — that is the point of the paper.
//
// CrosstalkPolicy is what the crosstalk-aware methods assume instead: the
// multiplier one_hop-adjacent edges get in EFS scoring (Eq. 1) and in the
// CNA router's swap penalty — a flat sigma or a set of SRB estimates.

#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "hardware/topology.hpp"

namespace qucp {

class Rng;

class CrosstalkModel {
 public:
  CrosstalkModel() = default;

  /// Register mutual crosstalk between edge ids e1, e2 with multiplier
  /// gamma >= 1 (applied to both edges' CX error when overlapping).
  void add_pair(int e1, int e2, double gamma);

  /// Multiplier for simultaneous execution on edges e1, e2 (1.0 = none).
  [[nodiscard]] double gamma(int e1, int e2) const;

  /// All registered pairs with their multipliers, canonical order.
  [[nodiscard]] std::vector<std::tuple<int, int, double>> pairs() const;

  [[nodiscard]] bool empty() const noexcept { return gamma_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return gamma_.size(); }

 private:
  static std::pair<int, int> key(int e1, int e2) {
    return e1 < e2 ? std::make_pair(e1, e2) : std::make_pair(e2, e1);
  }
  std::map<std::pair<int, int>, double> gamma_;
};

/// Crosstalk multiplier assumed for an edge one hop (Topology::one_hop)
/// from an edge in use elsewhere.
class CrosstalkPolicy final {
 public:
  /// sigma = 1: crosstalk is ignored.
  CrosstalkPolicy() = default;
  /// Every one-hop conflict costs a flat `sigma` (>= 1; the paper's QuCP
  /// sets 4, the CNA router without estimates 2).
  explicit CrosstalkPolicy(double sigma);
  /// Per-pair multipliers measured by SRB (or any CrosstalkModel), which
  /// must outlive the policy.
  explicit CrosstalkPolicy(const CrosstalkModel& estimates)
      : estimates_(&estimates) {}

  /// Multiplier (>= 1) for edge `edge` next to the in-use edge `other`
  /// (device edge ids).
  [[nodiscard]] double multiplier(int edge, int other) const {
    return estimates_ != nullptr ? estimates_->gamma(edge, other) : sigma_;
  }

 private:
  double sigma_ = 1.0;
  const CrosstalkModel* estimates_ = nullptr;
};

/// Plant crosstalk on a deterministic subset of one-hop edge pairs.
///
/// `fraction` of the one-hop pairs receive a multiplier drawn uniformly
/// from [gamma_lo, gamma_hi]. This mirrors the sparsity seen in Fig. 2:
/// only a handful of Toronto pairs are significantly affected.
[[nodiscard]] CrosstalkModel plant_crosstalk(const Topology& topo,
                                             double fraction, double gamma_lo,
                                             double gamma_hi, Rng rng);

}  // namespace qucp
