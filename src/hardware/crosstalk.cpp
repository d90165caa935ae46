#include "hardware/crosstalk.hpp"

#include <cmath>
#include <stdexcept>

#include "common/rng.hpp"

namespace qucp {

void CrosstalkModel::add_pair(int e1, int e2, double gamma) {
  if (e1 == e2) throw std::invalid_argument("CrosstalkModel: e1 == e2");
  if (gamma < 1.0) {
    throw std::invalid_argument("CrosstalkModel: gamma must be >= 1");
  }
  gamma_[key(e1, e2)] = gamma;
}

double CrosstalkModel::gamma(int e1, int e2) const {
  const auto it = gamma_.find(key(e1, e2));
  return it == gamma_.end() ? 1.0 : it->second;
}

std::vector<std::tuple<int, int, double>> CrosstalkModel::pairs() const {
  std::vector<std::tuple<int, int, double>> out;
  out.reserve(gamma_.size());
  for (const auto& [k, g] : gamma_) {
    out.emplace_back(k.first, k.second, g);
  }
  return out;
}

CrosstalkPolicy::CrosstalkPolicy(double sigma) : sigma_(sigma) {
  if (sigma < 1.0) {
    throw std::invalid_argument("CrosstalkPolicy: sigma must be >= 1");
  }
}

CrosstalkModel plant_crosstalk(const Topology& topo, double fraction,
                               double gamma_lo, double gamma_hi, Rng rng) {
  if (fraction < 0.0 || fraction > 1.0) {
    throw std::invalid_argument("plant_crosstalk: fraction outside [0,1]");
  }
  if (gamma_lo < 1.0 || gamma_hi < gamma_lo) {
    throw std::invalid_argument("plant_crosstalk: bad gamma range");
  }
  CrosstalkModel model;
  auto candidates = topo.one_hop_edge_pairs();
  rng.shuffle(candidates);
  const auto count = static_cast<std::size_t>(
      std::round(fraction * static_cast<double>(candidates.size())));
  for (std::size_t i = 0; i < count && i < candidates.size(); ++i) {
    model.add_pair(candidates[i].first, candidates[i].second,
                   rng.uniform(gamma_lo, gamma_hi));
  }
  return model;
}

}  // namespace qucp
