#pragma once
// Keys for memoizing per-gate artifacts.
//
// GateKey / GateKeyView key a gate by (kind, exact param bit patterns) —
// cache identity, not numeric closeness — with transparent hashing so the
// hit path never copies a params vector (e.g. the statevector's
// thread_local compiled-gate memo). kMaxGateMemoEntries bounds such a
// memo so an endless rotation-angle sweep cannot grow it without limit.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "circuit/gate.hpp"
#include "common/matrix.hpp"

namespace qucp {

/// Owning cache key: a gate kind plus its exact parameter bit patterns.
struct GateKey {
  GateKind kind = GateKind::I;
  std::vector<double> params;
};

/// Non-owning lookup view over the same fields (transparent find).
struct GateKeyView {
  GateKind kind = GateKind::I;
  std::span<const double> params;
};

/// FNV-1a over the kind byte and the params' bit patterns.
struct GateKeyHash {
  using is_transparent = void;
  template <typename K>
  std::size_t operator()(const K& k) const noexcept {
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ULL; };
    mix(static_cast<std::uint64_t>(k.kind));
    for (double p : k.params) mix(std::bit_cast<std::uint64_t>(p));
    return static_cast<std::size_t>(h);
  }
};

struct GateKeyEq {
  using is_transparent = void;
  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const noexcept {
    return a.kind == b.kind &&
           std::equal(a.params.begin(), a.params.end(), b.params.begin(),
                      b.params.end());
  }
};

/// Entry cap for a (kind, params)-keyed memo.
inline constexpr std::size_t kMaxGateMemoEntries = 1 << 14;

}  // namespace qucp
