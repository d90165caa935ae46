#pragma once
// Digital noise scaling by unitary folding (Giurgica-Tiron et al.; the
// Mitiq primitives the paper uses).
//
// Folding a gate G into G G^dagger G leaves the ideal circuit invariant
// while tripling that gate's noise exposure. A scale factor s >= 1 selects
// how many gates to fold: the folded circuit has ~s times the original
// gate count. fold_gates_at_random picks the folded subset randomly, as
// the paper does.

#include "circuit/circuit.hpp"
#include "common/rng.hpp"

namespace qucp {

/// Random gate folding to reach `scale` (>= 1). Measurements/barriers are
/// untouched and stay terminal. scale in [1, 3] folds a subset once;
/// larger scales apply full folds first, then a random partial fold.
[[nodiscard]] Circuit fold_gates_at_random(const Circuit& circuit,
                                           double scale, Rng rng);

/// Achieved scale: folded unitary gate count / original count.
[[nodiscard]] double achieved_scale(const Circuit& original,
                                    const Circuit& folded);

/// The paper's scale list: 1.0 to 2.5 with step 0.5 (4 folded circuits).
[[nodiscard]] std::vector<double> paper_scale_factors();

}  // namespace qucp
