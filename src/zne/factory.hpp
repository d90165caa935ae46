#pragma once
// Zero-noise extrapolation (Mitiq's Linear/Poly/Richardson fits).
//
// Each fit takes expectation values measured at scale factors >= 1 and
// extrapolates to scale 0. Linear and Poly2 are least-squares fits, the
// intercepts polyfit(scales, values, 1)[0] and polyfit(scales, values, 2)[0],
// which tolerate noisy expectation values; Richardson interpolates exactly
// through all points (Lagrange at 0). run_zne tries all three.

#include <span>
#include <vector>

namespace qucp {

/// Least-squares polynomial fit returning coefficients c0..c_order
/// (normal equations with partial-pivot elimination; sizes here are tiny).
[[nodiscard]] std::vector<double> polyfit(std::span<const double> xs,
                                          std::span<const double> ys,
                                          int order);

/// Richardson extrapolation: the Lagrange interpolant through every
/// (scale, value) sample, evaluated at scale 0. Throws
/// std::invalid_argument on fewer than two points or duplicate scales.
[[nodiscard]] double richardson_extrapolate(std::span<const double> scales,
                                            std::span<const double> values);

}  // namespace qucp
