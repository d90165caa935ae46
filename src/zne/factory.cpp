#include "zne/factory.hpp"

#include <cmath>
#include <stdexcept>

namespace qucp {

std::vector<double> polyfit(std::span<const double> xs,
                            std::span<const double> ys, int order) {
  if (order < 0) throw std::invalid_argument("polyfit: negative order");
  const std::size_t n = xs.size();
  if (ys.size() != n || static_cast<int>(n) < order + 1) {
    throw std::invalid_argument("polyfit: not enough points");
  }
  const int m = order + 1;
  // Normal equations A c = b with A[i][j] = sum x^(i+j).
  std::vector<std::vector<double>> a(m, std::vector<double>(m, 0.0));
  std::vector<double> b(m, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    double xp = 1.0;
    std::vector<double> powers(2 * m - 1);
    for (int d = 0; d < 2 * m - 1; ++d) {
      powers[d] = xp;
      xp *= xs[k];
    }
    for (int i = 0; i < m; ++i) {
      for (int j = 0; j < m; ++j) a[i][j] += powers[i + j];
      b[i] += powers[i] * ys[k];
    }
  }
  // Gaussian elimination with partial pivoting.
  std::vector<int> perm(m);
  for (int i = 0; i < m; ++i) perm[i] = i;
  for (int col = 0; col < m; ++col) {
    int pivot = col;
    for (int r = col + 1; r < m; ++r) {
      if (std::abs(a[perm[r]][col]) > std::abs(a[perm[pivot]][col])) {
        pivot = r;
      }
    }
    std::swap(perm[col], perm[pivot]);
    const double diag = a[perm[col]][col];
    if (std::abs(diag) < 1e-14) {
      throw std::runtime_error("polyfit: singular normal equations");
    }
    for (int r = col + 1; r < m; ++r) {
      const double f = a[perm[r]][col] / diag;
      for (int c = col; c < m; ++c) a[perm[r]][c] -= f * a[perm[col]][c];
      b[perm[r]] -= f * b[perm[col]];
    }
  }
  std::vector<double> coeff(m, 0.0);
  for (int row = m - 1; row >= 0; --row) {
    double acc = b[perm[row]];
    for (int c = row + 1; c < m; ++c) acc -= a[perm[row]][c] * coeff[c];
    coeff[row] = acc / a[perm[row]][row];
  }
  return coeff;
}

double richardson_extrapolate(std::span<const double> scales,
                              std::span<const double> values) {
  const std::size_t n = scales.size();
  if (values.size() != n || n < 2) {
    throw std::invalid_argument("richardson_extrapolate: need >= 2 points");
  }
  // Lagrange interpolation evaluated at x = 0.
  double result = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    double weight = 1.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      const double denom = scales[i] - scales[j];
      if (std::abs(denom) < 1e-12) {
        throw std::invalid_argument("richardson_extrapolate: duplicate scales");
      }
      weight *= -scales[j] / denom;
    }
    result += weight * values[i];
  }
  return result;
}

}  // namespace qucp
