#pragma once
// Small dense complex matrices for gate unitaries, density matrices and
// Hamiltonians. Sizes here are tiny (2^n for n <= ~10), so a straightforward
// row-major std::vector backing with O(n^3) multiply is the right tool.

#include <complex>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace qucp {

using cx = std::complex<double>;

/// Dense row-major complex matrix.
///
/// Invariant: data().size() == rows() * cols().
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols);
  Matrix(std::size_t rows, std::size_t cols, std::initializer_list<cx> vals);

  [[nodiscard]] static Matrix identity(std::size_t n);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool is_square() const noexcept { return rows_ == cols_; }

  cx& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  const cx& operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<const cx> data() const noexcept { return data_; }
  [[nodiscard]] std::span<cx> data() noexcept { return data_; }

  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(cx scalar);

  [[nodiscard]] Matrix operator+(const Matrix& rhs) const;
  [[nodiscard]] Matrix operator-(const Matrix& rhs) const;
  [[nodiscard]] Matrix operator*(const Matrix& rhs) const;

  /// Conjugate transpose.
  [[nodiscard]] Matrix dagger() const;

  [[nodiscard]] cx trace() const;

  /// Frobenius norm.
  [[nodiscard]] double norm() const;

  /// Max |a_ij - b_ij|; matrices must have equal shape.
  [[nodiscard]] double max_abs_diff(const Matrix& other) const;

  /// True when max_abs_diff(other) <= tol.
  [[nodiscard]] bool approx_equal(const Matrix& other, double tol) const;

  /// True when U * U^dagger == I within tol.
  [[nodiscard]] bool is_unitary(double tol = 1e-9) const;

  /// True when A == A^dagger within tol.
  [[nodiscard]] bool is_hermitian(double tol = 1e-9) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<cx> data_;
};

/// Kronecker (tensor) product a (x) b.
[[nodiscard]] Matrix kron(const Matrix& a, const Matrix& b);

/// Kronecker product of a list, left to right: ms[0] (x) ms[1] (x) ...
[[nodiscard]] Matrix kron_all(std::span<const Matrix> ms);

}  // namespace qucp
