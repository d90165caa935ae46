#include "common/matrix.hpp"

#include <cmath>
#include <stdexcept>

namespace qucp {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, cx{0.0, 0.0}) {}

Matrix::Matrix(std::size_t rows, std::size_t cols,
               std::initializer_list<cx> vals)
    : Matrix(rows, cols) {
  if (vals.size() != rows * cols) {
    throw std::invalid_argument("Matrix: initializer size mismatch");
  }
  std::size_t i = 0;
  for (const cx& v : vals) data_[i++] = v;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_) {
    throw std::invalid_argument("Matrix::+=: shape mismatch");
  }
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_) {
    throw std::invalid_argument("Matrix::-=: shape mismatch");
  }
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(cx scalar) {
  for (cx& v : data_) v *= scalar;
  return *this;
}

Matrix Matrix::operator+(const Matrix& rhs) const {
  Matrix out = *this;
  out += rhs;
  return out;
}

Matrix Matrix::operator-(const Matrix& rhs) const {
  Matrix out = *this;
  out -= rhs;
  return out;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  if (cols_ != rhs.rows_) {
    throw std::invalid_argument("Matrix::*: shape mismatch");
  }
  Matrix out(rows_, rhs.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const cx aik = (*this)(i, k);
      if (aik == cx{0.0, 0.0}) continue;
      for (std::size_t j = 0; j < rhs.cols_; ++j) {
        out(i, j) += aik * rhs(k, j);
      }
    }
  }
  return out;
}

Matrix Matrix::dagger() const {
  Matrix out(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) {
      out(j, i) = std::conj((*this)(i, j));
    }
  }
  return out;
}

cx Matrix::trace() const {
  if (!is_square()) throw std::logic_error("Matrix::trace: not square");
  cx t{0.0, 0.0};
  for (std::size_t i = 0; i < rows_; ++i) t += (*this)(i, i);
  return t;
}

double Matrix::norm() const {
  double s = 0.0;
  for (const cx& v : data_) s += std::norm(v);
  return std::sqrt(s);
}

double Matrix::max_abs_diff(const Matrix& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    throw std::invalid_argument("Matrix::max_abs_diff: shape mismatch");
  }
  double m = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    m = std::max(m, std::abs(data_[i] - other.data_[i]));
  }
  return m;
}

bool Matrix::approx_equal(const Matrix& other, double tol) const {
  return max_abs_diff(other) <= tol;
}

bool Matrix::is_unitary(double tol) const {
  if (!is_square()) return false;
  return ((*this) * dagger()).approx_equal(Matrix::identity(rows_), tol);
}

bool Matrix::is_hermitian(double tol) const {
  if (!is_square()) return false;
  return approx_equal(dagger(), tol);
}

Matrix kron(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows() * b.rows(), a.cols() * b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      const cx aij = a(i, j);
      if (aij == cx{0.0, 0.0}) continue;
      for (std::size_t k = 0; k < b.rows(); ++k) {
        for (std::size_t l = 0; l < b.cols(); ++l) {
          out(i * b.rows() + k, j * b.cols() + l) = aij * b(k, l);
        }
      }
    }
  }
  return out;
}

Matrix kron_all(std::span<const Matrix> ms) {
  if (ms.empty()) return Matrix::identity(1);
  Matrix out = ms[0];
  for (std::size_t i = 1; i < ms.size(); ++i) out = kron(out, ms[i]);
  return out;
}

}  // namespace qucp
