#include "common/matrix.hpp"

#include <gtest/gtest.h>

namespace qucp {
namespace {

TEST(Matrix, ConstructAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_FALSE(m.is_square());
  m(1, 2) = cx{1.0, -2.0};
  EXPECT_EQ(m(1, 2), (cx{1.0, -2.0}));
}

TEST(Matrix, InitializerListSizeChecked) {
  EXPECT_THROW(Matrix(2, 2, {1, 2, 3}), std::invalid_argument);
  const Matrix m(2, 2, {1, 2, 3, 4});
  EXPECT_EQ(m(0, 1), cx{2.0});
  EXPECT_EQ(m(1, 0), cx{3.0});
}

TEST(Matrix, IdentityAndTrace) {
  const Matrix id = Matrix::identity(4);
  EXPECT_EQ(id.trace(), cx{4.0});
  EXPECT_TRUE(id.is_unitary());
  EXPECT_TRUE(id.is_hermitian());
}

TEST(Matrix, AdditionSubtraction) {
  const Matrix a(2, 2, {1, 2, 3, 4});
  const Matrix b(2, 2, {4, 3, 2, 1});
  const Matrix sum = a + b;
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_EQ(sum(i, j), cx{5.0});
    }
  }
  const Matrix diff = sum - b;
  EXPECT_TRUE(diff.approx_equal(a, 1e-15));
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(2, 2);
  const Matrix b(2, 3);
  EXPECT_THROW(a += b, std::invalid_argument);
  EXPECT_THROW((void)(a * Matrix(3, 3)), std::invalid_argument);
}

TEST(Matrix, MultiplyKnownProduct) {
  const Matrix x(2, 2, {0, 1, 1, 0});
  const Matrix z(2, 2, {1, 0, 0, -1});
  const Matrix xz = x * z;
  // XZ = [[0,-1],[1,0]]
  EXPECT_EQ(xz(0, 0), cx{0.0});
  EXPECT_EQ(xz(0, 1), cx{-1.0});
  EXPECT_EQ(xz(1, 0), cx{1.0});
  EXPECT_EQ(xz(1, 1), cx{0.0});
}

TEST(Matrix, DaggerConjugatesAndTransposes) {
  Matrix m(2, 2);
  m(0, 1) = cx{1.0, 2.0};
  const Matrix d = m.dagger();
  EXPECT_EQ(d(1, 0), (cx{1.0, -2.0}));
  EXPECT_EQ(d(0, 1), cx{0.0});
}

TEST(Matrix, HermitianDetection) {
  Matrix h(2, 2);
  h(0, 0) = 1.0;
  h(1, 1) = -2.0;
  h(0, 1) = cx{0.5, 0.25};
  h(1, 0) = cx{0.5, -0.25};
  EXPECT_TRUE(h.is_hermitian());
  h(1, 0) = cx{0.5, 0.25};
  EXPECT_FALSE(h.is_hermitian());
}

TEST(Matrix, NormAndMaxAbsDiff) {
  const Matrix a(1, 2, {3, 4});
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
  const Matrix b(1, 2, {3, 5});
  EXPECT_DOUBLE_EQ(a.max_abs_diff(b), 1.0);
}

TEST(Matrix, KronDimensionsAndValues) {
  const Matrix x(2, 2, {0, 1, 1, 0});
  const Matrix id = Matrix::identity(2);
  const Matrix k = kron(x, id);
  EXPECT_EQ(k.rows(), 4u);
  // X (x) I swaps the high bit: |00>-><10| etc.
  EXPECT_EQ(k(2, 0), cx{1.0});
  EXPECT_EQ(k(3, 1), cx{1.0});
  EXPECT_EQ(k(0, 2), cx{1.0});
  EXPECT_EQ(k(0, 0), cx{0.0});
}

TEST(Matrix, KronAllEmptyIsScalarIdentity) {
  const Matrix one = kron_all({});
  EXPECT_EQ(one.rows(), 1u);
  EXPECT_EQ(one(0, 0), cx{1.0});
}

TEST(Matrix, KronMixesScalars) {
  const std::vector<Matrix> ms{Matrix::identity(2), Matrix(2, 2, {0, 1, 1, 0})};
  const Matrix k = kron_all(ms);
  EXPECT_EQ(k.rows(), 4u);
  EXPECT_EQ(k(1, 0), cx{1.0});  // I (x) X flips low bit
}

TEST(Matrix, TraceRequiresSquare) {
  const Matrix m(2, 3);
  EXPECT_THROW((void)m.trace(), std::logic_error);
}

TEST(Matrix, UnitaryProductStaysUnitary) {
  const Matrix h(2, 2,
                 {cx{M_SQRT1_2}, cx{M_SQRT1_2}, cx{M_SQRT1_2},
                  cx{-M_SQRT1_2}});
  const Matrix s(2, 2, {1, 0, 0, cx{0, 1}});
  EXPECT_TRUE((h * s).is_unitary(1e-12));
  EXPECT_TRUE(kron(h, s).is_unitary(1e-12));
}

}  // namespace
}  // namespace qucp
