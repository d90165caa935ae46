#include "vqe/pauli.hpp"

#include <gtest/gtest.h>

namespace qucp {
namespace {

TEST(Pauli, LabelRoundTrip) {
  for (const char* label : {"II", "IZ", "ZI", "ZZ", "XX", "XYZ", "IXYZ"}) {
    EXPECT_EQ(PauliString(label).label(), label);
  }
  EXPECT_THROW(PauliString(""), std::invalid_argument);
  EXPECT_THROW(PauliString("AB"), std::invalid_argument);
}

TEST(Pauli, LabelConvention) {
  // Leftmost char = highest qubit: "IZ" is Z on qubit 0.
  const PauliString p("IZ");
  EXPECT_EQ(p.op(0), PauliOp::Z);
  EXPECT_EQ(p.op(1), PauliOp::I);
  const PauliString q("ZI");
  EXPECT_EQ(q.op(0), PauliOp::I);
  EXPECT_EQ(q.op(1), PauliOp::Z);
}

TEST(Pauli, IdentityConstructor) {
  const PauliString p(3);
  EXPECT_TRUE(p.is_identity());
  EXPECT_EQ(p.label(), "III");
  EXPECT_THROW(PauliString(0), std::invalid_argument);
}

TEST(Pauli, SetOpAndSupport) {
  PauliString p(4);
  p.set_op(1, PauliOp::X);
  p.set_op(3, PauliOp::Z);
  EXPECT_EQ(p.support(), (std::vector<int>{1, 3}));
  EXPECT_FALSE(p.is_identity());
  EXPECT_THROW(p.set_op(4, PauliOp::X), std::out_of_range);
}

TEST(Pauli, MatrixOfZZ) {
  const Matrix m = PauliString("ZZ").matrix();
  EXPECT_EQ(m.rows(), 4u);
  EXPECT_EQ(m(0, 0), cx{1.0});
  EXPECT_EQ(m(1, 1), cx{-1.0});
  EXPECT_EQ(m(2, 2), cx{-1.0});
  EXPECT_EQ(m(3, 3), cx{1.0});
}

TEST(Pauli, MatrixOfIZIsZOnQubit0) {
  // Little-endian: "IZ" = Z on qubit 0 -> diag(1,-1,1,-1).
  const Matrix m = PauliString("IZ").matrix();
  EXPECT_EQ(m(0, 0), cx{1.0});
  EXPECT_EQ(m(1, 1), cx{-1.0});
  EXPECT_EQ(m(2, 2), cx{1.0});
  EXPECT_EQ(m(3, 3), cx{-1.0});
}

TEST(Pauli, MatricesAreHermitianAndUnitary) {
  for (const char* label : {"X", "Y", "Z", "XY", "ZXY", "IYI"}) {
    const Matrix m = PauliString(label).matrix();
    EXPECT_TRUE(m.is_hermitian(1e-12)) << label;
    EXPECT_TRUE(m.is_unitary(1e-12)) << label;
  }
}

TEST(Pauli, QubitWiseCommutation) {
  // The paper's H2 grouping: {II, IZ, ZI, ZZ} mutually QWC; XX not with IZ.
  const PauliString ii("II"), iz("IZ"), zi("ZI"), zz("ZZ"), xx("XX");
  EXPECT_TRUE(ii.qubit_wise_commutes_with(zz));
  EXPECT_TRUE(iz.qubit_wise_commutes_with(zi));
  EXPECT_TRUE(iz.qubit_wise_commutes_with(zz));
  EXPECT_TRUE(zi.qubit_wise_commutes_with(zz));
  EXPECT_FALSE(xx.qubit_wise_commutes_with(iz));
  EXPECT_FALSE(xx.qubit_wise_commutes_with(zz));
  EXPECT_TRUE(xx.qubit_wise_commutes_with(ii));
}

TEST(Pauli, QwcImpliesCommuting) {
  const std::vector<std::string> labels{"IX", "XI", "XX", "ZZ", "IZ", "YY"};
  for (const auto& a : labels) {
    for (const auto& b : labels) {
      const PauliString pa(a), pb(b);
      if (pa.qubit_wise_commutes_with(pb)) {
        const Matrix ma = pa.matrix();
        const Matrix mb = pb.matrix();
        EXPECT_LT((ma * mb - mb * ma).norm(), 1e-12) << a << " " << b;
      }
    }
  }
}

TEST(Pauli, EqualityOperator) {
  EXPECT_EQ(PauliString("XZ"), PauliString("XZ"));
  EXPECT_NE(PauliString("XZ"), PauliString("ZX"));
}

}  // namespace
}  // namespace qucp
