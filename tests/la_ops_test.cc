#include "la/ops.h"

#include <gtest/gtest.h>

#include <tuple>

namespace dismastd {
namespace {

TEST(MatMulTest, KnownProduct) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  const Matrix c = MatMul(a, b);
  EXPECT_TRUE(c.AllClose(Matrix{{19.0, 22.0}, {43.0, 50.0}}));
}

TEST(MatMulTest, IdentityIsNeutral) {
  Rng rng(1);
  const Matrix a = Matrix::Random(4, 4, rng);
  EXPECT_TRUE(MatMul(a, Matrix::Identity(4)).AllClose(a));
  EXPECT_TRUE(MatMul(Matrix::Identity(4), a).AllClose(a));
}

TEST(MatMulTest, RectangularShapes) {
  Rng rng(2);
  const Matrix a = Matrix::Random(2, 5, rng);
  const Matrix b = Matrix::Random(5, 3, rng);
  const Matrix c = MatMul(a, b);
  EXPECT_EQ(c.rows(), 2u);
  EXPECT_EQ(c.cols(), 3u);
}

TEST(TransposeTest, RoundTrip) {
  Rng rng(3);
  const Matrix a = Matrix::Random(3, 5, rng);
  EXPECT_TRUE(Transpose(Transpose(a)).AllClose(a));
  EXPECT_EQ(Transpose(a).rows(), 5u);
}

TEST(TransposeTimesTest, EqualsExplicitTransposeMatMul) {
  Rng rng(4);
  const Matrix a = Matrix::Random(6, 3, rng);
  const Matrix b = Matrix::Random(6, 4, rng);
  EXPECT_TRUE(TransposeTimes(a, b).AllClose(MatMul(Transpose(a), b), 1e-12));
}

TEST(TransposeTimesTest, GramIsSymmetric) {
  Rng rng(5);
  const Matrix a = Matrix::Random(10, 4, rng);
  const Matrix g = TransposeTimes(a, a);
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(g(i, j), g(j, i), 1e-12);
    }
  }
}

TEST(TransposeTimesTest, ZeroRowsYieldsZeroGram) {
  const Matrix a(0, 3);
  const Matrix g = TransposeTimes(a, a);
  EXPECT_EQ(g.rows(), 3u);
  EXPECT_TRUE(g.AllClose(Matrix(3, 3)));
}

TEST(HadamardTest, ElementWiseProduct) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const Matrix b{{2.0, 0.5}, {1.0, -1.0}};
  EXPECT_TRUE(Hadamard(a, b).AllClose(Matrix{{2.0, 1.0}, {3.0, -4.0}}));
}

TEST(HadamardTest, InPlaceMatchesOutOfPlace) {
  Rng rng(6);
  const Matrix a = Matrix::Random(3, 3, rng);
  const Matrix b = Matrix::Random(3, 3, rng);
  Matrix c = a;
  HadamardInPlace(c, b);
  EXPECT_TRUE(c.AllClose(Hadamard(a, b)));
}

TEST(KhatriRaoTest, KnownSmallProduct) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};  // 2x2
  const Matrix b{{5.0, 6.0}};              // 1x2
  const Matrix kr = KhatriRao(a, b);
  // Row (i*1 + j): A[i,:] * B[j,:] elementwise.
  ASSERT_EQ(kr.rows(), 2u);
  EXPECT_TRUE(kr.AllClose(Matrix{{5.0, 12.0}, {15.0, 24.0}}));
}

TEST(KhatriRaoTest, RowOrderingIsSecondOperandFastest) {
  const Matrix a{{1.0}, {10.0}};       // 2x1
  const Matrix b{{2.0}, {3.0}, {4.0}};  // 3x1
  const Matrix kr = KhatriRao(a, b);
  ASSERT_EQ(kr.rows(), 6u);
  // Row i*3+j = a[i]*b[j].
  EXPECT_EQ(kr(0, 0), 2.0);
  EXPECT_EQ(kr(2, 0), 4.0);
  EXPECT_EQ(kr(3, 0), 20.0);
  EXPECT_EQ(kr(5, 0), 40.0);
}

TEST(LinearCombineTest, ComputesAlphaAPlusBetaB) {
  const Matrix a{{1.0, 2.0}};
  const Matrix b{{10.0, 20.0}};
  EXPECT_TRUE(
      LinearCombine(2.0, a, 0.5, b).AllClose(Matrix{{7.0, 14.0}}));
}

TEST(AddInPlaceTest, AddsElementwise) {
  Matrix a{{1.0, 2.0}};
  AddInPlace(a, Matrix{{3.0, 4.0}});
  EXPECT_TRUE(a.AllClose(Matrix{{4.0, 6.0}}));
}

TEST(NormTest, FrobeniusAndDot) {
  const Matrix a{{3.0, 4.0}};
  EXPECT_DOUBLE_EQ(FrobeniusNormSquared(a), 25.0);
  const Matrix b{{1.0, 2.0}};
  EXPECT_DOUBLE_EQ(DotAll(a, b), 11.0);
  EXPECT_DOUBLE_EQ(SumAll(a), 7.0);
}

class OpsPropertyTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(OpsPropertyTest, FrobeniusViaDotSelf) {
  const auto [rows, cols] = GetParam();
  Rng rng(100 + rows * 13 + cols);
  const Matrix a = Matrix::Random(rows, cols, rng);
  EXPECT_NEAR(FrobeniusNormSquared(a), DotAll(a, a), 1e-10);
}

TEST_P(OpsPropertyTest, KhatriRaoGramIdentity) {
  // (A ⊙ B)ᵀ(A ⊙ B) == (AᵀA) * (BᵀB): the identity CP-ALS exploits.
  const auto [rows, cols] = GetParam();
  Rng rng(200 + rows * 13 + cols);
  const Matrix a = Matrix::Random(rows, cols, rng);
  const Matrix b = Matrix::Random(rows + 1, cols, rng);
  const Matrix kr = KhatriRao(a, b);
  const Matrix lhs = TransposeTimes(kr, kr);
  const Matrix rhs =
      Hadamard(TransposeTimes(a, a), TransposeTimes(b, b));
  EXPECT_TRUE(lhs.AllClose(rhs, 1e-9));
}

TEST_P(OpsPropertyTest, MatMulAssociativity) {
  const auto [rows, cols] = GetParam();
  Rng rng(300 + rows * 13 + cols);
  const Matrix a = Matrix::Random(rows, cols, rng);
  const Matrix b = Matrix::Random(cols, rows, rng);
  const Matrix c = Matrix::Random(rows, cols, rng);
  const Matrix lhs = MatMul(MatMul(a, b), c);
  const Matrix rhs = MatMul(a, MatMul(b, c));
  EXPECT_TRUE(lhs.AllClose(rhs, 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, OpsPropertyTest,
    ::testing::Values(std::make_tuple(1u, 1u), std::make_tuple(2u, 3u),
                      std::make_tuple(5u, 2u), std::make_tuple(8u, 8u),
                      std::make_tuple(16u, 4u)));

}  // namespace
}  // namespace dismastd
