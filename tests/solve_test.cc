#include "la/solve.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "la/ops.h"

namespace dismastd {
namespace {

Matrix RandomSpd(size_t n, uint64_t seed) {
  Rng rng(seed);
  const Matrix a = Matrix::Random(n + 2, n, rng);
  Matrix spd = TransposeTimes(a, a);
  for (size_t i = 0; i < n; ++i) spd(i, i) += 0.1;  // safely PD
  return spd;
}

TEST(CholeskyTest, FactorReconstructs) {
  const Matrix a = RandomSpd(5, 11);
  Matrix lower;
  ASSERT_TRUE(CholeskyFactor(a, &lower).ok());
  const Matrix rebuilt = MatMul(lower, Transpose(lower));
  EXPECT_TRUE(rebuilt.AllClose(a, 1e-9));
}

TEST(CholeskyTest, FailsOnIndefinite) {
  Matrix indef = Matrix::Identity(3);
  indef(2, 2) = -1.0;
  Matrix lower;
  const Status s = CholeskyFactor(indef, &lower);
  EXPECT_EQ(s.code(), StatusCode::kNumericalError);
}

TEST(CholeskyTest, FailsOnZeroMatrix) {
  Matrix lower;
  EXPECT_FALSE(CholeskyFactor(Matrix(3, 3), &lower).ok());
}

TEST(CholeskySolveRowsTest, SolvesRowSystems) {
  const Matrix a = RandomSpd(4, 13);
  Rng rng(17);
  const Matrix x_true = Matrix::Random(6, 4, rng);  // 6 row systems
  const Matrix rhs = MatMul(x_true, a);             // rhs = X·A (A symmetric)
  Matrix lower;
  ASSERT_TRUE(CholeskyFactor(a, &lower).ok());
  const Matrix x = CholeskySolveRows(lower, rhs);
  EXPECT_TRUE(x.AllClose(x_true, 1e-8));
}

/// The per-row forward and back substitution CholeskySolveRows used to run:
/// the oracle its row-interleaved blocks must match bit for bit.
Matrix SolveRowByRow(const Matrix& lower, const Matrix& rhs_rows) {
  const size_t n = lower.rows();
  Matrix x(rhs_rows.rows(), n);
  std::vector<double> y(n);
  for (size_t r = 0; r < rhs_rows.rows(); ++r) {
    const double* b = rhs_rows.RowPtr(r);
    for (size_t i = 0; i < n; ++i) {
      double sum = b[i];
      for (size_t k = 0; k < i; ++k) sum -= lower(i, k) * y[k];
      y[i] = sum / lower(i, i);
    }
    double* out = x.RowPtr(r);
    for (size_t ii = n; ii-- > 0;) {
      double sum = y[ii];
      for (size_t k = ii + 1; k < n; ++k) sum -= lower(k, ii) * out[k];
      out[ii] = sum / lower(ii, ii);
    }
  }
  return x;
}

TEST(CholeskySolveRowsTest, BlockedMatchesPerRowOracleBitForBit) {
  // Ranks around the 8-lane width and row counts around the 8-row block:
  // empty, a lone padded row, partial, exact and overflowing blocks.
  for (size_t n : {1u, 2u, 7u, 8u, 9u, 10u, 16u, 17u}) {
    Matrix lower;
    ASSERT_TRUE(CholeskyFactor(RandomSpd(n, 41 + n), &lower).ok());
    for (size_t m : {0u, 1u, 7u, 8u, 9u, 65u}) {
      Rng rng(43 + 100 * n + m);
      const Matrix rhs = Matrix::RandomGaussian(m, n, rng);
      const Matrix x = CholeskySolveRows(lower, rhs);
      EXPECT_TRUE(x == SolveRowByRow(lower, rhs)) << "R=" << n << " rows=" << m;
    }
  }
}

TEST(SolveNormalEquationsTest, MatchesCholeskyOnWellConditioned) {
  const Matrix a = RandomSpd(4, 19);
  Rng rng(23);
  const Matrix x_true = Matrix::Random(3, 4, rng);
  const Matrix rhs = MatMul(x_true, a);
  const Matrix x = SolveNormalEquationsRows(a, rhs);
  EXPECT_TRUE(x.AllClose(x_true, 1e-8));
}

TEST(SolveNormalEquationsTest, RidgeRescuesSingularMatrix) {
  // Rank-1 Gram: plain Cholesky fails, the ridge fallback must still
  // produce a finite solution.
  const Matrix v{{1.0, 2.0, 3.0}};
  const Matrix a = MatMul(Transpose(v), v);  // 3x3 rank 1
  const Matrix rhs{{1.0, 2.0, 3.0}};
  const Matrix x = SolveNormalEquationsRows(a, rhs);
  ASSERT_EQ(x.rows(), 1u);
  for (size_t c = 0; c < 3; ++c) {
    EXPECT_TRUE(std::isfinite(x(0, c)));
  }
  // Residual of the regularized solve stays small relative to rhs.
  const Matrix back = MatMul(x, a);
  EXPECT_TRUE(back.AllClose(rhs, 1e-3));
}

TEST(SolveNormalEquationsTest, AllZeroGramGivesZeroNotNan) {
  const Matrix a(3, 3);
  const Matrix rhs{{1.0, 1.0, 1.0}};
  const Matrix x = SolveNormalEquationsRows(a, rhs);
  for (size_t c = 0; c < 3; ++c) EXPECT_TRUE(std::isfinite(x(0, c)));
}

TEST(SolveNormalEquationsTest, FactorOnceKeepsRidgeRetryAndZeroFallback) {
  const Matrix rhs{{1.0, 2.0, 3.0}, {-1.0, 0.5, 2.0}};
  // Rank-1 Gram: plain Cholesky fails, the retry factors A + ridge·I with
  // a tiny ridge, and the split solve reproduces the one-call solve.
  const Matrix v{{1.0, 2.0, 3.0}};
  const Matrix a = MatMul(Transpose(v), v);
  Matrix plain;
  ASSERT_FALSE(CholeskyFactor(a, &plain).ok());
  const Matrix lower = FactorNormalEquations(a);
  ASSERT_EQ(lower.rows(), 3u);
  const Matrix rebuilt = MatMul(lower, Transpose(lower));
  EXPECT_GT(rebuilt(1, 1), a(1, 1));
  EXPECT_TRUE(rebuilt.AllClose(a, 1e-6));
  const Matrix x = SolveFactoredRows(lower, rhs);
  EXPECT_TRUE(x == SolveNormalEquationsRows(a, rhs));
  for (size_t i = 0; i < x.size(); ++i) EXPECT_TRUE(std::isfinite(x.data()[i]));

  // An all-zero Gram is rescued by the ridge too; a NaN pivot fails every
  // retry, and the solve falls back to the all-zero update.
  EXPECT_EQ(FactorNormalEquations(Matrix(3, 3)).rows(), 3u);
  Matrix nan_gram = Matrix::Identity(3);
  nan_gram(1, 1) = std::nan("");
  const Matrix failed = FactorNormalEquations(nan_gram);
  EXPECT_TRUE(failed.empty());
  EXPECT_TRUE(SolveFactoredRows(failed, rhs) == Matrix(2, 3));
  EXPECT_TRUE(SolveNormalEquationsRows(nan_gram, rhs) == Matrix(2, 3));
}

TEST(LuSolveTest, SolvesGeneralSystem) {
  const Matrix a{{0.0, 2.0, 1.0}, {1.0, -2.0, -3.0}, {-1.0, 1.0, 2.0}};
  const Matrix b{{-1.0}, {-1.0}, {1.0}};
  Matrix x;
  ASSERT_TRUE(LuSolve(a, b, &x).ok());
  EXPECT_TRUE(MatMul(a, x).AllClose(b, 1e-10));
}

TEST(LuSolveTest, RequiresPivoting) {
  // a(0,0) == 0 forces a row swap.
  const Matrix a{{0.0, 1.0}, {1.0, 0.0}};
  const Matrix b{{2.0}, {3.0}};
  Matrix x;
  ASSERT_TRUE(LuSolve(a, b, &x).ok());
  EXPECT_NEAR(x(0, 0), 3.0, 1e-12);
  EXPECT_NEAR(x(1, 0), 2.0, 1e-12);
}

TEST(LuSolveTest, SingularFails) {
  const Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  Matrix x;
  EXPECT_EQ(LuSolve(a, Matrix::Identity(2), &x).code(),
            StatusCode::kNumericalError);
}

TEST(InverseTest, InverseTimesSelfIsIdentity) {
  const Matrix a = RandomSpd(5, 29);
  Matrix inv;
  ASSERT_TRUE(Inverse(a, &inv).ok());
  EXPECT_TRUE(MatMul(a, inv).AllClose(Matrix::Identity(5), 1e-8));
}

class SolveSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SolveSizeTest, CholeskyAndLuAgree) {
  const size_t n = GetParam();
  const Matrix a = RandomSpd(n, 31 + n);
  Rng rng(37 + n);
  const Matrix x_true = Matrix::Random(4, n, rng);
  const Matrix rhs = MatMul(x_true, a);
  // Row-solve via Cholesky.
  const Matrix x_chol = SolveNormalEquationsRows(a, rhs);
  // Column-solve via LU: A Xᵀ = RHSᵀ.
  Matrix xt;
  ASSERT_TRUE(LuSolve(a, Transpose(rhs), &xt).ok());
  EXPECT_TRUE(x_chol.AllClose(Transpose(xt), 1e-7));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SolveSizeTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 10u, 16u));

}  // namespace
}  // namespace dismastd
