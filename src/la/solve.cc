#include "la/solve.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace dismastd {

Status CholeskyFactor(const Matrix& a, Matrix* lower) {
  DISMASTD_CHECK(a.rows() == a.cols());
  const size_t n = a.rows();
  Matrix l(n, n);
  for (size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (!(diag > 0.0)) {
      return Status::NumericalError("Cholesky: non-positive pivot at " +
                                    std::to_string(j));
    }
    l(j, j) = std::sqrt(diag);
    for (size_t i = j + 1; i < n; ++i) {
      double sum = a(i, j);
      for (size_t k = 0; k < j; ++k) sum -= l(i, k) * l(j, k);
      l(i, j) = sum / l(j, j);
    }
  }
  *lower = std::move(l);
  return Status::OK();
}

Matrix CholeskySolveRows(const Matrix& lower, const Matrix& rhs_rows) {
  const size_t n = lower.rows();
  DISMASTD_CHECK(lower.cols() == n && rhs_rows.cols() == n);
  const size_t m = rhs_rows.rows();
  Matrix x(m, n);
  // Rows are solved kBlock at a time, lane-parallel: block[i * kBlock + l]
  // holds element i of the block's row l, so each substitution step is one
  // independent operation across the block's rows, which the compiler
  // vectorizes. Each row runs exactly the per-row recurrences below, in the
  // same order and with a true division (no reciprocal), so each result is
  // bit-identical to solving that row alone. A partial last block is padded
  // with zero rows, which stay zero.
  constexpr size_t kBlock = 8;
  std::vector<double> block(n * kBlock);
  for (size_t r0 = 0; r0 < m; r0 += kBlock) {
    const size_t rows = std::min(kBlock, m - r0);
    if (rows < kBlock) std::fill(block.begin(), block.end(), 0.0);
    for (size_t l = 0; l < rows; ++l) {
      const double* b = rhs_rows.RowPtr(r0 + l);
      for (size_t i = 0; i < n; ++i) block[i * kBlock + l] = b[i];
    }
    // Forward substitution L y = b: y_i = (b_i - Σ_{k<i} L_ik y_k) / L_ii.
    for (size_t i = 0; i < n; ++i) {
      double acc[kBlock];
      std::copy_n(&block[i * kBlock], kBlock, acc);
      for (size_t k = 0; k < i; ++k) {
        const double lik = lower(i, k);
        const double* yk = &block[k * kBlock];
        for (size_t l = 0; l < kBlock; ++l) acc[l] -= lik * yk[l];
      }
      const double diag = lower(i, i);
      for (size_t l = 0; l < kBlock; ++l) block[i * kBlock + l] = acc[l] / diag;
    }
    // Back substitution Lᵀ z = y: z_i = (y_i - Σ_{k>i} L_ki z_k) / L_ii.
    for (size_t i = n; i-- > 0;) {
      double acc[kBlock];
      std::copy_n(&block[i * kBlock], kBlock, acc);
      for (size_t k = i + 1; k < n; ++k) {
        const double lki = lower(k, i);
        const double* zk = &block[k * kBlock];
        for (size_t l = 0; l < kBlock; ++l) acc[l] -= lki * zk[l];
      }
      const double diag = lower(i, i);
      for (size_t l = 0; l < kBlock; ++l) block[i * kBlock + l] = acc[l] / diag;
    }
    for (size_t l = 0; l < rows; ++l) {
      double* out = x.RowPtr(r0 + l);
      for (size_t i = 0; i < n; ++i) out[i] = block[i * kBlock + l];
    }
  }
  return x;
}

Matrix FactorNormalEquations(const Matrix& a) {
  DISMASTD_CHECK(a.rows() == a.cols());
  const size_t n = a.rows();
  double trace = 0.0;
  for (size_t i = 0; i < n; ++i) trace += a(i, i);
  double ridge = 0.0;
  Matrix lower;
  for (int attempt = 0; attempt < 12; ++attempt) {
    Matrix work = a;
    if (ridge > 0.0) {
      for (size_t i = 0; i < n; ++i) work(i, i) += ridge;
    }
    if (CholeskyFactor(work, &lower).ok()) return lower;
    const double base =
        trace > 0.0 ? trace / static_cast<double>(n) : 1.0;
    ridge = ridge == 0.0 ? 1e-12 * base : ridge * 100.0;
  }
  return Matrix();
}

Matrix SolveFactoredRows(const Matrix& lower, const Matrix& rhs_rows) {
  // Every ridge retry failed (e.g. a NaN Gram): fall back to the zero
  // update so callers never see NaNs.
  if (lower.empty()) return Matrix(rhs_rows.rows(), rhs_rows.cols());
  return CholeskySolveRows(lower, rhs_rows);
}

Matrix SolveNormalEquationsRows(const Matrix& a, const Matrix& rhs_rows) {
  return SolveFactoredRows(FactorNormalEquations(a), rhs_rows);
}

Status LuSolve(const Matrix& a, const Matrix& b, Matrix* x) {
  DISMASTD_CHECK(a.rows() == a.cols());
  DISMASTD_CHECK(a.rows() == b.rows());
  const size_t n = a.rows();
  Matrix lu = a;
  std::vector<size_t> perm(n);
  for (size_t i = 0; i < n; ++i) perm[i] = i;

  for (size_t col = 0; col < n; ++col) {
    // Partial pivoting.
    size_t pivot = col;
    double best = std::abs(lu(col, col));
    for (size_t r = col + 1; r < n; ++r) {
      const double v = std::abs(lu(r, col));
      if (v > best) {
        best = v;
        pivot = r;
      }
    }
    if (best < 1e-14) {
      return Status::NumericalError("LuSolve: singular matrix");
    }
    if (pivot != col) {
      for (size_t c = 0; c < n; ++c) std::swap(lu(col, c), lu(pivot, c));
      std::swap(perm[col], perm[pivot]);
    }
    for (size_t r = col + 1; r < n; ++r) {
      lu(r, col) /= lu(col, col);
      const double factor = lu(r, col);
      for (size_t c = col + 1; c < n; ++c) lu(r, c) -= factor * lu(col, c);
    }
  }

  Matrix result(n, b.cols());
  std::vector<double> y(n);
  for (size_t rhs = 0; rhs < b.cols(); ++rhs) {
    // Forward: L y = P b.
    for (size_t i = 0; i < n; ++i) {
      double sum = b(perm[i], rhs);
      for (size_t k = 0; k < i; ++k) sum -= lu(i, k) * y[k];
      y[i] = sum;
    }
    // Back: U x = y.
    for (size_t ii = n; ii-- > 0;) {
      double sum = y[ii];
      for (size_t k = ii + 1; k < n; ++k) sum -= lu(ii, k) * result(k, rhs);
      result(ii, rhs) = sum / lu(ii, ii);
    }
  }
  *x = std::move(result);
  return Status::OK();
}

Status Inverse(const Matrix& a, Matrix* inv) {
  return LuSolve(a, Matrix::Identity(a.rows()), inv);
}

}  // namespace dismastd
