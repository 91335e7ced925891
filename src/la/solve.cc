#include "la/solve.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "kernels/kernels.h"

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
  std::vector<uint64_t> rows(m);
  std::iota(rows.begin(), rows.end(), uint64_t{0});
  kernels::Get().solve_rows(lower.data(), n, rhs_rows.data(), nullptr,
                            nullptr, 0.0, rows.data(), m, x.data());
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
