#include "la/ops.h"

#include "kernels/kernels.h"

namespace dismastd {

Matrix MatMul(const Matrix& a, const Matrix& b) {
  DISMASTD_CHECK(a.cols() == b.rows());
  Matrix c(a.rows(), b.cols());
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  for (size_t i = 0; i < m; ++i) {
    const double* arow = a.RowPtr(i);
    double* crow = c.RowPtr(i);
    for (size_t p = 0; p < k; ++p) {
      const double av = arow[p];
      if (av == 0.0) continue;
      const double* brow = b.RowPtr(p);
      for (size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Matrix Transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < a.cols(); ++j) t(j, i) = a(i, j);
  }
  return t;
}

Matrix TransposeTimes(const Matrix& a, const Matrix& b) {
  DISMASTD_CHECK(a.rows() == b.rows());
  Matrix c(a.cols(), b.cols());
  if (a.cols() == b.cols()) {
    // Every row, contiguous (a null row list); for finite inputs the same
    // bits as the loop below (see gram_rows in kernels/kernels.h).
    kernels::Get().gram_rows(a.data(), b.data(), nullptr, a.rows(), a.cols(),
                             c.data());
    return c;
  }
  const size_t rows = a.rows(), ac = a.cols(), bc = b.cols();
  for (size_t r = 0; r < rows; ++r) {
    const double* arow = a.RowPtr(r);
    const double* brow = b.RowPtr(r);
    for (size_t i = 0; i < ac; ++i) {
      const double av = arow[i];
      if (av == 0.0) continue;
      double* crow = c.RowPtr(i);
      for (size_t j = 0; j < bc; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Matrix Hadamard(const Matrix& a, const Matrix& b) {
  DISMASTD_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  Matrix c = a;
  HadamardInPlace(c, b);
  return c;
}

void HadamardInPlace(Matrix& a, const Matrix& b) {
  DISMASTD_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  double* ad = a.data();
  const double* bd = b.data();
  for (size_t i = 0; i < a.size(); ++i) ad[i] *= bd[i];
}

Matrix KhatriRao(const Matrix& a, const Matrix& b) {
  DISMASTD_CHECK(a.cols() == b.cols());
  const size_t cols = a.cols();
  Matrix c(a.rows() * b.rows(), cols);
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.RowPtr(i);
    for (size_t j = 0; j < b.rows(); ++j) {
      const double* brow = b.RowPtr(j);
      double* crow = c.RowPtr(i * b.rows() + j);
      for (size_t f = 0; f < cols; ++f) crow[f] = arow[f] * brow[f];
    }
  }
  return c;
}

Matrix LinearCombine(double alpha, const Matrix& a, double beta,
                     const Matrix& b) {
  DISMASTD_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  Matrix c(a.rows(), a.cols());
  double* cd = c.data();
  const double* ad = a.data();
  const double* bd = b.data();
  for (size_t i = 0; i < a.size(); ++i) cd[i] = alpha * ad[i] + beta * bd[i];
  return c;
}

void AddInPlace(Matrix& a, const Matrix& b) {
  DISMASTD_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  double* ad = a.data();
  const double* bd = b.data();
  for (size_t i = 0; i < a.size(); ++i) ad[i] += bd[i];
}

double FrobeniusNormSquared(const Matrix& a) {
  double sum = 0.0;
  const double* ad = a.data();
  for (size_t i = 0; i < a.size(); ++i) sum += ad[i] * ad[i];
  return sum;
}

double DotAll(const Matrix& a, const Matrix& b) {
  DISMASTD_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  double sum = 0.0;
  const double* ad = a.data();
  const double* bd = b.data();
  for (size_t i = 0; i < a.size(); ++i) sum += ad[i] * bd[i];
  return sum;
}

double SumAll(const Matrix& a) {
  double sum = 0.0;
  const double* ad = a.data();
  for (size_t i = 0; i < a.size(); ++i) sum += ad[i];
  return sum;
}

double HadamardSum(const std::vector<Matrix>& mats) {
  DISMASTD_CHECK(!mats.empty());
  Matrix acc = mats[0];
  for (size_t m = 1; m < mats.size(); ++m) HadamardInPlace(acc, mats[m]);
  return SumAll(acc);
}

}  // namespace dismastd
