#ifndef DISMASTD_TESTS_TEST_UTIL_H_
#define DISMASTD_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "stream/generator.h"

namespace dismastd {
namespace test {

/// A *fully observed* low-rank tensor: every coordinate of the box carries
/// the model value (plus optional Gaussian noise). CP decomposition treats
/// absent entries as zeros, so recovery-style assertions (fit -> 1) are only
/// meaningful on fully observed data — a sparsely sampled dense model is
/// *not* recoverable under the zeros-are-data semantics the paper (and any
/// sparse MTTKRP) uses.
struct DenseLowRank {
  SparseTensor tensor;
  std::vector<Matrix> ground_truth;
};

inline DenseLowRank MakeDenseLowRank(const std::vector<uint64_t>& dims,
                                     size_t rank, uint64_t seed,
                                     double noise_stddev = 0.0) {
  GeneratedTensor g =
      GenerateDenseLowRankTensor(dims, rank, noise_stddev, seed);
  return DenseLowRank{std::move(g.tensor), std::move(g.ground_truth)};
}

/// The bit pattern of `v`: bit-exactness checks compare these, so a -0.0
/// never passes for a +0.0.
inline uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// The per-row forward and back substitution of X · LLᵀ = RHS: the oracle
/// the row-list solve (CholeskySolveRows, solve_rows) must match bit for
/// bit.
inline Matrix SolveRowByRow(const Matrix& lower, const Matrix& rhs_rows) {
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

}  // namespace test
}  // namespace dismastd

#endif  // DISMASTD_TESTS_TEST_UTIL_H_
