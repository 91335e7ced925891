#ifndef DISMASTD_TENSOR_KRUSKAL_H_
#define DISMASTD_TENSOR_KRUSKAL_H_

#include <vector>

#include "la/matrix.h"
#include "tensor/coo_tensor.h"
#include "tensor/dense_tensor.h"

namespace dismastd {

/// CP / Kruskal tensor: X ≈ [[A_1, ..., A_N]], the sum over f of the outer
/// product of the factors' f-th columns. All factor matrices share the
/// column count R (the rank bound).
class KruskalTensor {
 public:
  KruskalTensor() = default;
  explicit KruskalTensor(std::vector<Matrix> factors);

  size_t order() const { return factors_.size(); }
  size_t rank() const { return factors_.empty() ? 0 : factors_[0].cols(); }
  const Matrix& factor(size_t mode) const { return factors_[mode]; }
  Matrix& mutable_factor(size_t mode) { return factors_[mode]; }
  const std::vector<Matrix>& factors() const { return factors_; }

  std::vector<uint64_t> dims() const;

  /// Materializes the full dense tensor (tests / small tensors only).
  DenseTensor Reconstruct() const;

  /// The model's value at one index tuple: Σ_f Π_n A_n[i_n, f]. The
  /// one-tuple case of ValuesAt.
  double ValueAt(const uint64_t* index) const;

  /// The model's values at `count` index tuples of order() entries each:
  /// out[t] = Σ_f Π_n A_n[tuples[t][n], f]. The one Kruskal-value routine
  /// (ValueAt, InnerWithSparse and the serving plane's point and batch
  /// predictions all call it). Up to 64 tuples at a time have every row
  /// resolved, and its first and last cache line prefetched, before the
  /// first of them is scored. All are scored through one kernel-table
  /// fetch, each as hadamard_combine over its first order() - 1 rows, then
  /// dot_strided against the last (against 1.0 broadcast for order 1), so
  /// a value never depends on the tuples scored beside it.
  void ValuesAt(const uint64_t* const* tuples, size_t count,
                double* out) const;

  /// ‖[[A_1..A_N]]‖_F² computed from the R x R Grams:
  /// sum of all elements of (A_1ᵀA_1) * ... * (A_NᵀA_N) (Hadamard).
  /// O(N I R²) instead of materializing the tensor.
  double NormSquaredViaGrams() const;

  /// ⟨X, [[A_1..A_N]]⟩ for a sparse X: Σ_nnz x · Σ_f Π_n A_n[i_n, f],
  /// the values from ValuesAt in blocks, the products added in nnz order.
  double InnerWithSparse(const SparseTensor& x) const;

  /// ‖X - [[A_1..A_N]]‖_F² via the expansion ‖X‖² + ‖Y‖² - 2⟨X,Y⟩,
  /// where only the non-zeros of X are touched.
  double ResidualNormSquared(const SparseTensor& x) const;

  /// Fit = 1 - ‖X - Y‖ / ‖X‖ (clamped at 0 for degenerate X).
  double Fit(const SparseTensor& x) const;

 private:
  std::vector<Matrix> factors_;
};

/// Inner product ⟨[[A_1..A_N]], [[B_1..B_N]]⟩ of two Kruskal tensors with
/// identical dims, computed from cross-Grams: sum of all elements of
/// (A_1ᵀB_1) * ... * (A_NᵀB_N). Used by the paper's L^(0,0,0) loss term.
double KruskalInner(const KruskalTensor& a, const KruskalTensor& b);

}  // namespace dismastd

#endif  // DISMASTD_TENSOR_KRUSKAL_H_
