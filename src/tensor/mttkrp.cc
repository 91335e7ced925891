#include "tensor/mttkrp.h"

#include "kernels/kernels.h"
#include "la/ops.h"
#include "tensor/dense_tensor.h"

namespace dismastd {

Matrix Mttkrp(const SparseTensor& x, const std::vector<const Matrix*>& factors,
              size_t mode) {
  DISMASTD_CHECK(mode < x.order());
  const size_t rank = factors.empty() ? 0 : factors[0]->cols();
  Matrix out(static_cast<size_t>(x.dim(mode)), rank);
  MttkrpAccumulate(x, factors, mode, &out);
  return out;
}

size_t MttkrpAccumulate(const SparseTensor& x,
                        const std::vector<const Matrix*>& factors, size_t mode,
                        Matrix* out) {
  const size_t order = x.order();
  DISMASTD_CHECK(factors.size() == order);
  DISMASTD_CHECK(mode < order);
  const size_t rank = factors[0]->cols();
  for (size_t m = 0; m < order; ++m) {
    DISMASTD_CHECK(factors[m]->cols() == rank);
    DISMASTD_CHECK(factors[m]->rows() >= x.dim(m));
  }
  DISMASTD_CHECK(out->rows() >= x.dim(mode) && out->cols() == rank);

  std::vector<const double*> factor_data(order);
  for (size_t m = 0; m < order; ++m) factor_data[m] = factors[m]->data();
  kernels::Get().mttkrp_coo(x.IndexData(), x.ValueData(), x.nnz(), order,
                            mode, factor_data.data(), rank, out->data());
  return x.nnz();
}

uint64_t MttkrpFlops(uint64_t nnz, size_t order, size_t rank) {
  return nnz * static_cast<uint64_t>(order) * static_cast<uint64_t>(rank);
}

Matrix MttkrpReference(const SparseTensor& x,
                       const std::vector<const Matrix*>& factors,
                       size_t mode) {
  const size_t order = x.order();
  DISMASTD_CHECK(factors.size() == order);
  const DenseTensor dense = DenseTensor::FromSparse(x);
  const Matrix unfolded = dense.Unfold(mode);
  // Build the Khatri-Rao product (A_N ⊙ ... skipping mode ... ⊙ A_1) whose
  // row ordering matches Unfold's column ordering (lowest mode fastest):
  // fold from the lowest mode upward with the accumulated product as the
  // "fast" operand.
  Matrix kr;
  bool first = true;
  for (size_t m = 0; m < order; ++m) {
    if (m == mode) continue;
    // Restrict the factor to the tensor's dims (factors may carry extra
    // rows for indices beyond this tensor).
    Matrix fm = factors[m]->RowSlice(0, static_cast<size_t>(x.dim(m)));
    if (first) {
      kr = std::move(fm);
      first = false;
    } else {
      kr = KhatriRao(fm, kr);  // new mode is slower than everything so far
    }
  }
  return MatMul(unfolded, kr);
}

}  // namespace dismastd
