#include "core/dtd.h"

#include <cmath>

#include "la/ops.h"
#include "la/solve.h"
#include "tensor/mttkrp.h"

namespace dismastd {

std::vector<Matrix> InitializeDtdFactors(const std::vector<uint64_t>& new_dims,
                                         const std::vector<uint64_t>& old_dims,
                                         const KruskalTensor& prev,
                                         const DecompositionOptions& options) {
  const size_t order = new_dims.size();
  DISMASTD_CHECK(old_dims.size() == order);
  Rng rng(options.seed);
  std::vector<Matrix> factors;
  factors.reserve(order);
  for (size_t n = 0; n < order; ++n) {
    DISMASTD_CHECK(old_dims[n] <= new_dims[n]);
    const size_t d_n = static_cast<size_t>(new_dims[n] - old_dims[n]);
    Matrix fresh = Matrix::Random(d_n, options.rank, rng);
    if (old_dims[n] == 0) {
      factors.push_back(std::move(fresh));
    } else {
      DISMASTD_CHECK(prev.order() == order);
      DISMASTD_CHECK(prev.factor(n).rows() == old_dims[n]);
      DISMASTD_CHECK(prev.factor(n).cols() == options.rank);
      factors.push_back(Matrix::VStack(prev.factor(n), fresh));
    }
  }
  return factors;
}

void DtdOldRowNumerator(const kernels::KernelTable& kern,
                        const Matrix& had_h_t, double mu,
                        const double* prev_row, const double* mttkrp_row,
                        double* out) {
  const size_t rank = had_h_t.rows();
  kern.topk_score_block(had_h_t.data(), rank, rank, prev_row, out);
  for (size_t c = 0; c < rank; ++c) out[c] = mu * out[c] + mttkrp_row[c];
}

AlsResult DynamicTensorDecomposition(const SparseTensor& delta,
                                     const std::vector<uint64_t>& old_dims,
                                     const KruskalTensor& prev,
                                     const DecompositionOptions& options) {
  const size_t order = delta.order();
  DISMASTD_CHECK(old_dims.size() == order);
  DISMASTD_CHECK(options.rank >= 1);
  const double mu = options.mu;
  const kernels::KernelTable& kern = kernels::Get();

  bool has_prev = false;
  for (uint64_t d : old_dims) has_prev = has_prev || d > 0;

  std::vector<Matrix> factors =
      InitializeDtdFactors(delta.dims(), old_dims, prev, options);

  // Cached R x R products, maintained after each mode update (§IV-B3):
  //   g0[k] = A_k^(0)ᵀ A_k^(0),  g1[k] = A_k^(1)ᵀ A_k^(1),
  //   h[k]  = Ã_kᵀ A_k^(0).
  std::vector<Matrix> g0(order), g1(order), h(order);
  auto refresh_products = [&](size_t n) {
    const size_t old_rows = static_cast<size_t>(old_dims[n]);
    const Matrix a0 = factors[n].RowSlice(0, old_rows);
    const Matrix a1 = factors[n].RowSlice(old_rows, factors[n].rows());
    g0[n] = old_rows > 0 ? TransposeTimes(a0, a0)
                         : Matrix(options.rank, options.rank);
    g1[n] = a1.rows() > 0 ? TransposeTimes(a1, a1)
                          : Matrix(options.rank, options.rank);
    h[n] = old_rows > 0 ? TransposeTimes(prev.factor(n), a0)
                        : Matrix(options.rank, options.rank);
  };
  for (size_t n = 0; n < order; ++n) refresh_products(n);

  // Constant loss ingredients (§IV-B4): ‖[[Ã_1..Ã_N]]‖² and ‖X \ X̃‖².
  double prev_model_norm_sq = 0.0;
  if (has_prev) prev_model_norm_sq = prev.NormSquaredViaGrams();
  const double delta_norm_sq = delta.NormSquared();

  AlsResult result;
  double prev_loss = -1.0;

  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    Matrix mttkrp_last;
    for (size_t n = 0; n < order; ++n) {
      const size_t old_rows = static_cast<size_t>(old_dims[n]);
      const size_t new_rows = factors[n].rows() - old_rows;

      std::vector<const Matrix*> factor_ptrs(order);
      for (size_t k = 0; k < order; ++k) factor_ptrs[k] = &factors[k];
      // One pass over the non-zeros of X \ X̃ covers every sub-tensor of
      // S_n^0 and S_n^1 at once: the row index decides which update the
      // contribution feeds.
      Matrix mttkrp = Mttkrp(delta, factor_ptrs, n);

      // Hadamard accumulations over k != n.
      Matrix had_h(options.rank, options.rank);
      Matrix had_g01(options.rank, options.rank);
      Matrix had_g0(options.rank, options.rank);
      bool first = true;
      for (size_t k = 0; k < order; ++k) {
        if (k == n) continue;
        const Matrix g01 = LinearCombine(1.0, g0[k], 1.0, g1[k]);
        if (first) {
          had_h = h[k];
          had_g01 = g01;
          had_g0 = g0[k];
          first = false;
        } else {
          HadamardInPlace(had_h, h[k]);
          HadamardInPlace(had_g01, g01);
          HadamardInPlace(had_g0, g0[k]);
        }
      }

      // A_n^(0) update (Eq. 5, first rule).
      if (old_rows > 0) {
        const Matrix had_h_t = Transpose(had_h);
        Matrix numerator(old_rows, options.rank);
        for (size_t r = 0; r < old_rows; ++r) {
          DtdOldRowNumerator(kern, had_h_t, mu, prev.factor(n).RowPtr(r),
                             mttkrp.RowPtr(r), numerator.RowPtr(r));
        }
        const Matrix denom = LinearCombine(1.0, had_g01, -(1.0 - mu), had_g0);
        const Matrix a0 = SolveNormalEquationsRows(denom, numerator);
        for (size_t r = 0; r < old_rows; ++r) {
          std::copy(a0.RowPtr(r), a0.RowPtr(r) + options.rank,
                    factors[n].RowPtr(r));
        }
      }
      // A_n^(1) update (Eq. 5, second rule).
      if (new_rows > 0) {
        const Matrix numerator =
            mttkrp.RowSlice(old_rows, old_rows + new_rows);
        const Matrix a1 = SolveNormalEquationsRows(had_g01, numerator);
        for (size_t r = 0; r < new_rows; ++r) {
          std::copy(a1.RowPtr(r), a1.RowPtr(r) + options.rank,
                    factors[n].RowPtr(old_rows + r));
        }
      }
      refresh_products(n);
      if (n + 1 == order) mttkrp_last = std::move(mttkrp);
    }

    // Loss (Eq. 4) assembled from maintained intermediates (§IV-B4):
    //   L = μ‖[[Ã]] - [[A^(0)]]‖² + ‖X\X̃‖² + (‖Y‖² - ‖Y^(0..0)‖²) - 2⟨X\X̃, Y⟩.
    Matrix had_g0_all = g0[0];
    Matrix had_g01_all = LinearCombine(1.0, g0[0], 1.0, g1[0]);
    Matrix had_h_all = h[0];
    for (size_t k = 1; k < order; ++k) {
      HadamardInPlace(had_g0_all, g0[k]);
      HadamardInPlace(had_g01_all, LinearCombine(1.0, g0[k], 1.0, g1[k]));
      HadamardInPlace(had_h_all, h[k]);
    }
    const double a0_model_norm_sq = SumAll(had_g0_all);
    const double full_model_norm_sq = SumAll(had_g01_all);
    const double cross = SumAll(had_h_all);

    double inner;
    if (options.reuse_intermediates) {
      inner = DotAll(mttkrp_last, factors[order - 1]);
    } else {
      inner = KruskalTensor(factors).InnerWithSparse(delta);
    }

    double loss = 0.0;
    if (has_prev) {
      loss += mu * (prev_model_norm_sq + a0_model_norm_sq - 2.0 * cross);
    }
    loss += delta_norm_sq + (full_model_norm_sq - a0_model_norm_sq) -
            2.0 * inner;
    if (loss < 0.0) loss = 0.0;
    result.loss_history.push_back(loss);
    ++result.iterations;

    if (options.tolerance > 0.0 && prev_loss >= 0.0) {
      const double denom_loss = prev_loss > 0.0 ? prev_loss : 1.0;
      if (std::abs(prev_loss - loss) / denom_loss < options.tolerance) break;
    }
    prev_loss = loss;
  }

  result.factors = KruskalTensor(std::move(factors));
  return result;
}

}  // namespace dismastd
