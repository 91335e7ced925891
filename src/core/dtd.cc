#include "core/dtd.h"

#include <algorithm>
#include <cmath>
#include <numeric>

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

DtdModeSystems FactorDtdModeSystems(const std::vector<Matrix>& g0,
                                    const std::vector<Matrix>& g1,
                                    const std::vector<Matrix>& h, size_t n,
                                    double mu) {
  const size_t rank = g0[n].rows();
  Matrix had_h(rank, rank), had_g01(rank, rank), had_g0(rank, rank);
  bool first = true;
  for (size_t k = 0; k < g0.size(); ++k) {
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
  DtdModeSystems sys;
  sys.mu = mu;
  sys.had_h_t = Transpose(had_h);
  sys.lower_old = FactorNormalEquations(
      LinearCombine(1.0, had_g01, -(1.0 - mu), had_g0));
  sys.lower_new = FactorNormalEquations(had_g01);
  return sys;
}

void DtdUpdateRows(const kernels::KernelTable& kern, const DtdModeSystems& sys,
                   const Matrix* prev, const Matrix& mttkrp, size_t old_rows,
                   const uint64_t* rows, size_t num_rows, Matrix* factor,
                   const DtdGramPartials* partials) {
  // Rows per solve call: enough for the kernels to interleave four lane
  // blocks' substitution chains, few enough that the Gram pass finds the
  // chunk's rows still in L1.
  constexpr size_t kChunkRows = 32;
  const size_t rank = factor->cols();
  const uint64_t* const end = rows + num_rows;
  const uint64_t* const first_new =
      std::lower_bound(rows, end, static_cast<uint64_t>(old_rows));
  double* a = factor->data();
  for (const uint64_t* b = rows; b < end;) {
    const bool old = b < first_new;
    const size_t count = std::min(
        kChunkRows, static_cast<size_t>((old ? first_new : end) - b));
    const Matrix& lower = old ? sys.lower_old : sys.lower_new;
    if (lower.empty()) {
      for (size_t k = 0; k < count; ++k) {
        std::fill_n(factor->RowPtr(static_cast<size_t>(b[k])), rank, 0.0);
      }
    } else {
      kern.solve_rows(lower.data(), rank, mttkrp.data(),
                      old ? prev->data() : nullptr, sys.had_h_t.data(),
                      sys.mu, b, count, a);
    }
    if (partials != nullptr && old) {
      kern.gram_rows(a, a, b, count, rank, partials->g0->data());
      kern.gram_rows(prev->data(), a, b, count, rank, partials->h->data());
    } else if (partials != nullptr) {
      kern.gram_rows(a, a, b, count, rank, partials->g1->data());
    }
    b += count;
  }
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
  // At the start A_k^(0) is Ã_k bit for bit (InitializeDtdFactors), so one
  // Gram ÃᵀÃ per mode stands in for g0 and h, and for its factor of the
  // constant loss ingredient ‖[[Ã_1..Ã_N]]‖² (§IV-B4).
  std::vector<Matrix> prev_grams;
  for (size_t n = 0; has_prev && n < order; ++n) {
    prev_grams.push_back(TransposeTimes(prev.factor(n), prev.factor(n)));
  }
  for (size_t n = 0; n < order; ++n) {
    const size_t old_rows = static_cast<size_t>(old_dims[n]);
    const Matrix a1 = factors[n].RowSlice(old_rows, factors[n].rows());
    g0[n] = old_rows > 0 ? prev_grams[n] : Matrix(options.rank, options.rank);
    h[n] = g0[n];
    g1[n] = a1.rows() > 0 ? TransposeTimes(a1, a1)
                          : Matrix(options.rank, options.rank);
  }
  const double prev_model_norm_sq = has_prev ? HadamardSum(prev_grams) : 0.0;
  const double delta_norm_sq = delta.NormSquared();

  // Every row of a mode, in order: the row list DtdUpdateRows streams.
  std::vector<std::vector<uint64_t>> all_rows(order);
  for (size_t n = 0; n < order; ++n) {
    all_rows[n].resize(factors[n].rows());
    std::iota(all_rows[n].begin(), all_rows[n].end(), uint64_t{0});
  }

  AlsResult result;
  double prev_loss = -1.0;

  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    Matrix mttkrp_last;
    for (size_t n = 0; n < order; ++n) {
      const size_t old_rows = static_cast<size_t>(old_dims[n]);
      std::vector<const Matrix*> factor_ptrs(order);
      for (size_t k = 0; k < order; ++k) factor_ptrs[k] = &factors[k];
      // One pass over the non-zeros of X \ X̃ covers every sub-tensor of
      // S_n^0 and S_n^1 at once: the row index decides which update the
      // contribution feeds.
      Matrix mttkrp = Mttkrp(delta, factor_ptrs, n);

      // Eq. 5 for every row of the mode: old-range rows against
      // had_g01 − (1−μ)·had_g0, new rows against had_g01.
      const DtdModeSystems sys = FactorDtdModeSystems(g0, g1, h, n, mu);
      DtdUpdateRows(kern, sys, old_rows > 0 ? &prev.factor(n) : nullptr,
                    mttkrp, old_rows, all_rows[n].data(), all_rows[n].size(),
                    &factors[n], /*partials=*/nullptr);
      refresh_products(n);
      if (n + 1 == order) mttkrp_last = std::move(mttkrp);
    }

    // Loss (Eq. 4) assembled from maintained intermediates (§IV-B4):
    //   L = μ‖[[Ã]] - [[A^(0)]]‖² + ‖X\X̃‖² + (‖Y‖² - ‖Y^(0..0)‖²) - 2⟨X\X̃, Y⟩.
    std::vector<Matrix> g01(order);
    for (size_t k = 0; k < order; ++k) {
      g01[k] = LinearCombine(1.0, g0[k], 1.0, g1[k]);
    }
    const double a0_model_norm_sq = HadamardSum(g0);
    const double full_model_norm_sq = HadamardSum(g01);
    const double cross = HadamardSum(h);

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
