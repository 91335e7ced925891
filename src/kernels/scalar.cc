// Scalar kernel backend: the portable reference every other backend must
// match bit-exactly on the fp64 entry points. The implementations live in
// kernels_detail.h so the SIMD backends can reuse them for strided inputs
// and remainder lanes.

#include <algorithm>

#include "kernels/kernels_detail.h"

namespace dismastd {
namespace kernels {
namespace {

/// Output row i of the Gram in 8-column chunks, each chunk's partial held
/// in a local accumulator across the whole row list.
void GramRowsScalar(const double* x, const double* y, const uint64_t* rows,
                    size_t num_rows, size_t rank, double* out) {
  for (size_t i = 0; i < rank; ++i) {
    for (size_t j0 = 0; j0 < rank; j0 += 8) {
      const size_t width = std::min<size_t>(8, rank - j0);
      double* o = out + i * rank + j0;
      double acc[8];
      std::copy_n(o, width, acc);
      for (size_t k = 0; k < num_rows; ++k) {
        const size_t base = static_cast<size_t>(rows[k]) * rank;
        const double xi = x[base + i];
        const double* yr = y + base + j0;
        for (size_t j = 0; j < width; ++j) acc[j] += xi * yr[j];
      }
      std::copy_n(acc, width, o);
    }
  }
}

/// Each substitution step is one independent operation across the block's
/// lanes, which the compiler vectorizes from this portable loop.
void CholeskySolveBlockScalar(const double* lower, size_t n, double* block) {
  // Forward substitution L y = b: y_i = (b_i - Σ_{k<i} L_ik y_k) / L_ii.
  for (size_t i = 0; i < n; ++i) {
    double acc[kLanes];
    std::copy_n(&block[i * kLanes], kLanes, acc);
    for (size_t k = 0; k < i; ++k) {
      const double lik = lower[i * n + k];
      const double* yk = &block[k * kLanes];
      for (size_t l = 0; l < kLanes; ++l) acc[l] -= lik * yk[l];
    }
    const double diag = lower[i * n + i];
    for (size_t l = 0; l < kLanes; ++l) block[i * kLanes + l] = acc[l] / diag;
  }
  // Back substitution Lᵀ z = y: z_i = (y_i - Σ_{k>i} L_ki z_k) / L_ii.
  for (size_t i = n; i-- > 0;) {
    double acc[kLanes];
    std::copy_n(&block[i * kLanes], kLanes, acc);
    for (size_t k = i + 1; k < n; ++k) {
      const double lki = lower[k * n + i];
      const double* zk = &block[k * kLanes];
      for (size_t l = 0; l < kLanes; ++l) acc[l] -= lki * zk[l];
    }
    const double diag = lower[i * n + i];
    for (size_t l = 0; l < kLanes; ++l) block[i * kLanes + l] = acc[l] / diag;
  }
}

void CholeskySolveLanesScalar(const double* lower, size_t n, double* blocks,
                              size_t num_blocks) {
  for (size_t q = 0; q < num_blocks; ++q) {
    CholeskySolveBlockScalar(lower, n, blocks + q * n * kLanes);
  }
}

void DtdNumeratorLanesScalar(const double* prev_block, const double* weights_t,
                             size_t rank, double mu, double* block) {
  for (size_t c = 0; c < rank; ++c) {
    const double* w = weights_t + c * rank;
    // p[k][l]: blocked-8 partial k of lane l's dot; element i lands in
    // partial i mod 8, after the elements before it.
    double p[8][kLanes] = {};
    for (size_t i = 0; i < rank; ++i) {
      const double wi = w[i];
      const double* x = prev_block + i * kLanes;
      double* pk = p[i % 8];
      for (size_t l = 0; l < kLanes; ++l) pk[l] += wi * x[l];
    }
    double* out = block + c * kLanes;
    for (size_t l = 0; l < kLanes; ++l) {
      const double lane[8] = {p[0][l], p[1][l], p[2][l], p[3][l],
                              p[4][l], p[5][l], p[6][l], p[7][l]};
      out[l] = mu * detail::CombinePartials8(lane) + out[l];
    }
  }
}

void F64ToBf16Scalar(const double* src, size_t n, Bf16* dst) {
  for (size_t i = 0; i < n; ++i) dst[i] = detail::F64ToBf16(src[i]);
}

void Bf16ToF64Scalar(const Bf16* src, size_t n, double* dst) {
  for (size_t i = 0; i < n; ++i) dst[i] = detail::Bf16ToF64(src[i]);
}

void TopKScoreBlockScalar(const double* rows, size_t num_rows, size_t rank,
                          const double* weights, double* scores) {
  for (size_t j = 0; j < num_rows; ++j) {
    scores[j] = detail::DotBlocked(rows + j * rank, 1, weights, 1, rank);
  }
}

void TopKScoreBlockBf16Scalar(const Bf16* rows, size_t num_rows, size_t rank,
                              const double* weights, double* scores) {
  for (size_t j = 0; j < num_rows; ++j) {
    scores[j] = detail::Bf16DotScalar(rows + j * rank, weights, rank);
  }
}

void TopKScoreBlockI8Scalar(const int8_t* rows, size_t num_rows, size_t rank,
                            const double* wscaled, double* scores) {
  for (size_t j = 0; j < num_rows; ++j) {
    scores[j] = detail::I8DotScalar(rows + j * rank, wscaled, rank);
  }
}

}  // namespace

const KernelTable& ScalarKernels() {
  static const KernelTable table = [] {
    KernelTable t;
    t.backend = Backend::kScalar;
    t.mttkrp_row = detail::MttkrpRowScalar;
    t.hadamard_combine = detail::HadamardCombineScalar;
    t.gram_rows = GramRowsScalar;
    t.cholesky_solve_lanes = CholeskySolveLanesScalar;
    t.dtd_numerator_lanes = DtdNumeratorLanesScalar;
    t.dot_strided = detail::DotBlocked;
    t.topk_score_block = TopKScoreBlockScalar;
    t.f64_to_bf16 = F64ToBf16Scalar;
    t.bf16_to_f64 = Bf16ToF64Scalar;
    t.bf16_dot = detail::Bf16DotScalar;
    t.topk_score_block_bf16 = TopKScoreBlockBf16Scalar;
    t.i8_dot = detail::I8DotScalar;
    t.topk_score_block_i8 = TopKScoreBlockI8Scalar;
    t.hamming_block = detail::HammingBlockScalar;
    return t;
  }();
  return table;
}

}  // namespace kernels
}  // namespace dismastd
