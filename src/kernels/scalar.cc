// Scalar kernel backend: the portable reference every other backend must
// match bit-exactly on the fp64 entry points. The implementations live in
// kernels_detail.h so the SIMD backends can reuse them for strided inputs
// and remainder lanes.

#include <algorithm>
#include <vector>

#include "kernels/kernels_detail.h"

namespace dismastd {
namespace kernels {
namespace {

using detail::kLanes;

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

/// Element-wise MTTKRP per entry: the value times the non-target rows in
/// ascending mode order, one add into the output row.
void MttkrpCooScalar(const uint64_t* indices, const double* values,
                     size_t nnz, size_t order, size_t mode,
                     const double* const* factors, size_t rank, double* out) {
  std::vector<const double*> rows(order);
  for (size_t e = 0; e < nnz; ++e) {
    const uint64_t* idx = indices + e * order;
    size_t num_rows = 0;
    for (size_t m = 0; m < order; ++m) {
      if (m != mode) rows[num_rows++] = factors[m] + idx[m] * rank;
    }
    double* o = out + idx[mode] * rank;
    for (size_t f = 0; f < rank; ++f) {
      double v = values[e];
      for (size_t k = 0; k < num_rows; ++k) v *= rows[k][f];
      o[f] += v;
    }
  }
}

/// Copies the `count` (<= kLanes) listed rows of row-major `m` into lanes
/// of `block` and zero-fills the remaining lanes.
void GatherLanes(const double* m, const uint64_t* rows, size_t count,
                 size_t rank, double* block) {
  for (size_t l = 0; l < count; ++l) {
    const double* row = m + rows[l] * rank;
    for (size_t i = 0; i < rank; ++i) block[i * kLanes + l] = row[i];
  }
  for (size_t l = count; l < kLanes; ++l) {
    for (size_t i = 0; i < rank; ++i) block[i * kLanes + l] = 0.0;
  }
}

/// Copies lane l of `block` to listed row l of row-major `m`, l < count.
void ScatterLanes(const double* block, const uint64_t* rows, size_t count,
                  size_t rank, double* m) {
  for (size_t l = 0; l < count; ++l) {
    double* row = m + rows[l] * rank;
    for (size_t i = 0; i < rank; ++i) row[i] = block[i * kLanes + l];
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

/// Eq. 5's old-row numerator on a lane block: block[c*kLanes + l] =
/// mu * s + block[c*kLanes + l], s the blocked-8 dot of lane l of
/// `prev_block` with row c of `weights_t`.
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

/// One lane block at a time: gather, numerator, solve, scatter.
void SolveRowsScalar(const double* lower, size_t rank, const double* rhs,
                     const double* prev, const double* weights_t, double mu,
                     const uint64_t* rows, size_t num_rows, double* out) {
  double* block = detail::LaneBuffer(2 * rank * kLanes);
  double* prev_block = block + rank * kLanes;
  for (size_t r0 = 0; r0 < num_rows; r0 += kLanes) {
    const size_t count = std::min(kLanes, num_rows - r0);
    GatherLanes(rhs, rows + r0, count, rank, block);
    if (prev != nullptr) {
      GatherLanes(prev, rows + r0, count, rank, prev_block);
      DtdNumeratorLanesScalar(prev_block, weights_t, rank, mu, block);
    }
    CholeskySolveBlockScalar(lower, rank, block);
    ScatterLanes(block, rows + r0, count, rank, out);
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
    t.mttkrp_coo = MttkrpCooScalar;
    t.hadamard_combine = detail::HadamardCombineScalar;
    t.gram_rows = GramRowsScalar;
    t.solve_rows = SolveRowsScalar;
    t.dot_strided = detail::DotBlocked;
    t.topk_score_block = TopKScoreBlockScalar;
    t.f64_to_bf16 = F64ToBf16Scalar;
    t.bf16_to_f64 = Bf16ToF64Scalar;
    t.bf16_dot = detail::Bf16DotScalar;
    t.topk_score_block_bf16 = TopKScoreBlockBf16Scalar;
    t.i8_dot = detail::I8DotScalar;
    t.topk_score_block_i8 = TopKScoreBlockI8Scalar;
    t.hamming_shortlist = detail::HammingShortlistScalar;
    return t;
  }();
  return table;
}

}  // namespace kernels
}  // namespace dismastd
