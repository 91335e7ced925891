// AVX2 kernel backend. Compiled with -mavx2 -ffp-contract=off (see
// src/CMakeLists.txt) and uses separate mul/add intrinsics — never FMA —
// so every fp64 entry point is bit-exact against the scalar backend:
// element-wise kernels run the same per-element operation chains
// lane-parallel, and reductions keep the blocked-8 lane classes (accA =
// classes 0..3, accB = classes 4..7) with scalar tails folding into the
// same partial sums.

#include "kernels/kernels_detail.h"

#if defined(__AVX2__)
#include <immintrin.h>

#include <algorithm>
#include <vector>

namespace dismastd {
namespace kernels {
namespace {

using detail::kLanes;

/// Lanes [0, width) of a 4-lane maskload/maskstore mask.
inline __m256i ColumnMask(size_t width) {
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(width)),
                            _mm256_setr_epi64x(0, 1, 2, 3));
}

/// mttkrp_coo over output columns [j0, j0 + 4·kVecs), masked past `rank`.
/// Each lane runs the scalar entry's products in ascending mode order and
/// one add. While consecutive entries share an output row, its partial
/// stays in registers and is stored once the row changes — the same adds
/// in the same order, without a store-to-load round trip per entry (sorted
/// COO lists repeat output rows).
template <size_t kVecs>
void MttkrpPanelAvx2(const uint64_t* indices, const double* values,
                     size_t nnz, size_t order, size_t mode,
                     const size_t* other_modes, const double* const* factors,
                     size_t rank, size_t j0, double* out) {
  __m256i mask[kVecs];
  for (size_t v = 0; v < kVecs; ++v) {
    mask[v] = ColumnMask(rank - std::min(rank, j0 + 4 * v));
  }
  const size_t num_other = order - 1;
  __m256d acc[kVecs];
  for (size_t v = 0; v < kVecs; ++v) acc[v] = _mm256_setzero_pd();
  double* row_out = nullptr;
  for (size_t e = 0; e < nnz; ++e) {
    const uint64_t* idx = indices + e * order;
    double* o = out + idx[mode] * rank + j0;
    if (o != row_out) {
      for (size_t v = 0; row_out != nullptr && v < kVecs; ++v) {
        _mm256_maskstore_pd(row_out + 4 * v, mask[v], acc[v]);
      }
      row_out = o;
      for (size_t v = 0; v < kVecs; ++v) {
        acc[v] = _mm256_maskload_pd(o + 4 * v, mask[v]);
      }
    }
    const __m256d value = _mm256_set1_pd(values[e]);
    __m256d prod[kVecs];
    for (size_t v = 0; v < kVecs; ++v) prod[v] = value;
    for (size_t k = 0; k < num_other; ++k) {
      const size_t m = other_modes[k];
      const double* row = factors[m] + idx[m] * rank + j0;
      for (size_t v = 0; v < kVecs; ++v) {
        prod[v] = _mm256_mul_pd(prod[v],
                                _mm256_maskload_pd(row + 4 * v, mask[v]));
      }
    }
    for (size_t v = 0; v < kVecs; ++v) acc[v] = _mm256_add_pd(acc[v], prod[v]);
  }
  for (size_t v = 0; row_out != nullptr && v < kVecs; ++v) {
    _mm256_maskstore_pd(row_out + 4 * v, mask[v], acc[v]);
  }
}

/// Panels of up to 12 output columns, each a pass over the entry list.
void MttkrpCooAvx2(const uint64_t* indices, const double* values, size_t nnz,
                   size_t order, size_t mode, const double* const* factors,
                   size_t rank, double* out) {
  std::vector<size_t> other_modes;
  for (size_t m = 0; m < order; ++m) {
    if (m != mode) other_modes.push_back(m);
  }
  for (size_t j0 = 0; j0 < rank; j0 += 12) {
    const size_t width = std::min<size_t>(12, rank - j0);
    if (width > 8) {
      MttkrpPanelAvx2<3>(indices, values, nnz, order, mode,
                         other_modes.data(), factors, rank, j0, out);
    } else if (width > 4) {
      MttkrpPanelAvx2<2>(indices, values, nnz, order, mode,
                         other_modes.data(), factors, rank, j0, out);
    } else {
      MttkrpPanelAvx2<1>(indices, values, nnz, order, mode,
                         other_modes.data(), factors, rank, j0, out);
    }
  }
}

void HadamardCombineAvx2(const double* const* rows, size_t num_rows,
                         size_t rank, double* out) {
  const size_t r4 = rank & ~static_cast<size_t>(3);
  size_t f = 0;
  for (; f < r4; f += 4) {
    __m256d v = _mm256_set1_pd(1.0);
    for (size_t m = 0; m < num_rows; ++m) {
      v = _mm256_mul_pd(v, _mm256_loadu_pd(rows[m] + f));
    }
    _mm256_storeu_pd(out + f, v);
  }
  for (; f < rank; ++f) {
    double v = 1.0;
    for (size_t m = 0; m < num_rows; ++m) v *= rows[m][f];
    out[f] = v;
  }
}

/// One tile of gram_rows: output rows i0 .. i0+tile_rows-1 (at most 4) by
/// kVecs 4-column vectors from j0, masked past `rank`. Each accumulator
/// holds its output elements' partials in a register across the whole row
/// list, adding one row's products at a time in list order.
template <size_t kVecs>
void GramTileAvx2(const double* x, const double* y, const uint64_t* rows,
                  size_t num_rows, size_t rank, size_t i0, size_t tile_rows,
                  size_t j0, double* out) {
  __m256i mask[kVecs];
  for (size_t v = 0; v < kVecs; ++v) {
    mask[v] = ColumnMask(rank - std::min(rank, j0 + 4 * v));
  }
  __m256d acc[4][kVecs];
#pragma GCC unroll 4
  for (size_t t = 0; t < 4; ++t) {
    for (size_t v = 0; v < kVecs; ++v) {
      acc[t][v] = t < tile_rows
                      ? _mm256_maskload_pd(out + (i0 + t) * rank + j0 + 4 * v,
                                           mask[v])
                      : _mm256_setzero_pd();
    }
  }
  for (size_t k = 0; k < num_rows; ++k) {
    const size_t base =
        static_cast<size_t>(rows != nullptr ? rows[k] : k) * rank;
    const double* xr = x + base + i0;
    __m256d yv[kVecs];
    for (size_t v = 0; v < kVecs; ++v) {
      yv[v] = _mm256_maskload_pd(y + base + j0 + 4 * v, mask[v]);
    }
#pragma GCC unroll 4
    for (size_t t = 0; t < 4; ++t) {
      if (t < tile_rows) {
        const __m256d xt = _mm256_set1_pd(xr[t]);
        for (size_t v = 0; v < kVecs; ++v) {
          acc[t][v] = _mm256_add_pd(acc[t][v], _mm256_mul_pd(xt, yv[v]));
        }
      }
    }
  }
#pragma GCC unroll 4
  for (size_t t = 0; t < 4; ++t) {
    if (t < tile_rows) {
      for (size_t v = 0; v < kVecs; ++v) {
        _mm256_maskstore_pd(out + (i0 + t) * rank + j0 + 4 * v, mask[v],
                            acc[t][v]);
      }
    }
  }
}

void GramRowsAvx2(const double* x, const double* y, const uint64_t* rows,
                  size_t num_rows, size_t rank, double* out) {
  for (size_t j0 = 0; j0 < rank; j0 += 12) {
    const size_t width = std::min<size_t>(12, rank - j0);
    for (size_t i0 = 0; i0 < rank; i0 += 4) {
      const size_t tile_rows = std::min<size_t>(4, rank - i0);
      if (width > 8) {
        GramTileAvx2<3>(x, y, rows, num_rows, rank, i0, tile_rows, j0, out);
      } else if (width > 4) {
        GramTileAvx2<2>(x, y, rows, num_rows, rank, i0, tile_rows, j0, out);
      } else {
        GramTileAvx2<1>(x, y, rows, num_rows, rank, i0, tile_rows, j0, out);
      }
    }
  }
}

/// Two ymm per element of each of kBlocks lane blocks (lanes 0-3 and 4-7
/// of block[i * kLanes ..]); the blocks' serial substitution chains are
/// independent, so running them side by side overlaps their division
/// latencies.
template <size_t kBlocks>
void CholeskySolveBlocksAvx2(const double* lower, size_t n, double* blocks) {
  const size_t stride = n * kLanes;
  for (size_t i = 0; i < n; ++i) {
    __m256d lo[kBlocks], hi[kBlocks];
    for (size_t b = 0; b < kBlocks; ++b) {
      lo[b] = _mm256_loadu_pd(blocks + b * stride + i * kLanes);
      hi[b] = _mm256_loadu_pd(blocks + b * stride + i * kLanes + 4);
    }
    for (size_t k = 0; k < i; ++k) {
      const __m256d lik = _mm256_set1_pd(lower[i * n + k]);
      for (size_t b = 0; b < kBlocks; ++b) {
        const double* yk = blocks + b * stride + k * kLanes;
        lo[b] = _mm256_sub_pd(lo[b], _mm256_mul_pd(lik, _mm256_loadu_pd(yk)));
        hi[b] = _mm256_sub_pd(hi[b],
                              _mm256_mul_pd(lik, _mm256_loadu_pd(yk + 4)));
      }
    }
    const __m256d diag = _mm256_set1_pd(lower[i * n + i]);
    for (size_t b = 0; b < kBlocks; ++b) {
      double* bi = blocks + b * stride + i * kLanes;
      _mm256_storeu_pd(bi, _mm256_div_pd(lo[b], diag));
      _mm256_storeu_pd(bi + 4, _mm256_div_pd(hi[b], diag));
    }
  }
  for (size_t i = n; i-- > 0;) {
    __m256d lo[kBlocks], hi[kBlocks];
    for (size_t b = 0; b < kBlocks; ++b) {
      lo[b] = _mm256_loadu_pd(blocks + b * stride + i * kLanes);
      hi[b] = _mm256_loadu_pd(blocks + b * stride + i * kLanes + 4);
    }
    for (size_t k = i + 1; k < n; ++k) {
      const __m256d lki = _mm256_set1_pd(lower[k * n + i]);
      for (size_t b = 0; b < kBlocks; ++b) {
        const double* zk = blocks + b * stride + k * kLanes;
        lo[b] = _mm256_sub_pd(lo[b], _mm256_mul_pd(lki, _mm256_loadu_pd(zk)));
        hi[b] = _mm256_sub_pd(hi[b],
                              _mm256_mul_pd(lki, _mm256_loadu_pd(zk + 4)));
      }
    }
    const __m256d diag = _mm256_set1_pd(lower[i * n + i]);
    for (size_t b = 0; b < kBlocks; ++b) {
      double* bi = blocks + b * stride + i * kLanes;
      _mm256_storeu_pd(bi, _mm256_div_pd(lo[b], diag));
      _mm256_storeu_pd(bi + 4, _mm256_div_pd(hi[b], diag));
    }
  }
}

/// Partial k of four lanes' blocked-8 dots lives in one ymm; the block's
/// two lane halves run one after the other so the 8 partials of a half
/// stay in registers. Element i lands in partial i mod 8.
void DtdNumeratorLanesAvx2(const double* prev_block, const double* weights_t,
                           size_t rank, double mu, double* block) {
  const __m256d vmu = _mm256_set1_pd(mu);
  for (size_t half = 0; half < kLanes; half += 4) {
    for (size_t c = 0; c < rank; ++c) {
      const double* w = weights_t + c * rank;
      __m256d p[8];
#pragma GCC unroll 8
      for (size_t k = 0; k < 8; ++k) p[k] = _mm256_setzero_pd();
      for (size_t i0 = 0; i0 < rank; i0 += 8) {
#pragma GCC unroll 8
        for (size_t k = 0; k < 8; ++k) {
          if (i0 + k < rank) {
            p[k] = _mm256_add_pd(
                p[k], _mm256_mul_pd(_mm256_set1_pd(w[i0 + k]),
                                    _mm256_loadu_pd(prev_block +
                                                    (i0 + k) * kLanes +
                                                    half)));
          }
        }
      }
      const __m256d q0 = _mm256_add_pd(p[0], p[4]);
      const __m256d q1 = _mm256_add_pd(p[1], p[5]);
      const __m256d q2 = _mm256_add_pd(p[2], p[6]);
      const __m256d q3 = _mm256_add_pd(p[3], p[7]);
      const __m256d dot =
          _mm256_add_pd(_mm256_add_pd(q0, q2), _mm256_add_pd(q1, q3));
      double* out = block + c * kLanes + half;
      _mm256_storeu_pd(out, _mm256_add_pd(_mm256_mul_pd(vmu, dot),
                                          _mm256_loadu_pd(out)));
    }
  }
}

/// In-register 4x4 transpose: on exit v[j] lane l holds what v[l] lane j
/// held on entry.
inline void Transpose4x4(__m256d v[4]) {
  const __m256d t0 = _mm256_unpacklo_pd(v[0], v[1]);
  const __m256d t1 = _mm256_unpackhi_pd(v[0], v[1]);
  const __m256d t2 = _mm256_unpacklo_pd(v[2], v[3]);
  const __m256d t3 = _mm256_unpackhi_pd(v[2], v[3]);
  v[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
  v[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
  v[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
  v[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
}

/// Moves the `count` (<= kLanes) listed rows of row-major `m` into the lanes
/// of `block` by 4x4 transposes, one lane half at a time; the rank mod 4
/// tail and missing lanes are zero.
void GatherLanesAvx2(const double* m, const uint64_t* rows, size_t count,
                     size_t rank, double* block) {
  for (size_t half = 0; half < kLanes; half += 4) {
    for (size_t j0 = 0; j0 < rank; j0 += 4) {
      const size_t width = std::min<size_t>(4, rank - j0);
      const __m256i mask = ColumnMask(width);
      __m256d v[4];
#pragma GCC unroll 4
      for (size_t l = 0; l < 4; ++l) {
        if (half + l >= count) {
          v[l] = _mm256_setzero_pd();
          continue;
        }
        const double* row = m + rows[half + l] * rank + j0;
        v[l] = width == 4 ? _mm256_loadu_pd(row)
                          : _mm256_maskload_pd(row, mask);
      }
      Transpose4x4(v);
#pragma GCC unroll 4
      for (size_t j = 0; j < 4; ++j) {
        if (j < width) _mm256_storeu_pd(block + (j0 + j) * kLanes + half, v[j]);
      }
    }
  }
}

/// Moves lane l of `block` to listed row l of row-major `m`, l < count.
void ScatterLanesAvx2(const double* block, const uint64_t* rows, size_t count,
                      size_t rank, double* m) {
  for (size_t half = 0; half < count; half += 4) {
    for (size_t j0 = 0; j0 < rank; j0 += 4) {
      const size_t width = std::min<size_t>(4, rank - j0);
      const __m256i mask = ColumnMask(width);
      __m256d v[4];
#pragma GCC unroll 4
      for (size_t j = 0; j < 4; ++j) {
        v[j] = j < width ? _mm256_loadu_pd(block + (j0 + j) * kLanes + half)
                         : _mm256_setzero_pd();
      }
      Transpose4x4(v);
#pragma GCC unroll 4
      for (size_t l = 0; l < 4; ++l) {
        if (half + l < count) {
          double* row = m + rows[half + l] * rank + j0;
          if (width == 4) {
            _mm256_storeu_pd(row, v[l]);
          } else {
            _mm256_maskstore_pd(row, mask, v[l]);
          }
        }
      }
    }
  }
}

/// Blocks solved side by side per group.
constexpr size_t kSolveGroup = 2;

/// Up to kSolveGroup lane blocks at a time: transpose the rows in (and
/// form their numerators right after), solve the group's blocks side by
/// side, transpose them out.
void SolveRowsAvx2(const double* lower, size_t rank, const double* rhs,
                   const double* prev, const double* weights_t, double mu,
                   const uint64_t* rows, size_t num_rows, double* out) {
  const size_t stride = rank * kLanes;
  double* blocks = detail::LaneBuffer((kSolveGroup + 1) * stride);
  double* prev_block = blocks + kSolveGroup * stride;
  for (size_t r0 = 0; r0 < num_rows; r0 += kSolveGroup * kLanes) {
    const size_t count = std::min(kSolveGroup * kLanes, num_rows - r0);
    const size_t num_blocks = (count + kLanes - 1) / kLanes;
    for (size_t q = 0; q < num_blocks; ++q) {
      const uint64_t* block_rows = rows + r0 + q * kLanes;
      const size_t lanes = std::min(kLanes, count - q * kLanes);
      double* block = blocks + q * stride;
      GatherLanesAvx2(rhs, block_rows, lanes, rank, block);
      if (prev != nullptr) {
        GatherLanesAvx2(prev, block_rows, lanes, rank, prev_block);
        DtdNumeratorLanesAvx2(prev_block, weights_t, rank, mu, block);
      }
    }
    if (num_blocks == 2) {
      CholeskySolveBlocksAvx2<2>(lower, rank, blocks);
    } else {
      CholeskySolveBlocksAvx2<1>(lower, rank, blocks);
    }
    for (size_t q = 0; q < num_blocks; ++q) {
      ScatterLanesAvx2(blocks + q * stride, rows + r0 + q * kLanes,
                       std::min(kLanes, count - q * kLanes), rank, out);
    }
  }
}

double DotContiguousAvx2(const double* x, const double* y, size_t n) {
  __m256d acc_a = _mm256_setzero_pd();
  __m256d acc_b = _mm256_setzero_pd();
  const size_t n8 = n & ~static_cast<size_t>(7);
  size_t i = 0;
  for (; i < n8; i += 8) {
    acc_a = _mm256_add_pd(
        acc_a, _mm256_mul_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i)));
    acc_b = _mm256_add_pd(
        acc_b, _mm256_mul_pd(_mm256_loadu_pd(x + i + 4),
                             _mm256_loadu_pd(y + i + 4)));
  }
  alignas(32) double p[8];
  _mm256_store_pd(p, acc_a);
  _mm256_store_pd(p + 4, acc_b);
  for (; i < n; ++i) p[i - n8] += x[i] * y[i];
  return detail::CombinePartials8(p);
}

double DotStridedAvx2(const double* x, size_t incx, const double* y,
                      size_t incy, size_t n) {
  if (incx == 1 && incy == 1) return DotContiguousAvx2(x, y, n);
  // Strided access gains nothing from gathers at these ranks; the scalar
  // blocked loop follows the same contract, so the result is identical.
  return detail::DotBlocked(x, incx, y, incy, n);
}

/// The dots of 4 rows, row j's blocked-8 partials p0..p3 in lo[j] and
/// p4..p7 in hi[j], in row order: the contract's tree for all 4 rows at
/// once, each level's operands paired across the rows' registers by
/// shuffles.
inline __m256d CombineRows4(const __m256d lo[4], const __m256d hi[4]) {
  // q[j]: q0..q3 (q_i = p_i + p_{i+4}) of row j.
  __m256d q[4];
#pragma GCC unroll 4
  for (size_t j = 0; j < 4; ++j) q[j] = _mm256_add_pd(lo[j], hi[j]);
  // s[h]: s0 = q0 + q2 and s1 = q1 + q3 of rows 2h and 2h+1, pairwise.
  __m256d s[2];
#pragma GCC unroll 2
  for (size_t h = 0; h < 2; ++h) {
    s[h] = _mm256_add_pd(_mm256_permute2f128_pd(q[2 * h], q[2 * h + 1], 0x20),
                         _mm256_permute2f128_pd(q[2 * h], q[2 * h + 1], 0x31));
  }
  // s0 + s1 of rows 0, 2, 1, 3, then put back in row order.
  const __m256d dots = _mm256_add_pd(_mm256_unpacklo_pd(s[0], s[1]),
                                     _mm256_unpackhi_pd(s[0], s[1]));
  return _mm256_permute4x64_pd(dots, 0xD8);
}

/// 4 rows per pass. A short pass repeats its first row in the missing
/// slots and stores only its own scores. Listed rows are prefetched
/// kPrefetchAhead rows ahead.
void TopKScoreBlockAvx2(const double* rows, const uint32_t* ids,
                        size_t num_rows, size_t rank, const double* weights,
                        double* scores) {
  const size_t r8 = rank & ~static_cast<size_t>(7);
  const size_t t = rank - r8;
  const __m256i tail_lo = ColumnMask(t);
  const __m256i tail_hi = ColumnMask(t > 4 ? t - 4 : 0);
  const __m256d wtail_lo = _mm256_maskload_pd(weights + r8, tail_lo);
  const __m256d wtail_hi = _mm256_maskload_pd(weights + r8 + 4, tail_hi);
  for (size_t j0 = 0; j0 < num_rows; j0 += 4) {
    const size_t count = std::min<size_t>(4, num_rows - j0);
    const double* x[4];
#pragma GCC unroll 4
    for (size_t j = 0; j < 4; ++j) {
      const size_t k = j0 + (j < count ? j : 0);
      x[j] = rows + (ids != nullptr ? ids[k] : k) * rank;
    }
    if (ids != nullptr && j0 + detail::kPrefetchAhead + 4 <= num_rows) {
#pragma GCC unroll 4
      for (size_t j = 0; j < 4; ++j) {
        detail::PrefetchRow(rows + ids[j0 + detail::kPrefetchAhead + j] * rank,
                            rank);
      }
    }
    __m256d lo[4];
    __m256d hi[4];
#pragma GCC unroll 4
    for (size_t j = 0; j < 4; ++j) {
      lo[j] = _mm256_setzero_pd();
      hi[j] = _mm256_setzero_pd();
    }
    for (size_t i = 0; i < r8; i += 8) {
      const __m256d wlo = _mm256_loadu_pd(weights + i);
      const __m256d whi = _mm256_loadu_pd(weights + i + 4);
#pragma GCC unroll 4
      for (size_t j = 0; j < 4; ++j) {
        lo[j] = _mm256_add_pd(lo[j],
                              _mm256_mul_pd(_mm256_loadu_pd(x[j] + i), wlo));
        hi[j] = _mm256_add_pd(
            hi[j], _mm256_mul_pd(_mm256_loadu_pd(x[j] + i + 4), whi));
      }
    }
    if (t != 0) {
#pragma GCC unroll 4
      for (size_t j = 0; j < 4; ++j) {
        const __m256d plo =
            _mm256_mul_pd(_mm256_maskload_pd(x[j] + r8, tail_lo), wtail_lo);
        const __m256d phi = _mm256_mul_pd(
            _mm256_maskload_pd(x[j] + r8 + 4, tail_hi), wtail_hi);
        lo[j] = _mm256_blendv_pd(lo[j], _mm256_add_pd(lo[j], plo),
                                 _mm256_castsi256_pd(tail_lo));
        hi[j] = _mm256_blendv_pd(hi[j], _mm256_add_pd(hi[j], phi),
                                 _mm256_castsi256_pd(tail_hi));
      }
    }
    _mm256_maskstore_pd(scores + j0, ColumnMask(count), CombineRows4(lo, hi));
  }
}

/// Per-64-bit-lane popcount via the classic nibble lookup
/// (_mm256_shuffle_epi8 against a 0..15 bit-count table, then horizontal
/// byte sums with _mm256_sad_epu8). Exact, like every popcount.
inline __m256i Popcount64x4(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2,
                                       3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2,
                                       2, 3, 2, 3, 3, 4);
  const __m256i mask = _mm256_set1_epi8(0x0F);
  const __m256i lo = _mm256_shuffle_epi8(lut, _mm256_and_si256(v, mask));
  const __m256i hi = _mm256_shuffle_epi8(
      lut, _mm256_and_si256(_mm256_srli_epi64(v, 4), mask));
  return _mm256_sad_epu8(_mm256_add_epi8(lo, hi), _mm256_setzero_si256());
}

/// Lane i of the result is c[2i] + c[2i+1], where c = a ++ b (8 lanes).
/// Applied log2(n) times to n vectors of row-major per-word counts, it
/// leaves each row's total in one lane, in row order.
inline __m256i AddPairs(__m256i a, __m256i b) {
  // (a0+a1, b0+b1, a2+a3, b2+b3), then lanes 1 and 2 swap.
  const __m256i sums = _mm256_add_epi64(_mm256_unpacklo_epi64(a, b),
                                        _mm256_unpackhi_epi64(a, b));
  return _mm256_permute4x64_epi64(sums, _MM_SHUFFLE(3, 1, 2, 0));
}

/// The four 64-bit lanes of `v`, each below 65,536, as u16s in the low
/// 64 bits.
inline __m128i PackLow16(__m256i v) {
  const __m128i low32 = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
      v, _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6)));
  return _mm_packus_epi32(low32, low32);
}

/// Full 4-row blocks of kWords-word codes, kWords in {1, 2, 4}. A block
/// is kWords contiguous vectors in which lane i holds word i mod kWords
/// of its row, so one query pattern serves them all; AddPairs then folds
/// each row's words into one lane. Returns the number of rows done.
template <size_t kWords>
size_t HammingBlocksAvx2(const uint64_t* codes, size_t num_rows,
                         const uint64_t* query, uint16_t* dists) {
  alignas(32) uint64_t pattern[4];
  for (size_t i = 0; i < 4; ++i) pattern[i] = query[i % kWords];
  const __m256i q =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(pattern));
  const size_t blocks = num_rows / 4;
  for (size_t b = 0; b < blocks; ++b) {
    const uint64_t* block = codes + b * 4 * kWords;
    __m256i c[kWords];
    for (size_t v = 0; v < kWords; ++v) {
      c[v] = Popcount64x4(_mm256_xor_si256(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(block + 4 * v)),
          q));
    }
    for (size_t n = kWords; n > 1; n /= 2) {
      for (size_t v = 0; v < n / 2; ++v) {
        c[v] = AddPairs(c[2 * v], c[2 * v + 1]);
      }
    }
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dists + 4 * b),
                     PackLow16(c[0]));
  }
  return blocks * 4;
}

/// Any word count and any number of rows, 4 rows at a time: each row's
/// code is read as 4-word chunks (the last one masked), its counts summed
/// lane-wise into one vector, and two AddPairs levels fold the 4 rows'
/// vectors into one lane each. A partial block stores only its rows.
void HammingRowsAvx2(const uint64_t* codes, size_t num_rows, size_t words,
                     const uint64_t* query, uint16_t* dists) {
  const size_t chunks = words / 4;
  const __m256i tail = ColumnMask(words % 4);
  const __m256i qtail = _mm256_maskload_epi64(
      reinterpret_cast<const long long*>(query + 4 * chunks), tail);
  for (size_t j0 = 0; j0 < num_rows; j0 += 4) {
    const size_t count = std::min<size_t>(4, num_rows - j0);
    __m256i acc[4];
    for (size_t l = 0; l < 4; ++l) {
      acc[l] = _mm256_setzero_si256();
      if (l >= count) continue;
      const uint64_t* row = codes + (j0 + l) * words;
      for (size_t c = 0; c < chunks; ++c) {
        const __m256i x = _mm256_xor_si256(
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + 4 * c)),
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(query + 4 * c)));
        acc[l] = _mm256_add_epi64(acc[l], Popcount64x4(x));
      }
      const __m256i x = _mm256_xor_si256(
          _mm256_maskload_epi64(
              reinterpret_cast<const long long*>(row + 4 * chunks), tail),
          qtail);
      acc[l] = _mm256_add_epi64(acc[l], Popcount64x4(x));
    }
    const __m256i sums =
        AddPairs(AddPairs(acc[0], acc[1]), AddPairs(acc[2], acc[3]));
    alignas(16) uint16_t packed[8];
    _mm_store_si128(reinterpret_cast<__m128i*>(packed), PackLow16(sums));
    std::copy_n(packed, count, dists + j0);
  }
}

void HammingScanAvx2(const uint64_t* codes, size_t num_rows, size_t words,
                     const uint64_t* query, uint16_t* dists) {
  size_t done = 0;
  switch (words) {
    case 1:
      done = HammingBlocksAvx2<1>(codes, num_rows, query, dists);
      break;
    case 2:
      done = HammingBlocksAvx2<2>(codes, num_rows, query, dists);
      break;
    case 4:
      done = HammingBlocksAvx2<4>(codes, num_rows, query, dists);
      break;
    default:
      break;
  }
  HammingRowsAvx2(codes + done * words, num_rows - done, words, query,
                  dists + done);
}

/// Lanes of `d` at or below `limit`, as 16-bit all-ones (unsigned compare).
inline __m256i AtOrBelow(__m256i d, __m256i limit) {
  return _mm256_cmpeq_epi16(_mm256_min_epu16(d, limit), d);
}

/// One bit per 16-bit lane of a compare result, in lane order.
inline uint32_t LaneBits(__m256i mask) {
  return static_cast<uint32_t>(_mm_movemask_epi8(_mm_packs_epi16(
      _mm256_castsi256_si128(mask), _mm256_extracti128_si256(mask, 1))));
}

inline __m256i Set1U16(uint32_t t) {
  return _mm256_set1_epi16(static_cast<short>(static_cast<uint16_t>(t)));
}

/// hamming_shortlist's counting pass: the codes with dists[g] <= t, 16
/// per compare, counted by popcounts of the compare masks.
size_t CountAtOrBelowAvx2(const uint16_t* dists, size_t num_codes,
                          uint32_t t) {
  const __m256i limit = Set1U16(t);
  size_t total = 0;
  size_t g = 0;
  for (; g + 16 <= num_codes; g += 16) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dists + g));
    total += static_cast<size_t>(__builtin_popcount(
        static_cast<uint32_t>(_mm256_movemask_epi8(AtOrBelow(d, limit)))));
  }
  // Two mask bits per 16-bit lane.
  return total / 2 +
         detail::CountAtOrBelowScalar(dists, g, num_codes - g, t);
}

/// hamming_shortlist's select: 64 codes per step, as four compares' masks
/// of the codes below and at the cut-off, whose set bits AppendBits writes
/// without a branch per step; the last partial step runs the scalar select.
void SelectAvx2(const uint16_t* dists, size_t num_codes, uint32_t* below,
                uint32_t* at, ShortlistCut* cut) {
  const __m256i c = Set1U16(cut->cutoff);
  size_t g = 0;
  for (; g + 64 <= num_codes; g += 64) {
    uint64_t at_or_below = 0;
    uint64_t at_c = 0;
    for (size_t q = 0; q < 4; ++q) {
      const __m256i d = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(dists + g + 16 * q));
      at_or_below |= static_cast<uint64_t>(LaneBits(AtOrBelow(d, c)))
                     << (16 * q);
      at_c |= static_cast<uint64_t>(LaneBits(_mm256_cmpeq_epi16(d, c)))
              << (16 * q);
    }
    detail::AppendBits(at_or_below & ~at_c, g, below, &cut->num_below);
    detail::AppendBits(at_c, g, at, &cut->num_at);
  }
  detail::SelectScalar(dists, g, num_codes - g, below, at, cut);
}

ShortlistCut HammingShortlistAvx2(const CodeGroups& groups,
                                  const uint64_t* query, size_t n,
                                  uint16_t* dists, uint32_t* below,
                                  uint32_t* at) {
  HammingScanAvx2(groups.codes, groups.num_codes, groups.words, query, dists);
  ShortlistCut cut;
  if (n == 0) return cut;
  cut.cutoff = detail::FindCutoff(
      [&](size_t count, uint32_t t) {
        return CountAtOrBelowAvx2(dists, count, t);
      },
      groups, dists, n, &cut.rows_below);
  SelectAvx2(dists, groups.num_codes, below, at, &cut);
  return cut;
}

}  // namespace

const KernelTable& Avx2Kernels() {
  static const KernelTable table = [] {
    KernelTable t;
    t.backend = Backend::kAvx2;
    t.mttkrp_coo = MttkrpCooAvx2;
    t.hadamard_combine = HadamardCombineAvx2;
    t.gram_rows = GramRowsAvx2;
    t.solve_rows = SolveRowsAvx2;
    t.dot_strided = DotStridedAvx2;
    t.topk_score_block = TopKScoreBlockAvx2;
    t.hamming_shortlist = HammingShortlistAvx2;
    return t;
  }();
  return table;
}

}  // namespace kernels
}  // namespace dismastd

#endif  // defined(__AVX2__)
