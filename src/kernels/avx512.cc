// AVX-512 kernel backend. Compiled with -mavx512f -mavx512bw -mavx512dq
// -mavx512vl -ffp-contract=off (see src/CMakeLists.txt). Like the AVX2
// backend it never uses FMA: element-wise kernels are lane-parallel over
// independent outputs and reductions keep one 8-lane accumulator whose
// lanes are exactly the blocked-8 partial sums, reduced 512 -> 256 -> 128
// -> 64 in the contract's combine-tree order.

#include "kernels/kernels_detail.h"

#if defined(__AVX512F__)
#include <immintrin.h>

#include <algorithm>
#include <vector>

namespace dismastd {
namespace kernels {
namespace {

using detail::kLanes;

/// Reduces an 8-lane accumulator plus a scalar tail. The lanes of `acc`
/// are the blocked-8 partials p0..p7; spilling and reusing
/// CombinePartials8 keeps the combine tree identical to every backend.
inline double ReduceWithTail(__m512d acc, const double* x, size_t incx,
                             const double* y, size_t incy, size_t n,
                             size_t n8) {
  alignas(64) double p[8];
  _mm512_store_pd(p, acc);
  for (size_t i = n8; i < n; ++i) {
    p[i - n8] += x[i * incx] * y[i * incy];
  }
  return detail::CombinePartials8(p);
}

/// Lanes [0, min(width, 8)) of a zmm mask.
inline __mmask8 ColumnMask(size_t width) {
  return static_cast<__mmask8>(width >= 8 ? 0xFF : (1u << width) - 1u);
}

/// mttkrp_coo over output columns [j0, j0 + 8·kVecs), masked past `rank`.
/// Each lane runs the scalar entry's products in ascending mode order and
/// one add. While consecutive entries share an output row, its partial
/// stays in registers and is stored once the row changes — the same adds
/// in the same order, without a store-to-load round trip per entry (sorted
/// COO lists repeat output rows).
template <size_t kVecs>
void MttkrpPanelAvx512(const uint64_t* indices, const double* values,
                       size_t nnz, size_t order, size_t mode,
                       const size_t* other_modes, const double* const* factors,
                       size_t rank, size_t j0, double* out) {
  __mmask8 mask[kVecs];
  for (size_t v = 0; v < kVecs; ++v) {
    mask[v] = ColumnMask(rank - std::min(rank, j0 + 8 * v));
  }
  const size_t num_other = order - 1;
  __m512d acc[kVecs];
  for (size_t v = 0; v < kVecs; ++v) acc[v] = _mm512_setzero_pd();
  double* row_out = nullptr;
  for (size_t e = 0; e < nnz; ++e) {
    const uint64_t* idx = indices + e * order;
    double* o = out + idx[mode] * rank + j0;
    if (o != row_out) {
      for (size_t v = 0; row_out != nullptr && v < kVecs; ++v) {
        _mm512_mask_storeu_pd(row_out + 8 * v, mask[v], acc[v]);
      }
      row_out = o;
      for (size_t v = 0; v < kVecs; ++v) {
        acc[v] = _mm512_maskz_loadu_pd(mask[v], o + 8 * v);
      }
    }
    const __m512d value = _mm512_set1_pd(values[e]);
    __m512d prod[kVecs];
    for (size_t v = 0; v < kVecs; ++v) prod[v] = value;
    for (size_t k = 0; k < num_other; ++k) {
      const size_t m = other_modes[k];
      const double* row = factors[m] + idx[m] * rank + j0;
      for (size_t v = 0; v < kVecs; ++v) {
        prod[v] = _mm512_mul_pd(prod[v],
                                _mm512_maskz_loadu_pd(mask[v], row + 8 * v));
      }
    }
    for (size_t v = 0; v < kVecs; ++v) acc[v] = _mm512_add_pd(acc[v], prod[v]);
  }
  for (size_t v = 0; row_out != nullptr && v < kVecs; ++v) {
    _mm512_mask_storeu_pd(row_out + 8 * v, mask[v], acc[v]);
  }
}

/// Panels of up to 16 output columns, each a pass over the entry list.
void MttkrpCooAvx512(const uint64_t* indices, const double* values,
                     size_t nnz, size_t order, size_t mode,
                     const double* const* factors, size_t rank, double* out) {
  std::vector<size_t> other_modes;
  for (size_t m = 0; m < order; ++m) {
    if (m != mode) other_modes.push_back(m);
  }
  for (size_t j0 = 0; j0 < rank; j0 += 16) {
    if (rank - j0 > 8) {
      MttkrpPanelAvx512<2>(indices, values, nnz, order, mode,
                           other_modes.data(), factors, rank, j0, out);
    } else {
      MttkrpPanelAvx512<1>(indices, values, nnz, order, mode,
                           other_modes.data(), factors, rank, j0, out);
    }
  }
}

void HadamardCombineAvx512(const double* const* rows, size_t num_rows,
                           size_t rank, double* out) {
  const size_t r8 = rank & ~static_cast<size_t>(7);
  size_t f = 0;
  for (; f < r8; f += 8) {
    __m512d v = _mm512_set1_pd(1.0);
    for (size_t m = 0; m < num_rows; ++m) {
      v = _mm512_mul_pd(v, _mm512_loadu_pd(rows[m] + f));
    }
    _mm512_storeu_pd(out + f, v);
  }
  for (; f < rank; ++f) {
    double v = 1.0;
    for (size_t m = 0; m < num_rows; ++m) v *= rows[m][f];
    out[f] = v;
  }
}

/// Output rows per gram_rows tile: 12 rows x 2 vectors = 24 accumulators,
/// which with a row's two y vectors and one broadcast still fit the 32 zmm
/// registers, so R = 10 takes a single pass over the row list.
constexpr size_t kGramTileRows = 12;

/// One tile of gram_rows: output rows i0 .. i0+tile_rows-1 (at most
/// kGramTileRows) by kVecs 8-column vectors from j0, masked past `rank`.
/// Each accumulator holds its output elements' partials in a register
/// across the whole row list, adding one row's products at a time in list
/// order.
template <size_t kVecs>
void GramTileAvx512(const double* x, const double* y, const uint64_t* rows,
                    size_t num_rows, size_t rank, size_t i0, size_t tile_rows,
                    size_t j0, double* out) {
  __mmask8 mask[kVecs];
  for (size_t v = 0; v < kVecs; ++v) {
    mask[v] = ColumnMask(rank - std::min(rank, j0 + 8 * v));
  }
  __m512d acc[kGramTileRows][kVecs];
#pragma GCC unroll 12
  for (size_t t = 0; t < kGramTileRows; ++t) {
    for (size_t v = 0; v < kVecs; ++v) {
      acc[t][v] = t < tile_rows ? _mm512_maskz_loadu_pd(
                                      mask[v], out + (i0 + t) * rank + j0 +
                                                   8 * v)
                                : _mm512_setzero_pd();
    }
  }
  for (size_t k = 0; k < num_rows; ++k) {
    const size_t base = static_cast<size_t>(rows[k]) * rank;
    const double* xr = x + base + i0;
    __m512d yv[kVecs];
    for (size_t v = 0; v < kVecs; ++v) {
      yv[v] = _mm512_maskz_loadu_pd(mask[v], y + base + j0 + 8 * v);
    }
#pragma GCC unroll 12
    for (size_t t = 0; t < kGramTileRows; ++t) {
      if (t < tile_rows) {
        const __m512d xt = _mm512_set1_pd(xr[t]);
        for (size_t v = 0; v < kVecs; ++v) {
          acc[t][v] = _mm512_add_pd(acc[t][v], _mm512_mul_pd(xt, yv[v]));
        }
      }
    }
  }
#pragma GCC unroll 12
  for (size_t t = 0; t < kGramTileRows; ++t) {
    if (t < tile_rows) {
      for (size_t v = 0; v < kVecs; ++v) {
        _mm512_mask_storeu_pd(out + (i0 + t) * rank + j0 + 8 * v, mask[v],
                              acc[t][v]);
      }
    }
  }
}

void GramRowsAvx512(const double* x, const double* y, const uint64_t* rows,
                    size_t num_rows, size_t rank, double* out) {
  for (size_t j0 = 0; j0 < rank; j0 += 16) {
    for (size_t i0 = 0; i0 < rank; i0 += kGramTileRows) {
      const size_t tile_rows = std::min(kGramTileRows, rank - i0);
      if (rank - j0 > 8) {
        GramTileAvx512<2>(x, y, rows, num_rows, rank, i0, tile_rows, j0, out);
      } else {
        GramTileAvx512<1>(x, y, rows, num_rows, rank, i0, tile_rows, j0, out);
      }
    }
  }
}

/// One zmm per element of each of kBlocks lane blocks (lane l of
/// block[i * kLanes ..] is row l's element i); the blocks' serial
/// substitution chains are independent, so running them side by side
/// overlaps their division latencies. One substitution step (load,
/// multiply, subtract, divide) outlasts the divider time of two zmm
/// divisions, so up to four blocks run together.
template <size_t kBlocks>
void CholeskySolveBlocksAvx512(const double* lower, size_t n, double* blocks) {
  const size_t stride = n * kLanes;
  for (size_t i = 0; i < n; ++i) {
    __m512d acc[kBlocks];
    for (size_t b = 0; b < kBlocks; ++b) {
      acc[b] = _mm512_loadu_pd(blocks + b * stride + i * kLanes);
    }
    for (size_t k = 0; k < i; ++k) {
      const __m512d lik = _mm512_set1_pd(lower[i * n + k]);
      for (size_t b = 0; b < kBlocks; ++b) {
        acc[b] = _mm512_sub_pd(
            acc[b], _mm512_mul_pd(lik, _mm512_loadu_pd(blocks + b * stride +
                                                       k * kLanes)));
      }
    }
    const __m512d diag = _mm512_set1_pd(lower[i * n + i]);
    for (size_t b = 0; b < kBlocks; ++b) {
      _mm512_storeu_pd(blocks + b * stride + i * kLanes,
                       _mm512_div_pd(acc[b], diag));
    }
  }
  for (size_t i = n; i-- > 0;) {
    __m512d acc[kBlocks];
    for (size_t b = 0; b < kBlocks; ++b) {
      acc[b] = _mm512_loadu_pd(blocks + b * stride + i * kLanes);
    }
    for (size_t k = i + 1; k < n; ++k) {
      const __m512d lki = _mm512_set1_pd(lower[k * n + i]);
      for (size_t b = 0; b < kBlocks; ++b) {
        acc[b] = _mm512_sub_pd(
            acc[b], _mm512_mul_pd(lki, _mm512_loadu_pd(blocks + b * stride +
                                                       k * kLanes)));
      }
    }
    const __m512d diag = _mm512_set1_pd(lower[i * n + i]);
    for (size_t b = 0; b < kBlocks; ++b) {
      _mm512_storeu_pd(blocks + b * stride + i * kLanes,
                       _mm512_div_pd(acc[b], diag));
    }
  }
}

void CholeskySolveLanesAvx512(const double* lower, size_t n, double* blocks,
                              size_t num_blocks) {
  const size_t stride = n * kLanes;
  size_t q = 0;
  for (; q + 4 <= num_blocks; q += 4) {
    CholeskySolveBlocksAvx512<4>(lower, n, blocks + q * stride);
  }
  for (; q + 2 <= num_blocks; q += 2) {
    CholeskySolveBlocksAvx512<2>(lower, n, blocks + q * stride);
  }
  if (q < num_blocks) {
    CholeskySolveBlocksAvx512<1>(lower, n, blocks + q * stride);
  }
}

/// Partial k of all 8 lanes' blocked-8 dots lives in one zmm; element i of
/// the rows lands in partial i mod 8, so the tail folds as in the contract.
void DtdNumeratorLanesAvx512(const double* prev_block, const double* weights_t,
                             size_t rank, double mu, double* block) {
  const __m512d vmu = _mm512_set1_pd(mu);
  for (size_t c = 0; c < rank; ++c) {
    const double* w = weights_t + c * rank;
    __m512d p[8];
#pragma GCC unroll 8
    for (size_t k = 0; k < 8; ++k) p[k] = _mm512_setzero_pd();
    for (size_t i0 = 0; i0 < rank; i0 += 8) {
#pragma GCC unroll 8
      for (size_t k = 0; k < 8; ++k) {
        if (i0 + k < rank) {
          p[k] = _mm512_add_pd(
              p[k], _mm512_mul_pd(_mm512_set1_pd(w[i0 + k]),
                                  _mm512_loadu_pd(prev_block +
                                                  (i0 + k) * kLanes)));
        }
      }
    }
    const __m512d q0 = _mm512_add_pd(p[0], p[4]);
    const __m512d q1 = _mm512_add_pd(p[1], p[5]);
    const __m512d q2 = _mm512_add_pd(p[2], p[6]);
    const __m512d q3 = _mm512_add_pd(p[3], p[7]);
    const __m512d dot =
        _mm512_add_pd(_mm512_add_pd(q0, q2), _mm512_add_pd(q1, q3));
    double* out = block + c * kLanes;
    _mm512_storeu_pd(out, _mm512_add_pd(_mm512_mul_pd(vmu, dot),
                                        _mm512_loadu_pd(out)));
  }
}

/// In-register 8x8 transpose: on exit v[j] lane l holds what v[l] lane j
/// held on entry.
inline void Transpose8x8(__m512d v[8]) {
  const __m512d t0 = _mm512_unpacklo_pd(v[0], v[1]);
  const __m512d t1 = _mm512_unpackhi_pd(v[0], v[1]);
  const __m512d t2 = _mm512_unpacklo_pd(v[2], v[3]);
  const __m512d t3 = _mm512_unpackhi_pd(v[2], v[3]);
  const __m512d t4 = _mm512_unpacklo_pd(v[4], v[5]);
  const __m512d t5 = _mm512_unpackhi_pd(v[4], v[5]);
  const __m512d t6 = _mm512_unpacklo_pd(v[6], v[7]);
  const __m512d t7 = _mm512_unpackhi_pd(v[6], v[7]);
  // u holds 128-bit pairs of columns {0,4}, {2,6}, {1,5}, {3,7} for rows
  // 0-3 (u0..u3) and rows 4-7 (u4..u7).
  const __m512d u0 = _mm512_shuffle_f64x2(t0, t2, 0x88);
  const __m512d u1 = _mm512_shuffle_f64x2(t0, t2, 0xDD);
  const __m512d u2 = _mm512_shuffle_f64x2(t1, t3, 0x88);
  const __m512d u3 = _mm512_shuffle_f64x2(t1, t3, 0xDD);
  const __m512d u4 = _mm512_shuffle_f64x2(t4, t6, 0x88);
  const __m512d u5 = _mm512_shuffle_f64x2(t4, t6, 0xDD);
  const __m512d u6 = _mm512_shuffle_f64x2(t5, t7, 0x88);
  const __m512d u7 = _mm512_shuffle_f64x2(t5, t7, 0xDD);
  v[0] = _mm512_shuffle_f64x2(u0, u4, 0x88);
  v[4] = _mm512_shuffle_f64x2(u0, u4, 0xDD);
  v[2] = _mm512_shuffle_f64x2(u1, u5, 0x88);
  v[6] = _mm512_shuffle_f64x2(u1, u5, 0xDD);
  v[1] = _mm512_shuffle_f64x2(u2, u6, 0x88);
  v[5] = _mm512_shuffle_f64x2(u2, u6, 0xDD);
  v[3] = _mm512_shuffle_f64x2(u3, u7, 0x88);
  v[7] = _mm512_shuffle_f64x2(u3, u7, 0xDD);
}

/// Moves the `count` (<= kLanes) listed rows of row-major `m` into the lanes
/// of `block` by 8x8 transposes, the rank mod 8 tail and missing lanes
/// zero.
void GatherLanesAvx512(const double* m, const uint64_t* rows, size_t count,
                       size_t rank, double* block) {
  for (size_t j0 = 0; j0 < rank; j0 += 8) {
    const size_t width = std::min<size_t>(8, rank - j0);
    const __mmask8 mask = ColumnMask(width);
    __m512d v[8];
#pragma GCC unroll 8
    for (size_t l = 0; l < 8; ++l) {
      v[l] = l < count ? _mm512_maskz_loadu_pd(mask, m + rows[l] * rank + j0)
                       : _mm512_setzero_pd();
    }
    Transpose8x8(v);
#pragma GCC unroll 8
    for (size_t j = 0; j < 8; ++j) {
      if (j < width) _mm512_storeu_pd(block + (j0 + j) * kLanes, v[j]);
    }
  }
}

/// Moves lane l of `block` to listed row l of row-major `m`, l < count.
void ScatterLanesAvx512(const double* block, const uint64_t* rows,
                        size_t count, size_t rank, double* m) {
  for (size_t j0 = 0; j0 < rank; j0 += 8) {
    const size_t width = std::min<size_t>(8, rank - j0);
    const __mmask8 mask = ColumnMask(width);
    __m512d v[8];
#pragma GCC unroll 8
    for (size_t j = 0; j < 8; ++j) {
      v[j] = j < width ? _mm512_loadu_pd(block + (j0 + j) * kLanes)
                       : _mm512_setzero_pd();
    }
    Transpose8x8(v);
#pragma GCC unroll 8
    for (size_t l = 0; l < 8; ++l) {
      if (l < count) _mm512_mask_storeu_pd(m + rows[l] * rank + j0, mask, v[l]);
    }
  }
}

/// Blocks solved side by side per group.
constexpr size_t kSolveGroup = 4;

/// Up to kSolveGroup lane blocks at a time: transpose the rows in (and
/// form their numerators right after), solve the group's blocks side by
/// side, transpose them out.
void SolveRowsAvx512(const double* lower, size_t rank, const double* rhs,
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
      GatherLanesAvx512(rhs, block_rows, lanes, rank, block);
      if (prev != nullptr) {
        GatherLanesAvx512(prev, block_rows, lanes, rank, prev_block);
        DtdNumeratorLanesAvx512(prev_block, weights_t, rank, mu, block);
      }
    }
    CholeskySolveLanesAvx512(lower, rank, blocks, num_blocks);
    for (size_t q = 0; q < num_blocks; ++q) {
      ScatterLanesAvx512(blocks + q * stride, rows + r0 + q * kLanes,
                         std::min(kLanes, count - q * kLanes), rank, out);
    }
  }
}

double DotContiguousAvx512(const double* x, const double* y, size_t n) {
  __m512d acc = _mm512_setzero_pd();
  const size_t n8 = n & ~static_cast<size_t>(7);
  for (size_t i = 0; i < n8; i += 8) {
    acc = _mm512_add_pd(
        acc, _mm512_mul_pd(_mm512_loadu_pd(x + i), _mm512_loadu_pd(y + i)));
  }
  return ReduceWithTail(acc, x, 1, y, 1, n, n8);
}

double DotStridedAvx512(const double* x, size_t incx, const double* y,
                        size_t incy, size_t n) {
  if (incx == 1 && incy == 1) return DotContiguousAvx512(x, y, n);
  return detail::DotBlocked(x, incx, y, incy, n);
}

void TopKScoreBlockAvx512(const double* rows, size_t num_rows, size_t rank,
                          const double* weights, double* scores) {
  for (size_t j = 0; j < num_rows; ++j) {
    scores[j] = DotContiguousAvx512(rows + j * rank, weights, rank);
  }
}

/// Widens 8 bf16 lanes to 8 doubles: u16 -> u32 << 16 reinterpreted as
/// float32 (exact), then converted to float64 (exact).
inline __m512d WidenBf16x8(const Bf16* x) {
  const __m128i raw = _mm_loadu_si128(reinterpret_cast<const __m128i*>(x));
  const __m256i fbits = _mm256_slli_epi32(_mm256_cvtepu16_epi32(raw), 16);
  return _mm512_cvtps_pd(_mm256_castsi256_ps(fbits));
}

double Bf16DotAvx512(const Bf16* x, const double* weights, size_t n) {
  __m512d acc = _mm512_setzero_pd();
  const size_t n8 = n & ~static_cast<size_t>(7);
  size_t i = 0;
  for (; i < n8; i += 8) {
    acc = _mm512_add_pd(
        acc, _mm512_mul_pd(WidenBf16x8(x + i), _mm512_loadu_pd(weights + i)));
  }
  alignas(64) double p[8];
  _mm512_store_pd(p, acc);
  for (; i < n; ++i) p[i - n8] += detail::Bf16ToF64(x[i]) * weights[i];
  return detail::CombinePartials8(p);
}

void TopKScoreBlockBf16Avx512(const Bf16* rows, size_t num_rows, size_t rank,
                              const double* weights, double* scores) {
  for (size_t j = 0; j < num_rows; ++j) {
    scores[j] = Bf16DotAvx512(rows + j * rank, weights, rank);
  }
}

double I8DotAvx512(const int8_t* x, const double* wscaled, size_t n) {
  __m512d acc = _mm512_setzero_pd();
  const size_t n8 = n & ~static_cast<size_t>(7);
  size_t i = 0;
  for (; i < n8; i += 8) {
    const __m128i raw =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(x + i));
    const __m512d v = _mm512_cvtepi32_pd(_mm256_cvtepi8_epi32(raw));
    acc = _mm512_add_pd(acc,
                        _mm512_mul_pd(v, _mm512_loadu_pd(wscaled + i)));
  }
  alignas(64) double p[8];
  _mm512_store_pd(p, acc);
  for (; i < n; ++i) p[i - n8] += static_cast<double>(x[i]) * wscaled[i];
  return detail::CombinePartials8(p);
}

void TopKScoreBlockI8Avx512(const int8_t* rows, size_t num_rows, size_t rank,
                            const double* wscaled, double* scores) {
  for (size_t j = 0; j < num_rows; ++j) {
    scores[j] = I8DotAvx512(rows + j * rank, wscaled, rank);
  }
}

void F64ToBf16Plain(const double* src, size_t n, Bf16* dst) {
  for (size_t i = 0; i < n; ++i) dst[i] = detail::F64ToBf16(src[i]);
}

void Bf16ToF64Plain(const Bf16* src, size_t n, double* dst) {
  for (size_t i = 0; i < n; ++i) dst[i] = detail::Bf16ToF64(src[i]);
}

#if defined(DISMASTD_KERNELS_HAVE_VPOPCNTDQ)
// hamming_shortlist: a VPOPCNTDQ scan, then the counting-select's passes
// over the distances (plain AVX-512F).

/// Lanes [0, min(count, 16)) of a 16-lane mask.
inline __mmask16 RowMask16(size_t count) {
  return static_cast<__mmask16>(count >= 16 ? 0xFFFF : (1u << count) - 1u);
}

/// hamming_shortlist's counting pass: the number of rows with
/// dists[j] <= t, 16 rows per compare.
size_t CountAtOrBelowAvx512(const uint32_t* dists, size_t num_rows,
                            uint32_t t) {
  const __m512i limit = _mm512_set1_epi32(static_cast<int>(t));
  const __m512i one = _mm512_set1_epi32(1);
  __m512i even = _mm512_setzero_si512();
  __m512i odd = _mm512_setzero_si512();
  size_t j = 0;
  for (; j + 32 <= num_rows; j += 32) {
    const __mmask16 le0 =
        _mm512_cmple_epu32_mask(_mm512_loadu_si512(dists + j), limit);
    const __mmask16 le1 =
        _mm512_cmple_epu32_mask(_mm512_loadu_si512(dists + j + 16), limit);
    even = _mm512_mask_add_epi32(even, le0, even, one);
    odd = _mm512_mask_add_epi32(odd, le1, odd, one);
  }
  for (; j < num_rows; j += 16) {
    const __mmask16 valid = RowMask16(num_rows - j);
    const __mmask16 le = _mm512_mask_cmple_epu32_mask(
        valid, _mm512_maskz_loadu_epi32(valid, dists + j), limit);
    even = _mm512_mask_add_epi32(even, le, even, one);
  }
  alignas(64) uint32_t lanes[16];
  _mm512_store_si512(lanes, _mm512_add_epi32(even, odd));
  size_t total = 0;
  for (uint32_t c : lanes) total += c;
  return total;
}

/// hamming_shortlist's select: 16 rows per compare, the kept rows'
/// indices compress-stored in order.
void SelectAvx512(const uint32_t* dists, size_t num_rows, uint32_t cutoff,
                  size_t ties, uint32_t* rows) {
  const __m512i c = _mm512_set1_epi32(static_cast<int>(cutoff));
  const __m512i lanes = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10,
                                          11, 12, 13, 14, 15);
  size_t taken = 0;
  for (size_t j = 0; j < num_rows; j += 16) {
    const __mmask16 valid = RowMask16(num_rows - j);
    const __m512i d = _mm512_maskz_loadu_epi32(valid, dists + j);
    uint32_t keep = _mm512_mask_cmplt_epu32_mask(valid, d, c);
    if (ties != 0) {
      const uint32_t tied = detail::LowestBits(
          _mm512_mask_cmpeq_epu32_mask(valid, d, c), ties);
      ties -= static_cast<size_t>(__builtin_popcount(tied));
      keep |= tied;
    }
    if (keep != 0) {
      _mm512_mask_compressstoreu_epi32(
          rows + taken, static_cast<__mmask16>(keep),
          _mm512_add_epi32(lanes, _mm512_set1_epi32(static_cast<int>(j))));
      taken += static_cast<size_t>(__builtin_popcount(keep));
    }
  }
}

// The scan is compiled with a per-function target attribute — the base
// AVX-512 feature set this TU is built with does not include VPOPCNTDQ, so
// the table constructor checks CPUID before installing the entry.
#define DISMASTD_VPOPCNTDQ __attribute__((target("avx512vpopcntdq")))

/// Lane i of the result is c[2i] + c[2i+1], where c = a ++ b (16 lanes).
/// Applied log2(n) times to n vectors of row-major per-word counts, it
/// leaves each row's total in one lane, in row order.
inline __m512i AddPairs(__m512i a, __m512i b) {
  const __m512i even = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
  const __m512i odd = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
  return _mm512_add_epi64(_mm512_permutex2var_epi64(a, even, b),
                          _mm512_permutex2var_epi64(a, odd, b));
}

/// Full 8-row blocks of kWords-word codes, kWords in {1, 2, 4}. A block
/// is kWords contiguous vectors in which lane i holds word i mod kWords
/// of its row, so one query pattern serves them all; AddPairs then folds
/// each row's words into one lane. Returns the number of rows done.
template <size_t kWords>
DISMASTD_VPOPCNTDQ size_t HammingBlocksVpopcntdq(const uint64_t* codes,
                                                 size_t num_rows,
                                                 const uint64_t* query,
                                                 uint32_t* dists) {
  alignas(64) uint64_t pattern[8];
  for (size_t i = 0; i < 8; ++i) pattern[i] = query[i % kWords];
  const __m512i q = _mm512_load_si512(pattern);
  const size_t blocks = num_rows / 8;
  for (size_t b = 0; b < blocks; ++b) {
    const uint64_t* block = codes + b * 8 * kWords;
    __m512i c[kWords];
    for (size_t v = 0; v < kWords; ++v) {
      c[v] = _mm512_popcnt_epi64(
          _mm512_xor_si512(_mm512_loadu_si512(block + 8 * v), q));
    }
    for (size_t n = kWords; n > 1; n /= 2) {
      for (size_t v = 0; v < n / 2; ++v) {
        c[v] = AddPairs(c[2 * v], c[2 * v + 1]);
      }
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dists + 8 * b),
                        _mm512_cvtepi64_epi32(c[0]));
  }
  return blocks * 8;
}

/// Any word count and any number of rows, 8 rows at a time: each row's
/// code is read as 8-word chunks (the last one masked), its counts summed
/// lane-wise into one vector, and three AddPairs levels fold the 8 rows'
/// vectors into one lane each. A partial block stores only its rows.
DISMASTD_VPOPCNTDQ void HammingRowsVpopcntdq(const uint64_t* codes,
                                             size_t num_rows, size_t words,
                                             const uint64_t* query,
                                             uint32_t* dists) {
  const size_t chunks = words / 8;
  const __mmask8 tail = ColumnMask(words % 8);
  const __m512i qtail = _mm512_maskz_loadu_epi64(tail, query + 8 * chunks);
  for (size_t j0 = 0; j0 < num_rows; j0 += 8) {
    const size_t count = std::min<size_t>(8, num_rows - j0);
    __m512i acc[8];
    for (size_t l = 0; l < 8; ++l) {
      acc[l] = _mm512_setzero_si512();
      if (l >= count) continue;
      const uint64_t* row = codes + (j0 + l) * words;
      for (size_t c = 0; c < chunks; ++c) {
        const __m512i x = _mm512_xor_si512(_mm512_loadu_si512(row + 8 * c),
                                           _mm512_loadu_si512(query + 8 * c));
        acc[l] = _mm512_add_epi64(acc[l], _mm512_popcnt_epi64(x));
      }
      const __m512i x = _mm512_xor_si512(
          _mm512_maskz_loadu_epi64(tail, row + 8 * chunks), qtail);
      acc[l] = _mm512_add_epi64(acc[l], _mm512_popcnt_epi64(x));
    }
    for (size_t n = 8; n > 1; n /= 2) {
      for (size_t v = 0; v < n / 2; ++v) {
        acc[v] = AddPairs(acc[2 * v], acc[2 * v + 1]);
      }
    }
    _mm256_mask_storeu_epi32(dists + j0, ColumnMask(count),
                             _mm512_cvtepi64_epi32(acc[0]));
  }
}

DISMASTD_VPOPCNTDQ void HammingScanVpopcntdq(const uint64_t* codes,
                                             size_t num_rows, size_t words,
                                             const uint64_t* query,
                                             uint32_t* dists) {
  size_t done = 0;
  switch (words) {
    case 1:
      done = HammingBlocksVpopcntdq<1>(codes, num_rows, query, dists);
      break;
    case 2:
      done = HammingBlocksVpopcntdq<2>(codes, num_rows, query, dists);
      break;
    case 4:
      done = HammingBlocksVpopcntdq<4>(codes, num_rows, query, dists);
      break;
    default:
      break;
  }
  HammingRowsVpopcntdq(codes + done * words, num_rows - done, words, query,
                       dists + done);
}

/// The table entry, with every pass inlined into it (flatten): the hot
/// loops run without a call.
DISMASTD_VPOPCNTDQ __attribute__((flatten)) void HammingShortlistVpopcntdq(
    const uint64_t* codes, size_t num_rows, size_t words,
    const uint64_t* query, size_t n, uint32_t* dists, uint32_t* rows) {
  HammingScanVpopcntdq(codes, num_rows, words, query, dists);
  if (n == 0) return;
  size_t below = 0;
  const uint32_t cutoff = detail::FindCutoff(
      [&](size_t count, uint32_t t) {
        return CountAtOrBelowAvx512(dists, count, t);
      },
      num_rows, static_cast<uint32_t>(64 * words), n, &below);
  SelectAvx512(dists, num_rows, cutoff, n - below, rows);
}

bool CpuHasVpopcntdq() { return __builtin_cpu_supports("avx512vpopcntdq"); }
#endif  // DISMASTD_KERNELS_HAVE_VPOPCNTDQ

}  // namespace

const KernelTable& Avx512Kernels() {
  static const KernelTable table = [] {
    KernelTable t;
    t.backend = Backend::kAvx512;
    t.mttkrp_coo = MttkrpCooAvx512;
    t.hadamard_combine = HadamardCombineAvx512;
    t.gram_rows = GramRowsAvx512;
    t.solve_rows = SolveRowsAvx512;
    t.dot_strided = DotStridedAvx512;
    t.topk_score_block = TopKScoreBlockAvx512;
    t.f64_to_bf16 = F64ToBf16Plain;
    t.bf16_to_f64 = Bf16ToF64Plain;
    t.bf16_dot = Bf16DotAvx512;
    t.topk_score_block_bf16 = TopKScoreBlockBf16Avx512;
    t.i8_dot = I8DotAvx512;
    t.topk_score_block_i8 = TopKScoreBlockI8Avx512;
#if defined(DISMASTD_KERNELS_HAVE_AVX2)
    // Without VPOPCNTDQ (Skylake-SP, Cascade Lake) the AVX2 nibble-lookup
    // body runs; every AVX-512 host has AVX2.
    t.hamming_shortlist = Avx2Kernels().hamming_shortlist;
#else
    t.hamming_shortlist = detail::HammingShortlistScalar;
#endif
#if defined(DISMASTD_KERNELS_HAVE_VPOPCNTDQ)
    if (CpuHasVpopcntdq()) t.hamming_shortlist = HammingShortlistVpopcntdq;
#endif
    return t;
  }();
  return table;
}

}  // namespace kernels
}  // namespace dismastd

#endif  // defined(__AVX512F__)
