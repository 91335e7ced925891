#ifndef DISMASTD_KERNELS_QUANTIZED_H_
#define DISMASTD_KERNELS_QUANTIZED_H_

// Quantized factor-matrix copies for serving. A published model keeps its
// fp64 factors as the source of truth; these side-car representations trade
// precision for memory-bandwidth density on the top-K candidate scan (4x
// for bf16, 8x for int8).
//
// Error model:
//  - bf16 stores the top 16 bits of float32 (round-to-nearest-even):
//    |x - bf16(x)| <= 2^-8 * |x| per element over the normal range, and we
//    additionally record the exact per-column max absolute error at
//    quantization time.
//  - int8 stores round(x / scale_c) with one scale per column,
//    scale_c = max_abs_c / 127 (columns of all zeros get scale 0 and
//    decode to exact zeros). Per-column max absolute error is recorded
//    exactly at quantization time (<= scale_c / 2 by construction).
// A query that scores candidates with combination weights w then has
//    |score_quant - score_f64| <= sum_f |w_f| * col_max_abs_err_f,
// which ServableModel reports per query as `score_error_bound`.

#include <cstdint>
#include <vector>

#include "kernels/kernels.h"

namespace dismastd {
namespace kernels {

/// Row-major bf16 copy of a factor matrix, plus exact per-column max
/// absolute quantization error measured against the fp64 source.
struct Bf16Matrix {
  size_t rows = 0;
  size_t cols = 0;
  std::vector<Bf16> data;
  std::vector<double> col_max_abs_err;

  bool empty() const { return data.empty(); }
  const Bf16* RowPtr(size_t r) const { return data.data() + r * cols; }
};

/// Row-major int8 copy with per-column scales: element (r, c) decodes to
/// data[r * cols + c] * col_scale[c].
struct Int8Matrix {
  size_t rows = 0;
  size_t cols = 0;
  std::vector<int8_t> data;
  std::vector<double> col_scale;
  std::vector<double> col_max_abs_err;

  bool empty() const { return data.empty(); }
  const int8_t* RowPtr(size_t r) const { return data.data() + r * cols; }
};

/// Quantizes the row-major rows x cols fp64 block `source` to bf16
/// (round-to-nearest-even via float32) and measures the exact per-column
/// max absolute error.
Bf16Matrix QuantizeBf16(const double* source, size_t rows, size_t cols);

/// Quantizes the row-major rows x cols fp64 block `source` to int8 with
/// per-column scales and exact per-column max absolute error.
Int8Matrix QuantizeInt8(const double* source, size_t rows, size_t cols);

/// Decodes back to row-major fp64 (for tests and round-trip error
/// measurement).
std::vector<double> Dequantize(const Bf16Matrix& q);
std::vector<double> Dequantize(const Int8Matrix& q);

}  // namespace kernels
}  // namespace dismastd

#endif  // DISMASTD_KERNELS_QUANTIZED_H_
