#include "kernels/quantized.h"

#include <cmath>

#include "kernels/kernels_detail.h"

namespace dismastd {
namespace kernels {

Bf16Matrix QuantizeBf16(const double* source, size_t rows, size_t cols) {
  Bf16Matrix q;
  q.rows = rows;
  q.cols = cols;
  q.data.resize(q.rows * q.cols);
  q.col_max_abs_err.assign(q.cols, 0.0);
  for (size_t r = 0; r < q.rows; ++r) {
    const double* src = source + r * q.cols;
    Bf16* dst = q.data.data() + r * q.cols;
    for (size_t c = 0; c < q.cols; ++c) {
      dst[c] = detail::F64ToBf16(src[c]);
      const double err = std::abs(src[c] - detail::Bf16ToF64(dst[c]));
      if (err > q.col_max_abs_err[c]) q.col_max_abs_err[c] = err;
    }
  }
  return q;
}

Int8Matrix QuantizeInt8(const double* source, size_t rows, size_t cols) {
  Int8Matrix q;
  q.rows = rows;
  q.cols = cols;
  q.data.resize(q.rows * q.cols);
  q.col_scale.assign(q.cols, 0.0);
  q.col_max_abs_err.assign(q.cols, 0.0);
  if (q.data.empty()) return q;
  for (size_t c = 0; c < q.cols; ++c) {
    double max_abs = 0.0;
    for (size_t r = 0; r < q.rows; ++r) {
      const double a = std::abs(source[r * q.cols + c]);
      if (a > max_abs) max_abs = a;
    }
    q.col_scale[c] = max_abs > 0.0 ? max_abs / 127.0 : 0.0;
  }
  for (size_t r = 0; r < q.rows; ++r) {
    const double* src = source + r * q.cols;
    int8_t* dst = q.data.data() + r * q.cols;
    for (size_t c = 0; c < q.cols; ++c) {
      const double scale = q.col_scale[c];
      double code = 0.0;
      if (scale > 0.0) {
        code = std::nearbyint(src[c] / scale);
        if (code > 127.0) code = 127.0;
        if (code < -127.0) code = -127.0;
      }
      dst[c] = static_cast<int8_t>(code);
      const double err = std::abs(src[c] - code * scale);
      if (err > q.col_max_abs_err[c]) q.col_max_abs_err[c] = err;
    }
  }
  return q;
}

std::vector<double> Dequantize(const Bf16Matrix& q) {
  std::vector<double> m(q.data.size());
  for (size_t i = 0; i < m.size(); ++i) m[i] = detail::Bf16ToF64(q.data[i]);
  return m;
}

std::vector<double> Dequantize(const Int8Matrix& q) {
  std::vector<double> m(q.data.size());
  for (size_t r = 0; r < q.rows; ++r) {
    const int8_t* src = q.RowPtr(r);
    double* dst = m.data() + r * q.cols;
    for (size_t c = 0; c < q.cols; ++c) {
      dst[c] = static_cast<double>(src[c]) * q.col_scale[c];
    }
  }
  return m;
}

}  // namespace kernels
}  // namespace dismastd
