#ifndef DISMASTD_KERNELS_KERNELS_DETAIL_H_
#define DISMASTD_KERNELS_KERNELS_DETAIL_H_

// Shared pieces of the kernel backends: the blocked-8 fp64 reduction
// contract, the lane layout of the row-list solve, the bf16 <-> float
// conversions, and the scalar reference implementations the SIMD backends
// fall back to for strided inputs and remainder lanes. Everything here
// must stay free of FMA contraction — backend translation units are
// compiled with -ffp-contract=off so that these helpers round identically
// everywhere.

#include <cstdint>
#include <cstring>

#include "kernels/kernels.h"

namespace dismastd {
namespace kernels {
namespace detail {

/// Rows per lane block of solve_rows. Each body moves kLanes listed rows
/// at a time into a block stored transposed — element i of the block's
/// row l at block[i * kLanes + l] — so every step of a row's recurrence is
/// one independent operation across the block's rows (one zmm, or two
/// ymm), and each lane runs exactly its own row's scalar sequence. A
/// partial block's missing lanes are zero, which every step keeps finite.
inline constexpr size_t kLanes = 8;

/// This thread's lane-block buffer, at least `n` doubles. Reused across
/// calls, so the row pass allocates nothing per chunk.
double* LaneBuffer(size_t n);

/// Combine tree of the blocked-8 reduction: exactly what an 8-lane vector
/// accumulator yields when reduced 512 -> 256 -> 128 -> 64 bits.
inline double CombinePartials8(const double p[8]) {
  const double q0 = p[0] + p[4];
  const double q1 = p[1] + p[5];
  const double q2 = p[2] + p[6];
  const double q3 = p[3] + p[7];
  return (q0 + q2) + (q1 + q3);
}

/// The fp64 dot contract, in scalar form: lane l accumulates elements
/// l, l+8, ...; tail element i lands in lane i mod 8.
inline double DotBlocked(const double* x, size_t incx, const double* y,
                         size_t incy, size_t n) {
  double p[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  const size_t n8 = n & ~static_cast<size_t>(7);
  size_t i = 0;
  for (; i < n8; i += 8) {
    for (size_t l = 0; l < 8; ++l) {
      p[l] += x[(i + l) * incx] * y[(i + l) * incy];
    }
  }
  for (; i < n; ++i) p[i - n8] += x[i * incx] * y[i * incy];
  return CombinePartials8(p);
}

inline void HadamardCombineScalar(const double* const* rows, size_t num_rows,
                                  size_t rank, double* out) {
  for (size_t f = 0; f < rank; ++f) {
    double v = 1.0;
    for (size_t m = 0; m < num_rows; ++m) v *= rows[m][f];
    out[f] = v;
  }
}

/// float64 -> bf16 with round-to-nearest-even (via float32); NaN payloads
/// are quieted so a NaN never rounds into an infinity.
inline Bf16 F64ToBf16(double v) {
  const float f = static_cast<float>(v);
  uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  if ((bits & 0x7FFFFFFFu) > 0x7F800000u) {
    return static_cast<Bf16>((bits >> 16) | 0x0040u);
  }
  bits += 0x7FFFu + ((bits >> 16) & 1u);
  return static_cast<Bf16>(bits >> 16);
}

inline double Bf16ToF64(Bf16 b) {
  const uint32_t bits = static_cast<uint32_t>(b) << 16;
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return static_cast<double>(f);
}

inline double Bf16DotScalar(const Bf16* x, const double* weights, size_t n) {
  double p[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  const size_t n8 = n & ~static_cast<size_t>(7);
  size_t i = 0;
  for (; i < n8; i += 8) {
    for (size_t l = 0; l < 8; ++l) {
      p[l] += Bf16ToF64(x[i + l]) * weights[i + l];
    }
  }
  for (; i < n; ++i) p[i - n8] += Bf16ToF64(x[i]) * weights[i];
  return CombinePartials8(p);
}

inline uint32_t Popcount64(uint64_t v) {
  return static_cast<uint32_t>(__builtin_popcountll(v));
}

inline void HammingBlockScalar(const uint64_t* codes, size_t num_rows,
                               size_t words, const uint64_t* query,
                               uint32_t* dists) {
  for (size_t j = 0; j < num_rows; ++j) {
    const uint64_t* row = codes + j * words;
    uint32_t d = 0;
    for (size_t w = 0; w < words; ++w) d += Popcount64(row[w] ^ query[w]);
    dists[j] = d;
  }
}

inline double I8DotScalar(const int8_t* x, const double* wscaled, size_t n) {
  double p[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
  const size_t n8 = n & ~static_cast<size_t>(7);
  size_t i = 0;
  for (; i < n8; i += 8) {
    for (size_t l = 0; l < 8; ++l) {
      p[l] += static_cast<double>(x[i + l]) * wscaled[i + l];
    }
  }
  for (; i < n; ++i) p[i - n8] += static_cast<double>(x[i]) * wscaled[i];
  return CombinePartials8(p);
}

}  // namespace detail

/// Internal: per-backend table constructors. Only the backends compiled
/// into this build are defined (see src/CMakeLists.txt); kernels.cc gates
/// on DISMASTD_KERNELS_HAVE_AVX2 / _AVX512.
const KernelTable& ScalarKernels();
const KernelTable& Avx2Kernels();
const KernelTable& Avx512Kernels();

}  // namespace kernels
}  // namespace dismastd

#endif  // DISMASTD_KERNELS_KERNELS_DETAIL_H_
