#ifndef DISMASTD_KERNELS_KERNELS_DETAIL_H_
#define DISMASTD_KERNELS_KERNELS_DETAIL_H_

// Shared pieces of the kernel backends: the blocked-8 fp64 reduction
// contract, the lane layout of the row-list solve, the bf16 <-> float
// conversions, and the scalar reference implementations the SIMD backends
// fall back to for strided inputs and remainder lanes. Everything here
// must stay free of FMA contraction — backend translation units are
// compiled with -ffp-contract=off so that these helpers round identically
// everywhere.
//
// The helpers have internal linkage (the unnamed namespace below): each
// backend translation unit is compiled for its own instruction set, and
// an inline function with external linkage would be emitted by all of
// them as one weak symbol, of which the linker keeps an arbitrary copy —
// a baseline-x86-64 copy in a SIMD table (a libgcc popcount call per
// word), or a SIMD copy in the scalar table (SIGILL on older hosts).

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "kernels/kernels.h"

namespace dismastd {
namespace kernels {
namespace detail {

/// This thread's lane-block buffer, at least `n` doubles. Reused across
/// calls, so the row pass allocates nothing per chunk.
double* LaneBuffer(size_t n);

namespace {

/// Rows per lane block of solve_rows. Each body moves kLanes listed rows
/// at a time into a block stored transposed — element i of the block's
/// row l at block[i * kLanes + l] — so every step of a row's recurrence is
/// one independent operation across the block's rows (one zmm, or two
/// ymm), and each lane runs exactly its own row's scalar sequence. A
/// partial block's missing lanes are zero, which every step keeps finite.
constexpr size_t kLanes = 8;

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

/// The smallest distance c in [0, max_dist] with count_at_or_below(c) >=
/// n (count_at_or_below(max_dist) must reach n); *below receives
/// count_at_or_below(c - 1), 0 when c = 0. Each probe is one counting
/// pass. The search probes `hint`, gallops away from it (hint ∓ 1, 3, 7,
/// ...) until a probe lands on c's other side, then bisects the bracket:
/// a hint within d of c costs about 2·log2(d + 2) probes.
template <typename CountAtOrBelow>
uint32_t GallopCutoff(CountAtOrBelow count_at_or_below, uint32_t max_dist,
                      uint32_t hint, size_t n, size_t* below) {
  // Invariant: c in [lo, hi], *below = count_at_or_below(lo - 1).
  uint32_t lo = 0;
  uint32_t hi = max_dist;
  *below = 0;
  const auto probe = [&](uint32_t t) {
    const size_t at_or_below = count_at_or_below(t);
    if (at_or_below >= n) {
      hi = t;
      return true;
    }
    lo = t + 1;
    *below = at_or_below;
    return false;
  };
  uint32_t t = std::min(hint, max_dist);
  const bool c_at_or_below_hint = probe(t);
  for (uint32_t step = 1; lo < hi; step *= 2) {
    if (c_at_or_below_hint) {
      if (t - lo < step) break;
      t -= step;
    } else {
      if (hi - t <= step) break;
      t += step;
    }
    if (probe(t) != c_at_or_below_hint) break;
  }
  while (lo < hi) probe(lo + (hi - lo) / 2);
  return lo;
}

/// hamming_shortlist's cut-off over `num_rows` distances, with *below the
/// number of rows under it. count(rows, t) counts the first `rows`
/// distances at or below t. The first sixteenth of the rows is searched
/// first, for its share of n, and its cut-off seeds the full search, so
/// most queries pay two or three full counting passes instead of
/// log2(max_dist + 1).
template <typename Count>
uint32_t FindCutoff(Count count, size_t num_rows, uint32_t max_dist,
                    size_t n, size_t* below) {
  uint32_t hint = max_dist / 2;
  const size_t sample = num_rows / 16;
  if (sample > 0) {
    const size_t sample_n = std::max<size_t>(1, n * sample / num_rows);
    size_t sample_below = 0;
    hint = GallopCutoff([&](uint32_t t) { return count(sample, t); },
                        max_dist, hint, sample_n, &sample_below);
  }
  return GallopCutoff([&](uint32_t t) { return count(num_rows, t); },
                      max_dist, hint, n, below);
}

inline size_t CountAtOrBelowScalar(const uint32_t* dists, size_t num_rows,
                                   uint32_t t) {
  size_t count = 0;
  for (size_t j = 0; j < num_rows; ++j) count += dists[j] <= t ? 1 : 0;
  return count;
}

/// The lowest `count` set bits of `mask`: the ties a select block keeps
/// while the tie budget lasts.
inline uint32_t LowestBits(uint32_t mask, size_t count) {
  uint32_t kept = 0;
  for (; mask != 0 && count != 0; --count) {
    kept |= mask & (0u - mask);
    mask &= mask - 1;
  }
  return kept;
}

/// The select over rows [first, first + num_rows): every row below
/// `cutoff`, and rows at it while `ties` lasts, written to `rows` in
/// order. Returns the number written.
inline size_t SelectScalar(const uint32_t* dists, size_t first,
                           size_t num_rows, uint32_t cutoff, size_t ties,
                           uint32_t* rows) {
  size_t taken = 0;
  for (size_t j = 0; j < num_rows; ++j) {
    const uint32_t d = dists[j];
    if (d == cutoff && ties != 0) {
      --ties;
      rows[taken++] = static_cast<uint32_t>(first + j);
    } else if (d < cutoff) {
      rows[taken++] = static_cast<uint32_t>(first + j);
    }
  }
  return taken;
}

inline void HammingShortlistScalar(const uint64_t* codes, size_t num_rows,
                                   size_t words, const uint64_t* query,
                                   size_t n, uint32_t* dists,
                                   uint32_t* rows) {
  HammingBlockScalar(codes, num_rows, words, query, dists);
  if (n == 0) return;
  size_t below = 0;
  const uint32_t cutoff = FindCutoff(
      [&](size_t count, uint32_t t) {
        return CountAtOrBelowScalar(dists, count, t);
      },
      num_rows, static_cast<uint32_t>(64 * words), n, &below);
  SelectScalar(dists, 0, num_rows, cutoff, n - below, rows);
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

}  // namespace
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
