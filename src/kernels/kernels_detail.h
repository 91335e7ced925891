#ifndef DISMASTD_KERNELS_KERNELS_DETAIL_H_
#define DISMASTD_KERNELS_KERNELS_DETAIL_H_

// Shared pieces of the kernel backends: the blocked-8 fp64 reduction
// contract, the lane layout of the row-list solve, and the scalar
// reference implementations the SIMD backends fall back to for strided
// inputs and remainder lanes. Everything here must stay free of FMA
// contraction — backend translation units are compiled with
// -ffp-contract=off so that these helpers round identically everywhere.
//
// The helpers have internal linkage (the unnamed namespace below): each
// backend translation unit is compiled for its own instruction set, and
// an inline function with external linkage would be emitted by all of
// them as one weak symbol, of which the linker keeps an arbitrary copy —
// a baseline-x86-64 copy in a SIMD table (a libgcc popcount call per
// word), or a SIMD copy in the scalar table (SIGILL on older hosts).

#include <algorithm>
#include <cstdint>

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

/// How many rows ahead of its pass topk_score_block prefetches listed
/// rows, which lie scattered over the factor: two AVX-512 passes, four
/// AVX2 passes.
constexpr size_t kPrefetchAhead = 16;

/// Prefetches the first and last cache line of a `rank`-double row: the
/// whole row when it spans at most two lines, as rank-10 rows do.
inline void PrefetchRow(const double* row, size_t rank) {
  __builtin_prefetch(row);
  if (rank > 1) __builtin_prefetch(row + rank - 1);
}

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

inline uint32_t Popcount64(uint64_t v) {
  return static_cast<uint32_t>(__builtin_popcountll(v));
}

inline void HammingBlockScalar(const uint64_t* codes, size_t num_codes,
                               size_t words, const uint64_t* query,
                               uint16_t* dists) {
  for (size_t g = 0; g < num_codes; ++g) {
    const uint64_t* code = codes + g * words;
    uint32_t d = 0;
    for (size_t w = 0; w < words; ++w) d += Popcount64(code[w] ^ query[w]);
    dists[g] = static_cast<uint16_t>(d);
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

/// hamming_shortlist's cut-off, with *below the rows under it.
/// count_codes(k, t) counts the first k codes at or below t; a multi-row
/// code among them adds its rows beyond one. The first sixteenth of the
/// codes is searched first, for its rows' share of n, and its cut-off
/// seeds the full search, so most queries pay two or three full counting
/// passes instead of log2(max_dist + 1).
template <typename CountCodes>
uint32_t FindCutoff(CountCodes count_codes, const CodeGroups& groups,
                    const uint16_t* dists, size_t n, size_t* below) {
  const uint32_t* offsets = groups.offsets;
  const auto count = [&](size_t codes, size_t num_multi, uint32_t t) {
    size_t rows = count_codes(codes, t);
    for (size_t i = 0; i < num_multi; ++i) {
      const uint32_t g = groups.multi[i];
      if (dists[g] <= t) rows += offsets[g + 1] - offsets[g] - 1;
    }
    return rows;
  };
  const uint32_t max_dist = static_cast<uint32_t>(64 * groups.words);
  uint32_t hint = max_dist / 2;
  const size_t sample = groups.num_codes / 16;
  if (sample > 0) {
    const size_t sample_multi = static_cast<size_t>(
        std::lower_bound(groups.multi, groups.multi + groups.num_multi,
                         sample) -
        groups.multi);
    const size_t rows = offsets[groups.num_codes] - offsets[0];
    const size_t sample_rows = offsets[sample] - offsets[0];
    const size_t sample_n = std::max<size_t>(1, n * sample_rows / rows);
    size_t sample_below = 0;
    hint = GallopCutoff(
        [&](uint32_t t) { return count(sample, sample_multi, t); }, max_dist,
        hint, sample_n, &sample_below);
  }
  return GallopCutoff(
      [&](uint32_t t) {
        return count(groups.num_codes, groups.num_multi, t);
      },
      max_dist, hint, n, below);
}

/// The codes among [first, first + num_codes) at or below t.
inline size_t CountAtOrBelowScalar(const uint16_t* dists, size_t first,
                                   size_t num_codes, uint32_t t) {
  size_t count = 0;
  for (size_t g = first; g < first + num_codes; ++g) {
    count += dists[g] <= t ? 1 : 0;
  }
  return count;
}

/// Appends first + i for every set bit i of `mask` to list[*count, ...),
/// in ascending order. It stores once even for an empty mask (into the
/// slot the next append overwrites), so sparse masks cost no mispredicted
/// branch: `list` needs one slot beyond what it receives.
inline void AppendBits(uint64_t mask, size_t first, uint32_t* list,
                       size_t* count) {
  constexpr uint64_t kTop = uint64_t{1} << 63;
  do {
    list[*count] =
        static_cast<uint32_t>(first + __builtin_ctzll(mask | kTop));
    *count += mask != 0;
    mask &= mask - 1;
  } while (mask != 0);
}

/// The select over codes [first, first + num_codes): the codes below
/// `cut->cutoff` appended to `below`, those at it to `at`, in order.
inline void SelectScalar(const uint16_t* dists, size_t first,
                         size_t num_codes, uint32_t* below, uint32_t* at,
                         ShortlistCut* cut) {
  for (size_t g = first; g < first + num_codes; ++g) {
    if (dists[g] < cut->cutoff) {
      below[cut->num_below++] = static_cast<uint32_t>(g);
    } else if (dists[g] == cut->cutoff) {
      at[cut->num_at++] = static_cast<uint32_t>(g);
    }
  }
}

inline ShortlistCut HammingShortlistScalar(const CodeGroups& groups,
                                           const uint64_t* query, size_t n,
                                           uint16_t* dists, uint32_t* below,
                                           uint32_t* at) {
  HammingBlockScalar(groups.codes, groups.num_codes, groups.words, query,
                     dists);
  ShortlistCut cut;
  if (n == 0) return cut;
  cut.cutoff = FindCutoff(
      [&](size_t count, uint32_t t) {
        return CountAtOrBelowScalar(dists, 0, count, t);
      },
      groups, dists, n, &cut.rows_below);
  SelectScalar(dists, 0, groups.num_codes, below, at, &cut);
  return cut;
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
