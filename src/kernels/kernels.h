#ifndef DISMASTD_KERNELS_KERNELS_H_
#define DISMASTD_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace dismastd {
namespace kernels {

/// The SIMD backends a kernel table can be built from. kScalar is always
/// available and is the semantic reference: every fp64 kernel in every
/// backend is bit-exact against it (see the determinism contract below).
enum class Backend : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};
inline constexpr size_t kNumBackends = 3;

const char* BackendName(Backend backend);
Result<Backend> ParseBackend(const std::string& text);

/// The widest code hamming_shortlist takes: its u16 distances reach
/// 64 · words, which must not pass 65,535.
inline constexpr size_t kMaxCodeWords = 65535 / 64;

/// A mode's distinct sign codes, as hamming_shortlist reads them (the
/// grouped layout of ann::LshModeIndex).
struct CodeGroups {
  /// num_codes codes of `words` u64s each; words <= kMaxCodeWords.
  const uint64_t* codes = nullptr;
  size_t num_codes = 0;
  size_t words = 0;
  /// Code g stands for offsets[g + 1] - offsets[g] >= 1 rows.
  const uint32_t* offsets = nullptr;
  /// The codes that stand for more than one row, ascending.
  const uint32_t* multi = nullptr;
  size_t num_multi = 0;
};

/// What hamming_shortlist's counting-select chose (see its contract).
struct ShortlistCut {
  /// The cut-off distance c.
  uint32_t cutoff = 0;
  /// Rows of the codes strictly below c; fewer than n.
  size_t rows_below = 0;
  /// Codes written to `below` (distance < c) and to `at` (distance c).
  size_t num_below = 0;
  size_t num_at = 0;
};

/// One table of function pointers per backend — the single place where a
/// flop happens on a factor row. Callers fetch the dispatched table once
/// (kernels::Get()) and call through it; they never branch on CPU features
/// themselves.
///
/// Determinism contract: every entry computes in fp64 (hamming_shortlist
/// in integers). Element-wise kernels (mttkrp_coo, hadamard_combine)
/// perform the same scalar operations in the same order in every backend,
/// lane-parallel over independent outputs, so they are bit-exact across
/// backends by construction. Reductions (dot_strided, topk_score_block)
/// share a fixed blocking: 8 independent partial sums, lane l
/// accumulating elements l, l+8, l+16, ... with the tail element i
/// folded into lane i mod 8, combined as ((p0+p4)+(p2+p6)) +
/// ((p1+p5)+(p3+p7)) — exactly the tree an 8-lane vector reduction
/// produces. Row-list entries give each listed row exactly the result it
/// would get alone (solve_rows runs one row's scalar recurrence, its
/// numerator dot under the blocked-8 contract), or add each output
/// element's terms in the order the rows are listed (gram_rows,
/// mttkrp_coo's repeated output rows). No FMA contraction anywhere
/// (backends are compiled with -ffp-contract=off and use separate mul/add
/// intrinsics), so fp64 results are bit-identical across scalar, AVX2 and
/// AVX-512.
struct KernelTable {
  Backend backend = Backend::kScalar;

  /// The sparse MTTKRP (Eq. 6) over a COO list. For e = 0, 1, ..., nnz-1
  /// in order, with i = indices + e*order the entry's index tuple and
  /// f in [0, rank):
  ///   out[i[mode]][f] += values[e] · Π_{m≠mode} factors[m][i[m]][f],
  /// the product formed from values[e] over the non-target modes in
  /// ascending m, then added once. `factors[m]` and `out` are row-major
  /// rank-column matrices; factors[mode] is not read. Entries that share
  /// an output row add in list order (a sorted list repeats rows; SIMD
  /// bodies keep such a run's partial in registers). One call covers a
  /// whole tensor or partition.
  void (*mttkrp_coo)(const uint64_t* indices, const double* values,
                     size_t nnz, size_t order, size_t mode,
                     const double* const* factors, size_t rank, double* out);

  /// out[f] = prod_m rows[m][f] (empty product = 1.0). The combination
  /// weights w[f] = prod_n A_n[i_n, f] of point predictions and top-K.
  void (*hadamard_combine)(const double* const* rows, size_t num_rows,
                           size_t rank, double* out);

  /// out[i*rank + j] += Σ_k x_k[i] * y_k[j] for i, j in [0, rank), where
  /// x_k = x + rows[k]*rank and y_k = y + rows[k]*rank are rows of two
  /// row-major rank-column matrices, or x + k*rank and y + k*rank when
  /// `rows` is null (a contiguous block, as in topk_score_block). Each
  /// output element adds its terms one at a time in list order (k = 0,
  /// 1, ...), exactly as num_rows successive rank-1 updates would; rows may
  /// repeat or come unsorted. The Gram (y == x) or cross-Gram partial of a
  /// partition's rows, and with null rows the whole xᵀy of TransposeTimes.
  /// From out = +0.0 that is bit for bit a loop that skips the terms of
  /// zero x entries, as long as the inputs are finite: such a term is
  /// ±0.0, and adding ±0.0 leaves every sum that starts at +0.0 unchanged
  /// (a round-to-nearest sum is -0.0 only when both addends are). A zero x
  /// entry against an infinite or NaN y entry gives NaN here instead.
  void (*gram_rows)(const double* x, const double* y, const uint64_t* rows,
                    size_t num_rows, size_t rank, double* out);

  /// Eq. 5's row solve over a row list, given A's Cholesky factor `lower`
  /// (rank x rank row-major, lower triangle read). For each listed row r:
  /// b = rhs[r]; when `prev` is non-null, b[c] = mu * s_c + b[c], where
  /// s_c is the blocked-8 dot of prev[r] with row c of `weights_t` (had_hᵀ,
  /// rank x rank) — bit for bit mu * topk_score_block(weights_t, nullptr,
  /// rank, rank, prev[r])[c] + b[c], including the dot's 0 + x·y start. Then
  /// z·A = b is solved by forward substitution y_i = (b_i - Σ_{k<i}
  /// L_ik·y_k) / L_ii and back substitution z_i = (y_i - Σ_{k>i} L_ki·z_k)
  /// / L_ii, each sum subtracted term by term in k order with a true
  /// division, and z is written to out[r]. rhs, prev and out are row-major
  /// rank-column matrices indexed by the listed rows; `out` must not
  /// overlap `rhs` or `prev`. Rows may come unsorted or repeat; each gets
  /// exactly the result it would get alone. Bodies transpose 8 rows at a
  /// time into lanes and run several blocks' serial division chains side
  /// by side (the layout is private to the kernels, kernels_detail.h).
  void (*solve_rows)(const double* lower, size_t rank, const double* rhs,
                     const double* prev, const double* weights_t, double mu,
                     const uint64_t* rows, size_t num_rows, double* out);

  /// Strided dot product sum_i x[i*incx] * y[i*incy] under the blocked-8
  /// reduction contract. incx/incy may be 0 (broadcast) or any stride.
  double (*dot_strided)(const double* x, size_t incx, const double* y,
                        size_t incy, size_t n);

  /// scores[j] = dot(x_j, weights) for j in [0, num_rows), where x_j =
  /// rows + ids[j]*rank is a listed row of a row-major rank-column matrix,
  /// or rows + j*rank when `ids` is null (a contiguous block). Listed rows
  /// may come unsorted or repeat. Each score is bit for bit dot_strided(x_j,
  /// 1, weights, 1, rank): the exact top-K scan, the shortlist re-rank and
  /// the LSH encode all score through this entry. The SIMD bodies score 8
  /// (AVX-512) or 4 (AVX2) rows per pass: lane l of row j's accumulator
  /// (one zmm, or two ymm) holds x_j's blocked-8 partial l, starting from
  /// 0 + x·w; the rank mod 8 tail t is masked into lanes 0..t-1, and the
  /// combine tree runs across the rows' accumulators by shuffles. A pass
  /// short of rows stores only the scores of the rows it has.
  void (*topk_score_block)(const double* rows, const uint32_t* ids,
                           size_t num_rows, size_t rank,
                           const double* weights, double* scores);

  /// The ANN shortlist (src/ann/) over a mode's distinct packed sign
  /// codes. First the scan: dists[g] = Σ_w popcount(codes[g*words + w] ^
  /// query[w]), the Hamming distance of every code g, as a u16. Then the
  /// counting-select over the codes' rows: c is the smallest distance
  /// whose codes at or below it hold at least n rows (n <= the rows of all
  /// codes), `rows_below` the rows of the codes under c; `below` receives
  /// every code under c and `at` every code at c, each in ascending order;
  /// each has room for num_codes + 1 entries (one slot of slack past the
  /// codes it receives). The caller keeps the rows below c and the n -
  /// rows_below lowest-indexed rows at c. n = 0 runs the scan alone. Pure
  /// integer arithmetic, so every backend is exact and identical. The SIMD
  /// bodies scan a block of 8 (AVX-512 VPOPCNTDQ) or 4 (AVX2) codes as
  /// whole vectors for every word count; a count of rows at or below t is
  /// a vector count of codes — 32 (AVX-512BW) or 16 (AVX2) distances per
  /// compare — plus the extra rows of the listed multi-row codes. c is
  /// found by a galloping search over such counts, and the select turns
  /// compare masks of 64 codes into ids without a branch per step: no
  /// histogram, no sort, no allocation.
  ShortlistCut (*hamming_shortlist)(const CodeGroups& groups,
                                    const uint64_t* query, size_t n,
                                    uint16_t* dists, uint32_t* below,
                                    uint32_t* at);
};

/// The table selected at startup: best CPUID-supported backend, overridden
/// by DISMASTD_KERNEL=scalar|avx2|avx512 (invalid or unsupported values
/// fall back to the CPUID choice; "native"/"best"/"" mean auto) or by
/// ForceBackend (the --kernel flag). Thread-safe to call concurrently:
/// once dispatched it is one atomic load, with no lock; the first call
/// performs the dispatch.
const KernelTable& Get();

/// The table of one specific backend. DISMASTD_CHECKs Supported(backend).
const KernelTable& Get(Backend backend);

/// The backend Get() currently resolves to.
Backend Dispatched();

/// Best backend this host + build supports (ignores overrides).
Backend BestSupported();

/// Whether `backend` is compiled in and the CPU supports it.
bool Supported(Backend backend);

/// Routes Get() to `backend` until the next ForceBackend/ResetDispatch.
/// Fails with FailedPrecondition naming the missing CPUID bits if the
/// backend is unavailable. Not safe to call concurrently with running
/// kernels — call it at startup or in test setup.
Status ForceBackend(Backend backend);

/// Re-runs the startup dispatch (CPUID + DISMASTD_KERNEL), discarding any
/// ForceBackend override. For tests.
void ResetDispatch();

/// Human-readable dispatch rationale, e.g.
/// "avx512 (cpuid avx2+avx512f+avx512bw+avx512dq+avx512vl)" or
/// "scalar (forced via DISMASTD_KERNEL=scalar; cpuid avx2)".
std::string DispatchExplanation();

}  // namespace kernels
}  // namespace dismastd

#endif  // DISMASTD_KERNELS_KERNELS_H_
