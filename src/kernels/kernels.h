#ifndef DISMASTD_KERNELS_KERNELS_H_
#define DISMASTD_KERNELS_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace dismastd {
namespace kernels {

/// bf16 (bfloat16) storage: the top 16 bits of an IEEE float32, rounded to
/// nearest-even. 8 significand bits -> relative error <= 2^-8 per element
/// over the float32 normal range.
using Bf16 = uint16_t;

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

/// One table of function pointers per backend — the single place where a
/// flop happens on a factor row. Callers fetch the dispatched table once
/// (kernels::Get()) and call through it; they never branch on CPU features
/// themselves.
///
/// Determinism contract (fp64 kernels): element-wise kernels (mttkrp_coo,
/// hadamard_combine) perform the same scalar operations in the same order
/// in every backend, lane-parallel over independent outputs, so they are
/// bit-exact across backends by construction. Reductions (dot_strided,
/// topk_score_block) share a fixed blocking: 8 independent partial sums,
/// lane l accumulating elements l, l+8, l+16, ... with the tail element i
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
///
/// Quantized kernels (bf16/int8) follow the same blocking, so their scores
/// are also backend-invariant, but they are *not* bit-exact against the
/// fp64 kernels; their error is bounded per query instead (see
/// quantized.h).
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
  /// row-major rank-column matrices. Each output element adds its terms
  /// one at a time in list order (k = 0, 1, ...), exactly as num_rows
  /// successive rank-1 updates would; rows may repeat or come unsorted.
  /// The Gram (y == x) or cross-Gram partial of a partition's rows.
  void (*gram_rows)(const double* x, const double* y, const uint64_t* rows,
                    size_t num_rows, size_t rank, double* out);

  /// Eq. 5's row solve over a row list, given A's Cholesky factor `lower`
  /// (rank x rank row-major, lower triangle read). For each listed row r:
  /// b = rhs[r]; when `prev` is non-null, b[c] = mu * s_c + b[c], where
  /// s_c is the blocked-8 dot of prev[r] with row c of `weights_t` (had_hᵀ,
  /// rank x rank) — bit for bit mu * topk_score_block(weights_t, rank,
  /// rank, prev[r])[c] + b[c], including the dot's 0 + x·y start. Then
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

  /// scores[j] = dot(rows + j*rank, weights) for j in [0, num_rows):
  /// the serve-side candidate scan over a contiguous row-major factor
  /// block.
  void (*topk_score_block)(const double* rows, size_t num_rows, size_t rank,
                           const double* weights, double* scores);

  /// Element-wise conversions (round-to-nearest-even via float32).
  void (*f64_to_bf16)(const double* src, size_t n, Bf16* dst);
  void (*bf16_to_f64)(const Bf16* src, size_t n, double* dst);

  /// sum_i widen(x[i]) * weights[i], accumulated in fp64 under the
  /// blocked-8 contract.
  double (*bf16_dot)(const Bf16* x, const double* weights, size_t n);

  /// scores[j] = bf16_dot(rows + j*rank, weights, rank): the quantized
  /// candidate scan (4x less factor-row traffic than fp64).
  void (*topk_score_block_bf16)(const Bf16* rows, size_t num_rows,
                                size_t rank, const double* weights,
                                double* scores);

  /// sum_i double(x[i]) * wscaled[i] where wscaled[f] already folds the
  /// per-column dequantization scale into the combination weight.
  double (*i8_dot)(const int8_t* x, const double* wscaled, size_t n);

  /// scores[j] = i8_dot(rows + j*rank, wscaled, rank) (8x less traffic).
  void (*topk_score_block_i8)(const int8_t* rows, size_t num_rows,
                              size_t rank, const double* wscaled,
                              double* scores);

  /// The ANN shortlist (src/ann/) over packed sign codes, `words` u64s per
  /// row. First the scan: dists[j] = Σ_w popcount(codes[j*words + w] ^
  /// query[w]), the Hamming distance of every row j in [0, num_rows).
  /// Then the counting-select: with c the smallest distance that has at
  /// least n rows at or below it (n <= num_rows), rows[0, n) receives every
  /// row below c and then the lowest-indexed rows at c, in ascending row
  /// order; n = 0 runs the scan alone. Pure integer arithmetic, so every
  /// backend is exact and identical. The SIMD bodies scan a block of 8
  /// (AVX-512 VPOPCNTDQ) or 4 (AVX2) rows' codes as whole vectors for
  /// every word count, find c by binary search over vector counts of rows
  /// at or below a distance, and select with compare masks
  /// (compress-stores on AVX-512): no histogram, no sort, no allocation.
  void (*hamming_shortlist)(const uint64_t* codes, size_t num_rows,
                            size_t words, const uint64_t* query, size_t n,
                            uint32_t* dists, uint32_t* rows);
};

/// The table selected at startup: best CPUID-supported backend, overridden
/// by DISMASTD_KERNEL=scalar|avx2|avx512 (invalid or unsupported values
/// fall back to the CPUID choice; "native"/"best"/"" mean auto) or by
/// ForceBackend (the --kernel flag). Thread-safe to call concurrently;
/// the first call performs the dispatch.
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
