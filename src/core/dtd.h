#ifndef DISMASTD_CORE_DTD_H_
#define DISMASTD_CORE_DTD_H_

#include <vector>

#include "core/cp_als.h"
#include "core/options.h"
#include "kernels/kernels.h"
#include "tensor/coo_tensor.h"
#include "tensor/kruskal.h"

namespace dismastd {

/// Centralized Dynamic Tensor Decomposition (Algorithm 1), for arbitrary
/// tensor order.
///
/// Inputs:
///   - `delta`   : the relative complement X \ X̃ — only the *new* non-zeros
///                 — with the *current* snapshot dims.
///   - `old_dims`: the previous snapshot's dims I_n (old_dims[n] <=
///                 delta.dim(n)). Pass all-zeros for a cold start; DTD then
///                 degenerates exactly to static CP-ALS.
///   - `prev`    : the previous snapshot's CP factors Ã_n (old_dims[n] rows
///                 each). Ignored (may be default-constructed) when
///                 old_dims is all-zero.
///
/// Each factor A_n = [A_n^(0); A_n^(1)] stacks the old-range rows over the
/// d_n new rows. A_n^(0) is seeded from Ã_n, A_n^(1) uniformly at random
/// (Alg. 1 lines 1-2); both are refined by the ALS update rules (Eq. 5),
/// where the previous snapshot tensor never appears — only its factors,
/// weighted by the forgetting factor μ.
///
/// The returned loss is Eq. 4's objective; with
/// `options.reuse_intermediates` it is assembled entirely from cached Gram
/// products and the last mode's MTTKRP result (§IV-B4).
AlsResult DynamicTensorDecomposition(const SparseTensor& delta,
                                     const std::vector<uint64_t>& old_dims,
                                     const KruskalTensor& prev,
                                     const DecompositionOptions& options);

/// Deterministic initialization shared by the centralized and distributed
/// implementations: factor n is [prev.factor(n); Random(d_n, R)], with the
/// random rows drawn mode-by-mode from Rng(options.seed). Exposed so that
/// DisMASTD can be validated bit-for-bit against the same starting point.
std::vector<Matrix> InitializeDtdFactors(const std::vector<uint64_t>& new_dims,
                                         const std::vector<uint64_t>& old_dims,
                                         const KruskalTensor& prev,
                                         const DecompositionOptions& options);

/// Mode n's two Eq. 5 systems and the old-row numerator weights, shared by
/// every row of the mode and built from the cached R x R products of the
/// other modes (§IV-B3): had_h = ⊛_{k≠n} h_k, had_g01 = ⊛_{k≠n}(g0_k+g1_k),
/// had_g0 = ⊛_{k≠n} g0_k.
struct DtdModeSystems {
  double mu = 0.0;
  /// had_hᵀ: row c holds column c of had_h.
  Matrix had_h_t;
  /// FactorNormalEquations(had_g01 − (1−μ)·had_g0), for old-range rows.
  Matrix lower_old;
  /// FactorNormalEquations(had_g01), for new rows.
  Matrix lower_new;
};

/// Builds mode n's systems from every mode's cached products g0, g1, h and
/// factors both (FactorNormalEquations), once per mode.
DtdModeSystems FactorDtdModeSystems(const std::vector<Matrix>& g0,
                                    const std::vector<Matrix>& g1,
                                    const std::vector<Matrix>& h, size_t n,
                                    double mu);

/// Running Gram partials over the rows DtdUpdateRows writes (§IV-B3):
/// g0 += A_n[r]ᵀA_n[r] and h += Ã_n[r]ᵀA_n[r] over old-range rows, g1 +=
/// A_n[r]ᵀA_n[r] over new rows, each R x R.
struct DtdGramPartials {
  Matrix* g0 = nullptr;
  Matrix* h = nullptr;
  Matrix* g1 = nullptr;
};

/// Eq. 5 for the rows of one mode listed in `rows`, which must be
/// ascending, so the old-range rows (index < old_rows) come first. Rows go
/// to the kernel table's solve_rows in chunks of at most 32 that never mix
/// old and new rows: old rows with their numerators μ·Ã[r,:]·had_h +
/// Â[r,:] against the old-row system, new rows with Â[r,:] against the
/// new-row system, the result written into `factor`. An empty factor
/// (every ridge retry failed) gives the zero update. `prev` is Ã_n and may
/// be null when old_rows == 0. With `partials`, each chunk's updated rows
/// are added to them by gram_rows right after the chunk is solved, while
/// they are still in cache; the partials then equal one gram_rows call
/// over the old rows (g0, h) and one over the new rows (g1). Each row's
/// result is bit-identical to its per-row numerator (topk_score_block
/// against had_hᵀ) and per-row substitution.
void DtdUpdateRows(const kernels::KernelTable& kern, const DtdModeSystems& sys,
                   const Matrix* prev, const Matrix& mttkrp, size_t old_rows,
                   const uint64_t* rows, size_t num_rows, Matrix* factor,
                   const DtdGramPartials* partials);

}  // namespace dismastd

#endif  // DISMASTD_CORE_DTD_H_
