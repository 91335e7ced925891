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

/// Eq. 5's numerator for one old-range row, shared by the centralized and
/// distributed updates: out = μ·Ã[r,:]·had_h + mttkrp_row. `had_h_t` is
/// had_hᵀ (R x R), so one topk_score_block call scores Ã[r,:] against every
/// column of had_h on the contiguous path of the blocked-8 dot contract
/// (kernels.h), bit-identical to R strided dots down had_h's columns.
void DtdOldRowNumerator(const kernels::KernelTable& kern,
                        const Matrix& had_h_t, double mu,
                        const double* prev_row, const double* mttkrp_row,
                        double* out);

}  // namespace dismastd

#endif  // DISMASTD_CORE_DTD_H_
