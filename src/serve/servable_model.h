#ifndef DISMASTD_SERVE_SERVABLE_MODEL_H_
#define DISMASTD_SERVE_SERVABLE_MODEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ann/lsh_index.h"
#include "common/status.h"
#include "la/matrix.h"
#include "tensor/kruskal.h"

namespace dismastd {
namespace serve {

/// One entry of a top-K recommendation: a column index of the target mode
/// and its predicted score under the CP model.
struct ScoredIndex {
  uint64_t index = 0;
  double score = 0.0;

  bool operator==(const ScoredIndex& other) const {
    return index == other.index && score == other.score;
  }
};

/// How a top-K query finds its candidates. kExact scans every row of the
/// target mode; kAnn scans the LSH index's Hamming codes and exactly
/// re-ranks a shortlist (same kernels, so shortlisted rows score
/// bit-identically to the full scan — only rows outside the shortlist can
/// be missed); kAnnCached additionally consults the version-keyed result
/// cache before doing any work.
enum class SearchMode : int {
  kExact = 0,
  kAnn = 1,
  kAnnCached = 2,
};

const char* SearchModeName(SearchMode mode);
Result<SearchMode> ParseSearchMode(const std::string& text);

/// A top-K answer plus what it cost to compute.
struct TopKResult {
  std::vector<ScoredIndex> items;
  /// Candidate rows the scoring kernel actually read: J for an exact scan,
  /// the shortlist size for ANN, 0 for a cache hit. The per-query cost
  /// denominator of the ANN speedup claim.
  uint64_t rows_scored = 0;
  /// True iff this answer came out of the result cache untouched.
  bool from_cache = false;
};

/// The best k of n scores, score descending, index ascending; scores[j]
/// belongs to candidate ids[j] (to j itself when `ids` is null), so a
/// shortlist holding the true top-K, in any order, yields exactly the
/// exact scan's answer. One pass feeds a k-entry heap; for k <= 16 a
/// vectorized pre-pass over the first 1,024 scores (at least one block of
/// 16) first bounds the k-th best from below, so few scores reach the heap
/// in any order. The answer is the only allocation.
std::vector<ScoredIndex> SelectTopK(const double* scores,
                                    const uint32_t* ids, size_t n, size_t k);

/// How Build() hashes the LSH index (ann/lsh_index.h) it attaches for
/// SearchMode::kAnn queries. The index rides inside the published model,
/// so a query snapshot pins factors and index together.
struct ServableBuildOptions {
  ann::LshOptions lsh;
};

/// An immutable, query-ready published CP model.
///
/// A ServableModel freezes one decomposition result (the paper's §I online
/// prediction scenario: the factors answer rating/recommendation queries
/// while the next DTD step is being computed) together with everything the
/// query engine wants precomputed:
///   - per-mode Gram matrices A_nᵀA_n (R x R), so model-norm and similarity
///     queries never touch the tall factors,
///   - per-mode column norms ‖A_n[:,f]‖,
///   - the model Frobenius norm derived from the Grams,
///   - the LSH index of the ANN top-K,
///   - a fingerprint over the factor bytes, letting concurrency tests prove
///     a reader never observes a half-published model.
///
/// All scoring goes through the dispatched compute kernels
/// (kernels::Get()); there is no hand-rolled flop loop in this class.
///
/// Instances are created only through Build() and shared as
/// `shared_ptr<const ServableModel>`; after Build returns, nothing mutates
/// the object, so concurrent readers need no synchronization beyond the
/// pointer acquisition itself.
class ServableModel {
 public:
  /// Precomputes the serving metadata and freezes the model. `factors`
  /// must be non-empty (order >= 1); `version` is assigned by the
  /// ModelStore, `step` is the streaming step the factors correspond to.
  /// When `previous` (the model this publish supersedes) is given, the ANN
  /// index is patched incrementally: rows whose fp64 bytes are unchanged
  /// keep their codes instead of being re-hashed.
  static std::shared_ptr<const ServableModel> Build(
      KruskalTensor factors, uint64_t version, uint64_t step,
      const ServableBuildOptions& options = {},
      const ServableModel* previous = nullptr);

  uint64_t version() const { return version_; }
  uint64_t step() const { return step_; }

  const KruskalTensor& factors() const { return factors_; }
  size_t order() const { return factors_.order(); }
  size_t rank() const { return factors_.rank(); }
  const std::vector<uint64_t>& dims() const { return dims_; }

  /// Gram matrix A_nᵀA_n of mode `mode` (R x R).
  const Matrix& gram(size_t mode) const { return grams_[mode]; }

  /// Euclidean norms of mode `mode`'s R factor columns.
  const std::vector<double>& column_norms(size_t mode) const {
    return column_norms_[mode];
  }

  /// ‖[[A_1..A_N]]‖_F², precomputed from the Grams at publish time.
  double norm_squared() const { return norm_squared_; }

  /// Content hash over all factor bytes, computed once at Build time.
  uint64_t fingerprint() const { return fingerprint_; }

  /// Recomputes the fingerprint from the current factor bytes. Readers use
  /// `ComputeFingerprint() == fingerprint()` to assert they are looking at
  /// a fully-published, untouched model (no torn reads).
  uint64_t ComputeFingerprint() const;

  /// Model value at `index` (order() entries). The caller is responsible
  /// for bounds; the query engine validates against dims() first. Routes
  /// through the canonical KruskalTensor::ValuesAt implementation.
  double Predict(const uint64_t* index) const {
    return factors_.ValueAt(index);
  }

  /// Returns OK iff `index` has order() entries all within dims().
  Status ValidateIndex(const std::vector<uint64_t>& index) const;

  /// Top-K recommendation over `target_mode`: with every other mode pinned
  /// to `anchor[n]` (anchor[target_mode] is ignored), scores all
  /// J = dims()[target_mode] candidates via one R-vector x factor-matrix
  /// product and selects the best K. Scores tie-break on ascending
  /// index so results are deterministic. K is clamped to J.
  TopKResult TopK(size_t target_mode, const std::vector<uint64_t>& anchor,
                  size_t k) const;

  /// The LSH index built at publish time; never null.
  const std::shared_ptr<const ann::AnnIndex>& ann_index() const {
    return ann_index_;
  }

  /// Approximate TopK: Hamming-shortlists min(J, max(k, probes * k))
  /// candidates from the LSH index, then re-ranks just those rows through
  /// the same blocked-8 dot the exact scan uses. Shortlisted rows'
  /// returned scores are therefore bit-identical to the exact scan's; the
  /// only approximation is which rows make the shortlist.
  TopKResult TopKAnn(size_t target_mode, const std::vector<uint64_t>& anchor,
                     size_t k, size_t probes) const;

  /// The combination weights w[f] = Π_{n != target_mode} A_n[anchor[n], f]
  /// of a TopK query — exposed for the microbenchmark and brute-force
  /// test oracles.
  std::vector<double> CombinationWeights(size_t target_mode,
                                         const std::vector<uint64_t>& anchor)
      const;

 private:
  ServableModel(KruskalTensor factors, uint64_t version, uint64_t step,
                const ServableBuildOptions& options,
                const ServableModel* previous);

  KruskalTensor factors_;
  std::vector<uint64_t> dims_;
  uint64_t version_ = 0;
  uint64_t step_ = 0;
  std::vector<Matrix> grams_;
  std::vector<std::vector<double>> column_norms_;
  double norm_squared_ = 0.0;
  uint64_t fingerprint_ = 0;
  std::shared_ptr<const ann::AnnIndex> ann_index_;
};

}  // namespace serve
}  // namespace dismastd

#endif  // DISMASTD_SERVE_SERVABLE_MODEL_H_
