#include "serve/servable_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/serialization.h"
#include "common/string_util.h"
#include "kernels/kernels.h"
#include "la/ops.h"

namespace dismastd {
namespace serve {
namespace {

uint64_t FingerprintFactors(const KruskalTensor& factors) {
  uint64_t hash = kFnvOffset;
  for (size_t n = 0; n < factors.order(); ++n) {
    const Matrix& f = factors.factor(n);
    const uint64_t shape[2] = {f.rows(), f.cols()};
    hash = Fnv1a(shape, sizeof(shape), hash);
    hash = Fnv1a(f.data(), f.size() * sizeof(double), hash);
  }
  return hash;
}

bool BetterScored(const ScoredIndex& a, const ScoredIndex& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.index < b.index;
}

/// Partial-sorts the best k of `scores` with deterministic index
/// tie-breaking (shared by all precisions).
std::vector<ScoredIndex> SelectTopK(const std::vector<double>& scores,
                                    size_t k) {
  std::vector<ScoredIndex> scored(scores.size());
  for (size_t j = 0; j < scores.size(); ++j) {
    scored[j] = {static_cast<uint64_t>(j), scores[j]};
  }
  k = std::min(k, scored.size());
  std::partial_sort(scored.begin(),
                    scored.begin() + static_cast<ptrdiff_t>(k),
                    scored.end(), BetterScored);
  scored.resize(k);
  return scored;
}

/// SelectTopK over a shortlist: scores[i] belongs to global candidate
/// ids[i]. Same tie-break (score desc, global index asc), so a shortlist
/// containing the true top-K yields exactly the exact scan's answer.
std::vector<ScoredIndex> SelectTopKMapped(const std::vector<double>& scores,
                                          const std::vector<uint32_t>& ids,
                                          size_t k) {
  std::vector<ScoredIndex> scored(scores.size());
  for (size_t j = 0; j < scores.size(); ++j) {
    scored[j] = {static_cast<uint64_t>(ids[j]), scores[j]};
  }
  k = std::min(k, scored.size());
  std::partial_sort(scored.begin(),
                    scored.begin() + static_cast<ptrdiff_t>(k),
                    scored.end(), BetterScored);
  scored.resize(k);
  return scored;
}

}  // namespace

const char* PrecisionName(Precision precision) {
  switch (precision) {
    case Precision::kF64:
      return "f64";
    case Precision::kBf16:
      return "bf16";
    case Precision::kInt8:
      return "int8";
  }
  return "unknown";
}

Result<Precision> ParsePrecision(const std::string& text) {
  static constexpr EnumToken<Precision> kTokens[] = {
      {"f64", Precision::kF64},   {"fp64", Precision::kF64},
      {"bf16", Precision::kBf16}, {"int8", Precision::kInt8},
      {"i8", Precision::kInt8}};
  return ParseEnumToken<Precision>(text, "precision", kTokens);
}

const char* SearchModeName(SearchMode mode) {
  switch (mode) {
    case SearchMode::kExact:
      return "exact";
    case SearchMode::kAnn:
      return "ann";
    case SearchMode::kAnnCached:
      return "ann_cached";
  }
  return "unknown";
}

Result<SearchMode> ParseSearchMode(const std::string& text) {
  static constexpr EnumToken<SearchMode> kTokens[] = {
      {"exact", SearchMode::kExact},
      {"ann", SearchMode::kAnn},
      {"ann_cached", SearchMode::kAnnCached},
      {"ann+cache", SearchMode::kAnnCached},
      {"cache", SearchMode::kAnnCached}};
  return ParseEnumToken<SearchMode>(text, "search mode", kTokens);
}

ServableModel::ServableModel(KruskalTensor factors, uint64_t version,
                             uint64_t step,
                             const ServableBuildOptions& options,
                             const ServableModel* previous)
    : factors_(std::move(factors)),
      dims_(factors_.dims()),
      version_(version),
      step_(step) {
  const size_t n = factors_.order();
  const size_t r = factors_.rank();
  grams_.reserve(n);
  column_norms_.reserve(n);
  for (size_t mode = 0; mode < n; ++mode) {
    grams_.push_back(TransposeTimes(factors_.factor(mode),
                                    factors_.factor(mode)));
    std::vector<double> norms(r);
    for (size_t f = 0; f < r; ++f) {
      norms[f] = std::sqrt(grams_.back()(f, f));
    }
    column_norms_.push_back(std::move(norms));
  }
  Matrix acc = grams_[0];
  for (size_t mode = 1; mode < n; ++mode) {
    HadamardInPlace(acc, grams_[mode]);
  }
  norm_squared_ = SumAll(acc);
  fingerprint_ = FingerprintFactors(factors_);

  if (options.publish_bf16) {
    bf16_factors_.reserve(n);
    for (size_t mode = 0; mode < n; ++mode) {
      const Matrix& f = factors_.factor(mode);
      bf16_factors_.push_back(
          kernels::QuantizeBf16(f.data(), f.rows(), f.cols()));
    }
    has_bf16_ = true;
  } else {
    bf16_factors_.resize(n);
  }
  if (options.publish_int8) {
    int8_factors_.reserve(n);
    for (size_t mode = 0; mode < n; ++mode) {
      const Matrix& f = factors_.factor(mode);
      int8_factors_.push_back(
          kernels::QuantizeInt8(f.data(), f.rows(), f.cols()));
    }
    has_int8_ = true;
  } else {
    int8_factors_.resize(n);
  }
  if (options.build_ann) {
    ann_index_ = ann::AnnIndex::Build(
        factors_, options.lsh,
        previous != nullptr ? previous->ann_index_.get() : nullptr,
        previous != nullptr ? &previous->factors_ : nullptr);
  }
}

std::shared_ptr<const ServableModel> ServableModel::Build(
    KruskalTensor factors, uint64_t version, uint64_t step,
    const ServableBuildOptions& options, const ServableModel* previous) {
  DISMASTD_CHECK(factors.order() > 0);
  return std::shared_ptr<const ServableModel>(
      new ServableModel(std::move(factors), version, step, options,
                        previous));
}

uint64_t ServableModel::ComputeFingerprint() const {
  return FingerprintFactors(factors_);
}

bool ServableModel::HasPrecision(Precision precision) const {
  switch (precision) {
    case Precision::kF64:
      return true;
    case Precision::kBf16:
      return has_bf16_;
    case Precision::kInt8:
      return has_int8_;
  }
  return false;
}

Status ServableModel::ValidateIndex(
    const std::vector<uint64_t>& index) const {
  if (index.size() != order()) {
    return Status::InvalidArgument(
        "query index arity " + std::to_string(index.size()) +
        " does not match model order " + std::to_string(order()));
  }
  for (size_t n = 0; n < order(); ++n) {
    if (index[n] >= dims_[n]) {
      return Status::OutOfRange("query index " + std::to_string(index[n]) +
                                " out of range for mode " +
                                std::to_string(n) + " (dim " +
                                std::to_string(dims_[n]) + ")");
    }
  }
  return Status::OK();
}

std::vector<double> ServableModel::CombinationWeights(
    size_t target_mode, const std::vector<uint64_t>& anchor) const {
  const size_t r = rank();
  const size_t n = order();
  std::vector<const double*> rows;
  rows.reserve(n);
  for (size_t m = 0; m < n; ++m) {
    if (m == target_mode) continue;
    rows.push_back(
        factors_.factor(m).RowPtr(static_cast<size_t>(anchor[m])));
  }
  std::vector<double> weights(r);
  kernels::Get().hadamard_combine(rows.data(), rows.size(), r,
                                  weights.data());
  return weights;
}

double ServableModel::ScoreCandidates(size_t target_mode,
                                      const std::vector<double>& weights,
                                      Precision precision,
                                      std::vector<double>* scores) const {
  const kernels::KernelTable& kern = kernels::Get();
  const size_t r = rank();
  const size_t candidates = static_cast<size_t>(dims_[target_mode]);
  scores->resize(candidates);
  switch (precision) {
    case Precision::kF64: {
      const Matrix& target = factors_.factor(target_mode);
      kern.topk_score_block(target.data(), candidates, r, weights.data(),
                            scores->data());
      return 0.0;
    }
    case Precision::kBf16: {
      const kernels::Bf16Matrix& target = bf16_factors_[target_mode];
      kern.topk_score_block_bf16(target.data.data(), candidates, r,
                                 weights.data(), scores->data());
      double bound = 0.0;
      for (size_t f = 0; f < r; ++f) {
        bound += std::abs(weights[f]) * target.col_max_abs_err[f];
      }
      return bound;
    }
    case Precision::kInt8: {
      const kernels::Int8Matrix& target = int8_factors_[target_mode];
      // Fold the per-column dequantization scale into the weights once;
      // the scan then reads raw int8 codes.
      std::vector<double> wscaled(r);
      for (size_t f = 0; f < r; ++f) {
        wscaled[f] = weights[f] * target.col_scale[f];
      }
      kern.topk_score_block_i8(target.data.data(), candidates, r,
                               wscaled.data(), scores->data());
      double bound = 0.0;
      for (size_t f = 0; f < r; ++f) {
        bound += std::abs(weights[f]) * target.col_max_abs_err[f];
      }
      return bound;
    }
  }
  return 0.0;
}

double ServableModel::ScoreShortlist(
    size_t target_mode, const std::vector<double>& weights,
    Precision precision, const std::vector<uint32_t>& shortlist,
    std::vector<double>* scores) const {
  const kernels::KernelTable& kern = kernels::Get();
  const size_t r = rank();
  const size_t n = shortlist.size();
  scores->resize(n);
  // Gather the shortlist rows into one contiguous block and run the same
  // topk_score_block kernel the exact scan uses. Each row's dot product is
  // computed from identical inputs by identical code, so shortlisted rows
  // score bit-identically to the full scan.
  switch (precision) {
    case Precision::kF64: {
      const Matrix& target = factors_.factor(target_mode);
      std::vector<double> gathered(n * r);
      for (size_t j = 0; j < n; ++j) {
        std::memcpy(gathered.data() + j * r, target.RowPtr(shortlist[j]),
                    r * sizeof(double));
      }
      kern.topk_score_block(gathered.data(), n, r, weights.data(),
                            scores->data());
      return 0.0;
    }
    case Precision::kBf16: {
      const kernels::Bf16Matrix& target = bf16_factors_[target_mode];
      std::vector<kernels::Bf16> gathered(n * r);
      for (size_t j = 0; j < n; ++j) {
        std::memcpy(gathered.data() + j * r, target.RowPtr(shortlist[j]),
                    r * sizeof(kernels::Bf16));
      }
      kern.topk_score_block_bf16(gathered.data(), n, r, weights.data(),
                                 scores->data());
      double bound = 0.0;
      for (size_t f = 0; f < r; ++f) {
        bound += std::abs(weights[f]) * target.col_max_abs_err[f];
      }
      return bound;
    }
    case Precision::kInt8: {
      const kernels::Int8Matrix& target = int8_factors_[target_mode];
      std::vector<int8_t> gathered(n * r);
      for (size_t j = 0; j < n; ++j) {
        std::memcpy(gathered.data() + j * r, target.RowPtr(shortlist[j]),
                    r * sizeof(int8_t));
      }
      std::vector<double> wscaled(r);
      for (size_t f = 0; f < r; ++f) {
        wscaled[f] = weights[f] * target.col_scale[f];
      }
      kern.topk_score_block_i8(gathered.data(), n, r, wscaled.data(),
                               scores->data());
      double bound = 0.0;
      for (size_t f = 0; f < r; ++f) {
        bound += std::abs(weights[f]) * target.col_max_abs_err[f];
      }
      return bound;
    }
  }
  return 0.0;
}

std::vector<ScoredIndex> ServableModel::TopK(
    size_t target_mode, const std::vector<uint64_t>& anchor,
    size_t k) const {
  const std::vector<double> weights =
      CombinationWeights(target_mode, anchor);
  std::vector<double> scores;
  ScoreCandidates(target_mode, weights, Precision::kF64, &scores);
  return SelectTopK(scores, k);
}

Result<TopKResult> ServableModel::TopKWithPrecision(
    size_t target_mode, const std::vector<uint64_t>& anchor, size_t k,
    Precision precision) const {
  if (!HasPrecision(precision)) {
    return Status::FailedPrecondition(
        std::string("model version ") + std::to_string(version_) +
        " was published without a " + PrecisionName(precision) +
        " factor copy");
  }
  const std::vector<double> weights =
      CombinationWeights(target_mode, anchor);
  std::vector<double> scores;
  TopKResult result;
  result.precision = precision;
  result.score_error_bound =
      ScoreCandidates(target_mode, weights, precision, &scores);
  result.items = SelectTopK(scores, k);
  result.rows_scored = scores.size();
  return result;
}

Result<TopKResult> ServableModel::TopKAnn(
    size_t target_mode, const std::vector<uint64_t>& anchor, size_t k,
    Precision precision, size_t probes) const {
  if (ann_index_ == nullptr) {
    return Status::FailedPrecondition(
        "model version " + std::to_string(version_) +
        " was published without an ANN index (build_ann = false)");
  }
  if (!HasPrecision(precision)) {
    return Status::FailedPrecondition(
        std::string("model version ") + std::to_string(version_) +
        " was published without a " + PrecisionName(precision) +
        " factor copy");
  }
  const std::vector<double> weights =
      CombinationWeights(target_mode, anchor);
  const size_t candidates = static_cast<size_t>(dims_[target_mode]);
  if (probes == 0) probes = 1;
  const size_t shortlist_size =
      std::min(candidates, std::max(k, probes * k));
  const std::vector<uint32_t> shortlist =
      ann_index_->Shortlist(target_mode, weights.data(), shortlist_size);

  TopKResult result;
  result.precision = precision;
  std::vector<double> scores;
  result.score_error_bound =
      ScoreShortlist(target_mode, weights, precision, shortlist, &scores);
  result.items = SelectTopKMapped(scores, shortlist, k);
  result.rows_scored = shortlist.size();
  return result;
}

}  // namespace serve
}  // namespace dismastd
