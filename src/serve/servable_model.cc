#include "serve/servable_model.h"

#include <algorithm>
#include <cmath>

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

/// The best k of `scores` (score descending, index ascending). scores[j]
/// belongs to candidate ids[j] (to j itself when `ids` is null), so a
/// shortlist containing the true top-K yields exactly the exact scan's
/// answer. One pass feeds a k-entry heap whose front is the worst entry
/// kept, so nothing but the answer is allocated; a score below that front
/// is rejected before its entry is built.
std::vector<ScoredIndex> SelectTopK(const std::vector<double>& scores,
                                    const std::vector<uint32_t>* ids,
                                    size_t k) {
  const auto entry = [&](size_t j) {
    return ScoredIndex{ids != nullptr ? (*ids)[j] : static_cast<uint64_t>(j),
                       scores[j]};
  };
  std::vector<ScoredIndex> top(std::min(k, scores.size()));
  if (top.empty()) return top;
  for (size_t j = 0; j < top.size(); ++j) top[j] = entry(j);
  std::make_heap(top.begin(), top.end(), BetterScored);
  for (size_t j = top.size(); j < scores.size(); ++j) {
    if (scores[j] < top.front().score) continue;
    const ScoredIndex candidate = entry(j);
    if (!BetterScored(candidate, top.front())) continue;
    std::pop_heap(top.begin(), top.end(), BetterScored);
    top.back() = candidate;
    std::push_heap(top.begin(), top.end(), BetterScored);
  }
  std::sort_heap(top.begin(), top.end(), BetterScored);
  return top;
}

}  // namespace

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
  ann_index_ = ann::AnnIndex::Build(
      factors_, options.lsh,
      previous != nullptr ? previous->ann_index_.get() : nullptr,
      previous != nullptr ? &previous->factors_ : nullptr);
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

TopKResult ServableModel::TopK(size_t target_mode,
                                const std::vector<uint64_t>& anchor,
                                size_t k) const {
  const std::vector<double> weights =
      CombinationWeights(target_mode, anchor);
  const Matrix& target = factors_.factor(target_mode);
  std::vector<double> scores(static_cast<size_t>(dims_[target_mode]));
  kernels::Get().topk_score_block(target.data(), nullptr, scores.size(),
                                  rank(), weights.data(), scores.data());
  TopKResult result;
  result.items = SelectTopK(scores, nullptr, k);
  result.rows_scored = scores.size();
  return result;
}

TopKResult ServableModel::TopKAnn(size_t target_mode,
                                  const std::vector<uint64_t>& anchor,
                                  size_t k, size_t probes) const {
  const std::vector<double> weights =
      CombinationWeights(target_mode, anchor);
  const size_t candidates = static_cast<size_t>(dims_[target_mode]);
  // min(J, max(k, probes * k)), without letting probes * k wrap.
  if (probes == 0) probes = 1;
  const size_t shortlist_size =
      k == 0 ? 0 : (probes > candidates / k ? candidates : probes * k);
  const std::vector<uint32_t> shortlist =
      ann_index_->Shortlist(target_mode, weights.data(), shortlist_size);

  // The full scan's kernel over the listed rows, where they lie: the same
  // blocked-8 dot of each row, so shortlisted rows score bit-identically
  // to the full scan, with nothing gathered.
  const Matrix& target = factors_.factor(target_mode);
  std::vector<double> scores(shortlist.size());
  kernels::Get().topk_score_block(target.data(), shortlist.data(),
                                  shortlist.size(), rank(), weights.data(),
                                  scores.data());
  TopKResult result;
  result.items = SelectTopK(scores, &shortlist, k);
  result.rows_scored = shortlist.size();
  return result;
}

}  // namespace serve
}  // namespace dismastd
