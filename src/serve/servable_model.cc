#include "serve/servable_model.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>

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

/// Two fp64 lanes as one GNU vector, run as SSE2 on every x86-64 target:
/// GCC leaves the scalar forms of the select's maxima unvectorized.
using Pair = double __attribute__((vector_size(16)));
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr Pair kLowest = {-kInf, -kInf};

/// SelectTopK's pre-pass reads at most this many scores.
constexpr size_t kPrepassScores = 1024;

/// This thread's top-K scratch, grown and never shrunk, so a query
/// allocates only its answer.
struct TopKScratch {
  std::vector<const double*> rows;
  std::vector<double> weights;
  std::vector<uint32_t> shortlist;
  std::vector<double> scores;
};

TopKScratch& ThreadScratch() {
  thread_local TopKScratch scratch;
  return scratch;
}

/// `buffer`'s first n slots, growing it (contents unspecified) if needed.
template <typename T>
T* Room(std::vector<T>& buffer, size_t n) {
  if (buffer.size() < n) buffer.resize(n);
  return buffer.data();
}

/// The combination weights w[f] = Π_{n≠target_mode} A_n[anchor[n], f] of a
/// top-K query, in `scratch`.
const double* Weigh(const KruskalTensor& factors, size_t target_mode,
                    const std::vector<uint64_t>& anchor, TopKScratch& scratch) {
  const double** rows = Room(scratch.rows, factors.order());
  size_t count = 0;
  for (size_t m = 0; m < factors.order(); ++m) {
    if (m != target_mode) rows[count++] = factors.factor(m).RowPtr(anchor[m]);
  }
  double* weights = Room(scratch.weights, factors.rank());
  kernels::Get().hadamard_combine(rows, count, factors.rank(), weights);
  return weights;
}

/// A lower bound on the k-th best of scores[0, n) (k <= 16): lane g folds
/// the scores at g mod 16 of the whole blocks into its maximum, and the k
/// largest lane maxima are k distinct scores. It is -inf, which bounds
/// nothing out, when a score is NaN or a lane maximum is not finite.
double KthBestBound(const double* scores, size_t n, size_t k) {
  const size_t whole = n - n % 16;
  Pair lanes[8];
  std::fill_n(lanes, 8, kLowest);
  auto ordered = kLowest == kLowest;  // turns false at a NaN
  for (size_t b = 0; b < whole; b += 16) {
    for (size_t v = 0; v < 8; ++v) {
      Pair x;
      std::memcpy(&x, scores + b + 2 * v, sizeof(x));
      lanes[v] = x > lanes[v] ? x : lanes[v];
      ordered &= x == x;
    }
  }
  double lane_max[16];
  std::memcpy(lane_max, lanes, sizeof(lane_max));
  bool finite = ordered[0] != 0 && ordered[1] != 0;
  for (size_t j = whole; j < n; ++j) finite = finite && !std::isnan(scores[j]);
  for (double m : lane_max) finite = finite && std::isfinite(m);
  if (!finite) return -kInf;
  std::nth_element(lane_max, lane_max + k - 1, lane_max + 16,
                   std::greater<double>());
  return lane_max[k - 1];
}

/// The largest of the 16 scores at `block`, by a tree of vector maxima.
double BlockMax(const double* block) {
  Pair x[8];
  std::memcpy(x, block, sizeof(x));
  for (size_t w = 4; w > 0; w /= 2) {
    for (size_t v = 0; v < w; ++v) x[v] = x[v + w] > x[v] ? x[v + w] : x[v];
  }
  return std::max(x[0][0], x[0][1]);
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

std::vector<ScoredIndex> SelectTopK(const double* scores,
                                    const uint32_t* ids, size_t n, size_t k) {
  // One pass feeds a k-entry heap whose front is the worst entry kept. A
  // score below `floor`, or a block of 16 whose maximum is, is rejected
  // unread; the floor starts at a pre-pass bound and is the front once k
  // entries are in, the full pass's own rule. The bound's scores hold k
  // entries at or above it, so the heap is full before the pass leaves
  // them: a NaN beyond them is rejected as in the full pass, and a NaN
  // among them takes the full pass (floor -inf).
  std::vector<ScoredIndex> top;
  if (k == 0 || n == 0) return top;
  double floor =
      k <= 16 ? KthBestBound(scores, std::min(n, kPrepassScores), k) : -kInf;
  top.reserve(std::min(k, n));
  for (size_t b = 0; b < n; b += 16) {
    const size_t end = std::min(n, b + 16);
    if (end == b + 16 && BlockMax(scores + b) < floor) continue;
    for (size_t j = b; j < end; ++j) {
      if (scores[j] < floor) continue;
      const ScoredIndex candidate{ids != nullptr ? ids[j] : j, scores[j]};
      if (top.size() < k) {
        top.push_back(candidate);
        if (top.size() < k) continue;
        std::make_heap(top.begin(), top.end(), BetterScored);
      } else if (BetterScored(candidate, top.front())) {
        std::pop_heap(top.begin(), top.end(), BetterScored);
        top.back() = candidate;
        std::push_heap(top.begin(), top.end(), BetterScored);
      }
      floor = top.front().score;
    }
  }
  if (top.size() < k) std::make_heap(top.begin(), top.end(), BetterScored);
  std::sort_heap(top.begin(), top.end(), BetterScored);
  return top;
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
  const double* weights = Weigh(factors_, target_mode, anchor, ThreadScratch());
  return std::vector<double>(weights, weights + rank());
}

TopKResult ServableModel::TopK(size_t target_mode,
                                const std::vector<uint64_t>& anchor,
                                size_t k) const {
  TopKScratch& scratch = ThreadScratch();
  const double* weights = Weigh(factors_, target_mode, anchor, scratch);
  const size_t n = static_cast<size_t>(dims_[target_mode]);
  double* scores = Room(scratch.scores, n);
  kernels::Get().topk_score_block(factors_.factor(target_mode).data(),
                                  nullptr, n, rank(), weights, scores);
  return {SelectTopK(scores, nullptr, n, k), n};
}

TopKResult ServableModel::TopKAnn(size_t target_mode,
                                  const std::vector<uint64_t>& anchor,
                                  size_t k, size_t probes) const {
  TopKScratch& scratch = ThreadScratch();
  const double* weights = Weigh(factors_, target_mode, anchor, scratch);
  const size_t candidates = static_cast<size_t>(dims_[target_mode]);
  // min(J, max(k, probes * k)), without letting probes * k wrap.
  if (probes == 0) probes = 1;
  const size_t shortlist_size =
      k == 0 ? 0 : (probes > candidates / k ? candidates : probes * k);
  uint32_t* shortlist = Room(scratch.shortlist, shortlist_size);
  const size_t n =
      ann_index_->Shortlist(target_mode, weights, shortlist_size, shortlist);

  // The full scan's kernel over the listed rows, where they lie: the same
  // blocked-8 dot of each row, so shortlisted rows score bit-identically
  // to the full scan, with nothing gathered.
  double* scores = Room(scratch.scores, n);
  kernels::Get().topk_score_block(factors_.factor(target_mode).data(),
                                  shortlist, n, rank(), weights, scores);
  return {SelectTopK(scores, shortlist, n, k), n};
}

}  // namespace serve
}  // namespace dismastd
