#include "ann/lsh_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "common/logging.h"
#include "kernels/kernels.h"

namespace dismastd {
namespace ann {

namespace {

/// ‖row‖² through the dispatched fp64 dot kernel, so the augmentation norm
/// is bit-identical across backends.
double RowNormSquared(const double* row, size_t rank) {
  return kernels::Get().dot_strided(row, 1, row, 1, rank);
}

/// The augmented coordinate sqrt(M² - ‖row‖²), clamped at zero so fp
/// round-off on the max-norm row cannot produce a NaN.
double AugCoordinate(double norm_sq, double aug_norm) {
  const double rest = aug_norm * aug_norm - norm_sq;
  return rest > 0.0 ? std::sqrt(rest) : 0.0;
}

/// This thread's Shortlist scratch, reused across queries (grown, never
/// shrunk, like the kernels' LaneBuffer), so a query allocates only its
/// answer: the query's augmented vector and code, and every row's
/// distance.
struct ShortlistScratch {
  std::vector<double> aug;
  std::vector<uint64_t> qcode;
  std::vector<uint32_t> dists;
};

ShortlistScratch& ThreadScratch() {
  thread_local ShortlistScratch scratch;
  return scratch;
}

}  // namespace

LshHyperplanes::LshHyperplanes(size_t bits, size_t rank, uint64_t seed)
    : bits_(bits), rank_(rank), seed_(seed) {
  DISMASTD_CHECK(bits >= 1);
  Rng rng(seed);
  planes_ = Matrix::RandomGaussian(bits, rank + 1, rng);
}

void LshHyperplanes::Encode(const double* aug, uint64_t* code) const {
  // One topk_score_block call per code word: the same blocked-8 dots as
  // one dot_strided call per hyperplane, bit for bit.
  const auto& kt = kernels::Get();
  double dots[64];
  for (size_t w = 0; w < words(); ++w) {
    const size_t first = w * 64;
    const size_t count = std::min<size_t>(64, bits_ - first);
    kt.topk_score_block(planes_.RowPtr(first), count, rank_ + 1, aug, dots);
    uint64_t word = 0;
    for (size_t b = 0; b < count; ++b) {
      word |= static_cast<uint64_t>(dots[b] >= 0.0) << b;
    }
    code[w] = word;
  }
}

std::shared_ptr<const AnnIndex> AnnIndex::Build(
    const KruskalTensor& factors, const LshOptions& options,
    const AnnIndex* previous, const KruskalTensor* previous_factors) {
  auto index = std::shared_ptr<AnnIndex>(new AnnIndex());
  index->options_ = options;

  const size_t rank = factors.rank();
  // Reuse the previous hyperplane family when it matches — required for
  // code reuse, and cheaper than re-drawing bits x (rank+1) Gaussians.
  if (previous != nullptr && previous->planes_.Matches(options, rank)) {
    index->planes_ = previous->planes_;
  } else {
    index->planes_ = LshHyperplanes(options.bits, rank, options.seed);
  }
  const LshHyperplanes& planes = index->planes_;
  const size_t num_words = planes.words();

  const bool can_patch = previous != nullptr && previous_factors != nullptr &&
                         previous->planes_.Matches(options, rank) &&
                         previous->modes_.size() == factors.order() &&
                         previous_factors->order() == factors.order() &&
                         previous_factors->rank() == rank;

  index->modes_.resize(factors.order());
  std::vector<double> aug(rank + 1, 0.0);
  std::vector<double> norms_sq;
  for (size_t m = 0; m < factors.order(); ++m) {
    const Matrix& f = factors.factor(m);
    LshModeIndex& mode = index->modes_[m];
    mode.num_rows = f.rows();
    mode.words = num_words;
    mode.codes.assign(mode.num_rows * num_words, 0);

    norms_sq.resize(mode.num_rows);
    double max_norm_sq = 0.0;
    for (size_t r = 0; r < mode.num_rows; ++r) {
      norms_sq[r] = RowNormSquared(f.RowPtr(r), rank);
      max_norm_sq = std::max(max_norm_sq, norms_sq[r]);
    }
    const double fresh_norm = std::sqrt(max_norm_sq);

    // Patch rule: codes survive only if the row bytes are unchanged AND the
    // previous augmentation norm still dominates the mode (a larger M moves
    // the augmented coordinate of every row, invalidating all codes).
    const LshModeIndex* prev_mode = nullptr;
    const Matrix* prev_factor = nullptr;
    if (can_patch) {
      const LshModeIndex& pm = previous->modes_[m];
      const Matrix& pf = previous_factors->factor(m);
      if (pm.num_rows == pf.rows() && fresh_norm <= pm.aug_norm) {
        prev_mode = &pm;
        prev_factor = &pf;
      }
    }
    mode.aug_norm = prev_mode != nullptr ? prev_mode->aug_norm : fresh_norm;

    for (size_t r = 0; r < mode.num_rows; ++r) {
      const double* row = f.RowPtr(r);
      if (prev_mode != nullptr && r < prev_mode->num_rows &&
          std::memcmp(row, prev_factor->RowPtr(r), rank * sizeof(double)) ==
              0) {
        std::memcpy(mode.codes.data() + r * num_words, prev_mode->RowCode(r),
                    num_words * sizeof(uint64_t));
        ++mode.reused_rows;
        continue;
      }
      std::memcpy(aug.data(), row, rank * sizeof(double));
      aug[rank] = AugCoordinate(norms_sq[r], mode.aug_norm);
      planes.Encode(aug.data(), mode.codes.data() + r * num_words);
      ++mode.hashed_rows;
    }
  }
  return index;
}

uint64_t AnnIndex::reused_rows() const {
  uint64_t total = 0;
  for (const LshModeIndex& m : modes_) total += m.reused_rows;
  return total;
}

uint64_t AnnIndex::hashed_rows() const {
  uint64_t total = 0;
  for (const LshModeIndex& m : modes_) total += m.hashed_rows;
  return total;
}

std::vector<uint32_t> AnnIndex::Shortlist(size_t mode_index,
                                          const double* weights,
                                          size_t shortlist_size) const {
  const LshModeIndex& mode = modes_[mode_index];
  if (mode.num_rows == 0 || shortlist_size == 0) return {};
  if (shortlist_size >= mode.num_rows) {
    std::vector<uint32_t> all(mode.num_rows);
    std::iota(all.begin(), all.end(), 0u);
    return all;
  }
  ShortlistScratch& scratch = ThreadScratch();

  // Query code: the MIPS augmentation of a query is [w, 0].
  const size_t rank = planes_.rank();
  scratch.aug.assign(rank + 1, 0.0);
  std::memcpy(scratch.aug.data(), weights, rank * sizeof(double));
  scratch.qcode.resize(mode.words);
  planes_.Encode(scratch.aug.data(), scratch.qcode.data());

  // The kernel's counting-select (kernels.h): every row strictly below
  // the cut-off distance plus the lowest-indexed ties at it, ascending —
  // a pure function of (index bytes, weights), whatever the backend.
  if (scratch.dists.size() < mode.num_rows) {
    scratch.dists.resize(mode.num_rows);
  }
  std::vector<uint32_t> shortlist(shortlist_size);
  kernels::Get().hamming_shortlist(mode.codes.data(), mode.num_rows,
                                   mode.words, scratch.qcode.data(),
                                   shortlist_size, scratch.dists.data(),
                                   shortlist.data());
  return shortlist;
}

}  // namespace ann
}  // namespace dismastd
