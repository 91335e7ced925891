#include "ann/lsh_index.h"

#include <algorithm>
#include <bit>
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

/// splitmix64's finalizer folded over a code's words.
uint64_t HashCode(const uint64_t* code, size_t words) {
  uint64_t h = 0;
  for (size_t w = 0; w < words; ++w) {
    h ^= code[w];
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
    h ^= h >> 31;
  }
  return h;
}

/// Groups `mode`'s rows by code, given every row's code (`row_codes`,
/// num_rows * words). Code ids go out in first-row order through an
/// open-addressing table from code words to ids, sized for every row to
/// have its own code; a slot holds the upper half of the code's hash
/// beside the id, so most mismatches never read the code. The table is
/// larger than the caches once codes are mostly distinct, so each row's
/// slot is prefetched kAhead rows early. A counting sort by id then lists
/// each group's rows in ascending order. O(rows).
void GroupRows(const uint64_t* row_codes, LshModeIndex* mode) {
  constexpr uint64_t kEmpty = ~uint64_t{0};
  constexpr size_t kAhead = 8;
  const size_t words = mode->words;
  const size_t num_rows = mode->num_rows;
  std::vector<uint64_t> slots(std::bit_ceil(std::max<size_t>(64, 2 * num_rows)),
                              kEmpty);
  const size_t mask = slots.size() - 1;
  // hashes[r % kAhead] holds row r's hash from when its slot was
  // prefetched.
  uint64_t hashes[kAhead];
  const auto hash_ahead = [&](size_t r) {
    if (r >= num_rows) return;
    hashes[r % kAhead] = HashCode(row_codes + r * words, words);
    __builtin_prefetch(&slots[hashes[r % kAhead] & mask]);
  };
  for (size_t r = 0; r < kAhead; ++r) hash_ahead(r);
  mode->row_code.resize(num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    const uint64_t* code = row_codes + r * words;
    const uint64_t hash = hashes[r % kAhead];
    hash_ahead(r + kAhead);
    size_t s = hash & mask;
    for (; slots[s] != kEmpty; s = (s + 1) & mask) {
      const uint32_t id = static_cast<uint32_t>(slots[s]);
      if ((slots[s] >> 32) == (hash >> 32) &&
          std::equal(code, code + words, mode->Code(id))) {
        break;
      }
    }
    if (slots[s] == kEmpty) {
      slots[s] = (hash >> 32 << 32) | mode->num_codes++;
      mode->codes.insert(mode->codes.end(), code, code + words);
    }
    mode->row_code[r] = static_cast<uint32_t>(slots[s]);
  }

  mode->group_start.assign(mode->num_codes + 1, 0);
  for (uint32_t g : mode->row_code) ++mode->group_start[g + 1];
  for (uint32_t g = 0; g < mode->num_codes; ++g) {
    if (mode->group_start[g + 1] > 1) mode->multi_codes.push_back(g);
    mode->group_start[g + 1] += mode->group_start[g];
  }
  std::vector<uint32_t> next(mode->group_start.begin(),
                             mode->group_start.end() - 1);
  mode->group_rows.resize(num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    mode->group_rows[next[mode->row_code[r]]++] = static_cast<uint32_t>(r);
  }
}

/// This thread's Shortlist scratch, reused across queries (grown, never
/// shrunk, like the kernels' LaneBuffer), so a query allocates nothing:
/// the query's augmented vector and code, every code's distance, the
/// chosen codes, and the rows at the cut-off before their trim.
struct ShortlistScratch {
  std::vector<double> aug;
  std::vector<uint64_t> qcode;
  std::vector<uint16_t> dists;
  std::vector<uint32_t> below;
  std::vector<uint32_t> at;
  std::vector<uint32_t> at_rows;
};

ShortlistScratch& ThreadScratch() {
  thread_local ShortlistScratch scratch;
  return scratch;
}

}  // namespace

LshHyperplanes::LshHyperplanes(size_t bits, size_t rank, uint64_t seed)
    : bits_(bits), rank_(rank), seed_(seed) {
  DISMASTD_CHECK(bits >= 1 && bits <= kMaxLshBits);
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
    kt.topk_score_block(planes_.RowPtr(first), nullptr, count, rank_ + 1,
                        aug, dots);
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
  std::vector<uint64_t> row_codes;
  for (size_t m = 0; m < factors.order(); ++m) {
    const Matrix& f = factors.factor(m);
    LshModeIndex& mode = index->modes_[m];
    mode.num_rows = f.rows();
    DISMASTD_CHECK(mode.num_rows <= UINT32_MAX);
    mode.words = num_words;

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

    row_codes.resize(mode.num_rows * num_words);
    for (size_t r = 0; r < mode.num_rows; ++r) {
      const double* row = f.RowPtr(r);
      uint64_t* code = row_codes.data() + r * num_words;
      if (prev_mode != nullptr && r < prev_mode->num_rows &&
          std::memcmp(row, prev_factor->RowPtr(r), rank * sizeof(double)) ==
              0) {
        std::memcpy(code, prev_mode->RowCode(r), num_words * sizeof(uint64_t));
        ++mode.reused_rows;
        continue;
      }
      std::memcpy(aug.data(), row, rank * sizeof(double));
      aug[rank] = AugCoordinate(norms_sq[r], mode.aug_norm);
      planes.Encode(aug.data(), code);
      ++mode.hashed_rows;
    }
    GroupRows(row_codes.data(), &mode);
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

size_t AnnIndex::Shortlist(size_t mode_index, const double* weights,
                           size_t shortlist_size, uint32_t* rows) const {
  const LshModeIndex& mode = modes_[mode_index];
  const size_t n = std::min(shortlist_size, mode.num_rows);
  if (n == mode.num_rows) {
    std::iota(rows, rows + n, 0u);
    return n;
  }
  if (n == 0) return 0;
  ShortlistScratch& scratch = ThreadScratch();

  // Query code: the MIPS augmentation of a query is [w, 0].
  const size_t rank = planes_.rank();
  scratch.aug.assign(rank + 1, 0.0);
  std::memcpy(scratch.aug.data(), weights, rank * sizeof(double));
  scratch.qcode.resize(mode.words);
  planes_.Encode(scratch.aug.data(), scratch.qcode.data());

  // The kernel's counting-select over the distinct codes (kernels.h): the
  // cut-off c, the rows below it, and the codes below and at it.
  if (scratch.dists.size() < mode.num_codes) {
    scratch.dists.resize(mode.num_codes);
    scratch.below.resize(mode.num_codes + 1);
    scratch.at.resize(mode.num_codes + 1);
  }
  const kernels::ShortlistCut cut = kernels::Get().hamming_shortlist(
      mode.Groups(), scratch.qcode.data(), n, scratch.dists.data(),
      scratch.below.data(), scratch.at.data());
  const uint32_t* start = mode.group_start.data();
  const uint32_t* group_rows = mode.group_rows.data();

  // The rows at c, trimmed to their lowest `ties`. In first-row order the
  // j-th code at c has j codes at c with lower first rows, and a code's
  // i-th row has i lower rows of its own, so a row with i + j >= ties
  // cannot be kept: gather the others, then select the lowest `ties`.
  const size_t ties = n - cut.rows_below;
  size_t gathered = 0;
  for (size_t j = 0; j < std::min(cut.num_at, ties); ++j) {
    const uint32_t g = scratch.at[j];
    const size_t count = std::min<size_t>(start[g + 1] - start[g], ties - j);
    if (scratch.at_rows.size() < gathered + count) {
      scratch.at_rows.resize(2 * (gathered + count));
    }
    std::copy_n(group_rows + start[g], count,
                scratch.at_rows.data() + gathered);
    gathered += count;
  }
  DISMASTD_CHECK(gathered >= ties);
  uint32_t* at_rows = scratch.at_rows.data();
  if (gathered > ties) {
    std::nth_element(at_rows, at_rows + ties, at_rows + gathered);
  }
  uint32_t* out = std::copy_n(at_rows, ties, rows);

  // Then every row below c, code by code.
  for (size_t i = 0; i < cut.num_below; ++i) {
    const uint32_t g = scratch.below[i];
    out = std::copy(group_rows + start[g], group_rows + start[g + 1], out);
  }
  DISMASTD_CHECK(out == rows + n);
  return n;
}

}  // namespace ann
}  // namespace dismastd
