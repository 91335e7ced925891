#ifndef DISMASTD_ANN_LSH_INDEX_H_
#define DISMASTD_ANN_LSH_INDEX_H_

// Approximate-nearest-neighbor shortlisting for the serving plane.
//
// A published model's top-K query scores every candidate row of the target
// mode against the query's combination-weight vector w — linear in the
// mode size, which does not survive millions of candidates. The LSH index
// built here replaces that full scan with a two-stage search:
//
//   1. shortlist: sign-bit codes (random-hyperplane LSH, the simhash of
//      Charikar 2002 / faiss IndexLSH as used by marian's output-layer
//      shortlist) are scanned by Hamming distance — 64..256 bits per
//      distinct code instead of R doubles per row, an order of magnitude
//      less memory traffic — and the `shortlist_size` nearest rows are
//      selected by an exact counting-select over the codes' row counts
//      (no heap, deterministic index tie-breaking);
//   2. exact re-rank: the caller rescores just the shortlist through the
//      canonical fp64 top-K dot, so returned scores are bit-identical to
//      what the brute-force scan would have produced for the same rows.
//
// Inner products are reduced to angles with the classic MIPS augmentation
// (Neyshabur & Srebro 2015): every row r is hashed as the (R+1)-vector
// [r, sqrt(M² - ‖r‖²)] with M the mode's max row norm, and the query as
// [w, 0]. All augmented rows then share the norm M, so
// cos ∠([w,0],[r,√(M²-‖r‖²)]) = ⟨r,w⟩ / (M‖w‖) — Hamming distance between
// sign codes is monotone (in expectation) in the true score, norms
// included.
//
// Determinism contract: hyperplanes are drawn from a seeded Rng; every
// dot product routes through the dispatched kernel table's fp64 dot
// kernels (bit-exact across backends); the Hamming scan is integer.
// Builds encode, then group, in row order, so index bytes are
// bit-identical across thread counts and kernel backends, and an
// incremental patch (below) is a pure function of the publish history.
//
// Incremental patch rule: on publish t+1, a row keeps its code iff its
// fp64 bytes are unchanged from publish t AND the mode's augmentation
// norm M did not grow (otherwise the augmented coordinate of every row
// changes and the whole mode is re-hashed). Unchanged-row reuse is what
// makes per-publish index maintenance proportional to the number of rows
// the streaming step actually touched.

#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.h"
#include "kernels/kernels.h"
#include "la/matrix.h"
#include "tensor/kruskal.h"

namespace dismastd {
namespace ann {

/// The widest code: the shortlist's u16 Hamming distances reach
/// 64 · ceil(bits / 64), which must not pass 65,535.
inline constexpr size_t kMaxLshBits = 64 * kernels::kMaxCodeWords;

struct LshOptions {
  /// Hyperplanes per row = code width in bits. Rounded storage is
  /// ceil(bits / 64) u64 words per code. Must be in [1, kMaxLshBits].
  size_t bits = 64;
  /// Seed of the hyperplane draw. Two indexes with the same
  /// (bits, rank, seed) share hyperplanes, which is what makes codes
  /// reusable across publishes.
  uint64_t seed = 0x4C5348u;  // "LSH"
};

/// The seeded random hyperplanes of one index family: `bits` Gaussian
/// vectors of dimension rank+1 (the MIPS-augmented space). Immutable after
/// construction.
class LshHyperplanes {
 public:
  LshHyperplanes() = default;
  LshHyperplanes(size_t bits, size_t rank, uint64_t seed);

  size_t bits() const { return bits_; }
  size_t rank() const { return rank_; }
  uint64_t seed() const { return seed_; }
  size_t words() const { return (bits_ + 63) / 64; }

  bool Matches(const LshOptions& options, size_t rank) const {
    return bits_ == options.bits && seed_ == options.seed && rank_ == rank;
  }

  /// Sign-encodes the augmented vector `aug` (rank+1 doubles) into
  /// words() u64s: bit b set iff ⟨plane_b, aug⟩ >= 0. Dot products go
  /// through the dispatched kernel table, so codes are backend-invariant.
  void Encode(const double* aug, uint64_t* code) const;

 private:
  size_t bits_ = 0;
  size_t rank_ = 0;
  uint64_t seed_ = 0;
  Matrix planes_;  // bits x (rank + 1)
};

/// One mode's packed sign codes, grouped: each distinct code is stored
/// once with the ascending list of the rows that hash to it. Rows whose
/// norm is far below the mode's max M get nearly the same augmented
/// vector, so a skewed factor (untouched all-zero rows, a long tail of
/// light users) collapses onto a few codes, and the shortlist scans codes
/// instead of rows. Also holds the augmentation norm the codes were
/// hashed under, and the build provenance counters the serve metrics
/// export.
struct LshModeIndex {
  size_t num_rows = 0;
  size_t num_codes = 0;
  size_t words = 0;
  /// Max row norm M of the mode at the build that last set it; rows are
  /// hashed as [row, sqrt(M² - ‖row‖²)].
  double aug_norm = 0.0;
  /// The distinct codes, num_codes * words, in the order of the first row
  /// that has each (first-row order).
  std::vector<uint64_t> codes;
  /// Code g's rows are group_rows[group_start[g], group_start[g + 1]), in
  /// ascending order; the groups partition the rows.
  std::vector<uint32_t> group_start;  // num_codes + 1
  std::vector<uint32_t> group_rows;   // num_rows
  /// The code id of every row.
  std::vector<uint32_t> row_code;  // num_rows
  /// The codes with more than one row, ascending: the shortlist counts
  /// codes and adds these codes' extra rows.
  std::vector<uint32_t> multi_codes;

  /// Build provenance of the most recent (re)build of this mode.
  uint64_t reused_rows = 0;
  uint64_t hashed_rows = 0;

  const uint64_t* Code(size_t g) const { return codes.data() + g * words; }
  const uint64_t* RowCode(size_t r) const { return Code(row_code[r]); }
  kernels::CodeGroups Groups() const {
    return {codes.data(),       num_codes,         words, group_start.data(),
            multi_codes.data(), multi_codes.size()};
  }
};

/// The per-model ANN index: one LshModeIndex per mode, sharing one
/// hyperplane family. Immutable after Build; carried inside the published
/// ServableModel so a query's snapshot pins factors and index together
/// (readers can never observe a torn or mismatched index).
class AnnIndex {
 public:
  /// Builds the index over every mode of `factors`. When `previous` (the
  /// index of the previously published model) and `previous_factors` are
  /// given and the hyperplane family matches, unchanged rows' codes are
  /// reused per the incremental patch rule above.
  static std::shared_ptr<const AnnIndex> Build(
      const KruskalTensor& factors, const LshOptions& options,
      const AnnIndex* previous, const KruskalTensor* previous_factors);

  const LshOptions& options() const { return options_; }
  const LshHyperplanes& planes() const { return planes_; }
  size_t num_modes() const { return modes_.size(); }
  const LshModeIndex& mode(size_t m) const { return modes_[m]; }

  /// Totals over all modes of the most recent build.
  uint64_t reused_rows() const;
  uint64_t hashed_rows() const;

  /// Writes to `rows` the `shortlist_size` candidate rows of `mode` whose
  /// codes are nearest in Hamming distance to the code of `weights` (rank
  /// doubles), and returns their number: shortlist_size clamped to the
  /// mode's row count, which `rows` must have room for. With c the
  /// smallest distance that has that many rows at or below it, the set is
  /// every row of a code below c plus the lowest-indexed rows at c, so the
  /// shortlist is a pure function of (index bytes, weights). The rows come
  /// in code order, with no per-row pass: first the kept rows at c (in no
  /// particular order), then each code below c's rows, ascending, code by
  /// code. A mode that fits whole is listed in ascending row order.
  size_t Shortlist(size_t mode, const double* weights, size_t shortlist_size,
                   uint32_t* rows) const;

 private:
  AnnIndex() = default;

  LshOptions options_;
  LshHyperplanes planes_;
  std::vector<LshModeIndex> modes_;
};

}  // namespace ann
}  // namespace dismastd

#endif  // DISMASTD_ANN_LSH_INDEX_H_
