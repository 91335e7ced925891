#ifndef DISMASTD_TENSOR_COO_TENSOR_H_
#define DISMASTD_TENSOR_COO_TENSOR_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace dismastd {

/// N-order sparse tensor in coordinate (COO) format.
///
/// Storage is struct-of-arrays: a flat index array of `nnz * order` entries
/// (entry e's mode-n index at `indices[e * order + n]`) plus a parallel
/// value array. This is the representation DisMASTD distributes: the paper
/// stores `X \ X̃` "by all the non-zero elements with the coordinate format"
/// (proof of Theorem 3).
class SparseTensor {
 public:
  SparseTensor() = default;

  /// Empty tensor with the given mode sizes.
  explicit SparseTensor(std::vector<uint64_t> dims);

  size_t order() const { return dims_.size(); }
  const std::vector<uint64_t>& dims() const { return dims_; }
  uint64_t dim(size_t mode) const { return dims_[mode]; }
  size_t nnz() const { return values_.size(); }

  /// Appends one non-zero. Indices must be within the tensor's dims.
  void Add(const std::vector<uint64_t>& index, double value);

  /// Appends one non-zero from a raw index pointer of `order()` entries.
  void AddRaw(const uint64_t* index, double value);

  /// Index of entry `e` in mode `n`.
  uint64_t Index(size_t e, size_t mode) const {
    return indices_[e * order() + mode];
  }
  /// Pointer to entry `e`'s full index tuple.
  const uint64_t* IndexTuple(size_t e) const {
    return indices_.data() + e * order();
  }
  double Value(size_t e) const { return values_[e]; }
  double& MutableValue(size_t e) { return values_[e]; }

  /// The raw storage: nnz() * order() indices, entry e's tuple at
  /// IndexData() + e * order(), and nnz() values.
  const uint64_t* IndexData() const { return indices_.data(); }
  const double* ValueData() const { return values_.data(); }

  /// Reserves room for `nnz` entries in total.
  void Reserve(size_t nnz);

  /// Lexicographically sorts entries by index tuple. Deterministic.
  void SortLexicographic();

  /// Sorts entries, then sums values of duplicate index tuples and drops
  /// exact zeros that result. Requires no concurrent access.
  void Coalesce();

  /// Per-slice non-zero counts along `mode`: result[i] = nnz of slice i.
  /// This is the `a_i^(n)` statistic driving GTP/MTP (Alg. 2/3).
  std::vector<uint64_t> SliceNnzCounts(size_t mode) const;

  /// Sum of squared values (‖X‖_F² for a tensor whose non-stored entries
  /// are zero).
  double NormSquared() const;

  /// Grows the mode sizes (never shrinks); entries are unaffected.
  /// `new_dims` must be element-wise >= current dims.
  void GrowDims(const std::vector<uint64_t>& new_dims);

  /// Returns a tensor with the same dims containing only the entries for
  /// which `keep(e)` is true.
  template <typename Pred>
  SparseTensor Filter(Pred keep) const {
    SparseTensor out(dims_);
    for (size_t e = 0; e < nnz(); ++e) {
      if (keep(e)) out.AddRaw(IndexTuple(e), Value(e));
    }
    return out;
  }

  /// Validates that every stored index is within dims.
  Status Validate() const;

  bool operator==(const SparseTensor& other) const {
    return dims_ == other.dims_ && indices_ == other.indices_ &&
           values_ == other.values_;
  }

 private:
  std::vector<uint64_t> dims_;
  std::vector<uint64_t> indices_;  // nnz * order, row-major per entry
  std::vector<double> values_;
};

}  // namespace dismastd

#endif  // DISMASTD_TENSOR_COO_TENSOR_H_
