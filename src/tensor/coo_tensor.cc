#include "tensor/coo_tensor.h"

#include <algorithm>
#include <numeric>

namespace dismastd {

SparseTensor::SparseTensor(std::vector<uint64_t> dims)
    : dims_(std::move(dims)) {
  DISMASTD_CHECK(!dims_.empty());
}

void SparseTensor::Add(const std::vector<uint64_t>& index, double value) {
  DISMASTD_CHECK(index.size() == order());
  AddRaw(index.data(), value);
}

void SparseTensor::AddRaw(const uint64_t* index, double value) {
  const size_t n = order();
  for (size_t m = 0; m < n; ++m) DISMASTD_CHECK(index[m] < dims_[m]);
  indices_.insert(indices_.end(), index, index + n);
  values_.push_back(value);
}

void SparseTensor::Reserve(size_t nnz) {
  indices_.reserve(nnz * order());
  values_.reserve(nnz);
}

void SparseTensor::SortLexicographic() {
  const size_t n = order();
  std::vector<size_t> perm(nnz());
  std::iota(perm.begin(), perm.end(), 0);
  std::sort(perm.begin(), perm.end(), [&](size_t a, size_t b) {
    const uint64_t* ia = indices_.data() + a * n;
    const uint64_t* ib = indices_.data() + b * n;
    for (size_t m = 0; m < n; ++m) {
      if (ia[m] != ib[m]) return ia[m] < ib[m];
    }
    return false;
  });
  std::vector<uint64_t> new_indices(indices_.size());
  std::vector<double> new_values(values_.size());
  for (size_t e = 0; e < perm.size(); ++e) {
    std::copy(indices_.begin() + perm[e] * n,
              indices_.begin() + (perm[e] + 1) * n,
              new_indices.begin() + e * n);
    new_values[e] = values_[perm[e]];
  }
  indices_ = std::move(new_indices);
  values_ = std::move(new_values);
}

void SparseTensor::Coalesce() {
  if (nnz() == 0) return;
  SortLexicographic();
  const size_t n = order();
  size_t write = 0;
  for (size_t read = 0; read < nnz(); ++read) {
    if (write > 0 &&
        std::equal(indices_.begin() + read * n,
                   indices_.begin() + (read + 1) * n,
                   indices_.begin() + (write - 1) * n)) {
      values_[write - 1] += values_[read];
      continue;
    }
    if (write != read) {
      std::copy(indices_.begin() + read * n,
                indices_.begin() + (read + 1) * n,
                indices_.begin() + write * n);
      values_[write] = values_[read];
    }
    ++write;
  }
  // Drop entries that cancelled to exactly zero.
  size_t out = 0;
  for (size_t e = 0; e < write; ++e) {
    if (values_[e] == 0.0) continue;
    if (out != e) {
      std::copy(indices_.begin() + e * n, indices_.begin() + (e + 1) * n,
                indices_.begin() + out * n);
      values_[out] = values_[e];
    }
    ++out;
  }
  indices_.resize(out * n);
  values_.resize(out);
}

std::vector<uint64_t> SparseTensor::SliceNnzCounts(size_t mode) const {
  DISMASTD_CHECK(mode < order());
  std::vector<uint64_t> counts(dims_[mode], 0);
  const size_t n = order();
  for (size_t e = 0; e < nnz(); ++e) {
    ++counts[indices_[e * n + mode]];
  }
  return counts;
}

double SparseTensor::NormSquared() const {
  double sum = 0.0;
  for (double v : values_) sum += v * v;
  return sum;
}

void SparseTensor::GrowDims(const std::vector<uint64_t>& new_dims) {
  DISMASTD_CHECK(new_dims.size() == dims_.size());
  for (size_t m = 0; m < dims_.size(); ++m) {
    DISMASTD_CHECK(new_dims[m] >= dims_[m]);
  }
  dims_ = new_dims;
}

Status SparseTensor::Validate() const {
  const size_t n = order();
  if (n == 0) return Status::FailedPrecondition("tensor has no dims");
  for (size_t e = 0; e < nnz(); ++e) {
    for (size_t m = 0; m < n; ++m) {
      if (indices_[e * n + m] >= dims_[m]) {
        return Status::OutOfRange("entry " + std::to_string(e) +
                                  " index out of bounds in mode " +
                                  std::to_string(m));
      }
    }
  }
  return Status::OK();
}

}  // namespace dismastd
