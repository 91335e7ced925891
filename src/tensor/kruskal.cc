#include "tensor/kruskal.h"

#include <algorithm>
#include <cmath>

#include "kernels/kernels.h"
#include "la/ops.h"

namespace dismastd {

namespace {

/// Tuples ValuesAt resolves before it scores them: one batch query's 64.
constexpr size_t kTupleBlock = 64;

/// Orders whose block of row pointers ValuesAt keeps on the stack.
constexpr size_t kStackOrder = 8;

/// Scratch for combination weights: stack for the common small ranks, heap
/// beyond. Keeps ValuesAt allocation-free on the hot path.
struct WeightScratch {
  static constexpr size_t kStackRank = 64;
  double stack[kStackRank];
  std::vector<double> heap;

  double* Acquire(size_t rank) {
    if (rank <= kStackRank) return stack;
    heap.resize(rank);
    return heap.data();
  }
};

}  // namespace

KruskalTensor::KruskalTensor(std::vector<Matrix> factors)
    : factors_(std::move(factors)) {
  DISMASTD_CHECK(!factors_.empty());
  for (const Matrix& f : factors_) {
    DISMASTD_CHECK(f.cols() == factors_[0].cols());
  }
}

std::vector<uint64_t> KruskalTensor::dims() const {
  std::vector<uint64_t> d(order());
  for (size_t n = 0; n < order(); ++n) d[n] = factors_[n].rows();
  return d;
}

DenseTensor KruskalTensor::Reconstruct() const {
  DenseTensor out(dims());
  const size_t n = order();
  std::vector<uint64_t> index(n, 0);
  const std::vector<uint64_t> d = dims();
  size_t total = 1;
  for (uint64_t v : d) total *= static_cast<size_t>(v);
  for (size_t linear = 0; linear < total; ++linear) {
    size_t rem = linear;
    for (size_t m = 0; m < n; ++m) {
      index[m] = rem % d[m];
      rem /= d[m];
    }
    out.At(index) = ValueAt(index.data());
  }
  return out;
}

double KruskalTensor::ValueAt(const uint64_t* index) const {
  double value = 0.0;
  ValuesAt(&index, 1, &value);
  return value;
}

void KruskalTensor::ValuesAt(const uint64_t* const* tuples, size_t count,
                             double* out) const {
  const size_t n = order();
  const size_t r = rank();
  if (r == 0) {
    std::fill_n(out, count, 0.0);
    return;
  }
  const kernels::KernelTable& kern = kernels::Get();
  const double* stack_rows[kTupleBlock * kStackOrder];
  std::vector<const double*> heap_rows;
  const double** rows = stack_rows;
  if (n > kStackOrder) {
    heap_rows.resize(kTupleBlock * n);
    rows = heap_rows.data();
  }
  WeightScratch scratch;
  double* weights = scratch.Acquire(r);
  const size_t last_byte = r * sizeof(double) - 1;
  const double one = 1.0;
  for (size_t t0 = 0; t0 < count; t0 += kTupleBlock) {
    const size_t block = std::min(kTupleBlock, count - t0);
    for (size_t t = 0; t < block; ++t) {
      const uint64_t* index = tuples[t0 + t];
      for (size_t m = 0; m < n; ++m) {
        const double* row = factors_[m].RowPtr(static_cast<size_t>(index[m]));
        __builtin_prefetch(row);
        __builtin_prefetch(reinterpret_cast<const char*>(row) + last_byte);
        rows[t * n + m] = row;
      }
    }
    for (size_t t = 0; t < block; ++t) {
      const double* const* tuple_rows = rows + t * n;
      if (n == 1) {
        out[t0 + t] = kern.dot_strided(tuple_rows[0], 1, &one, 0, r);
      } else {
        kern.hadamard_combine(tuple_rows, n - 1, r, weights);
        out[t0 + t] = kern.dot_strided(weights, 1, tuple_rows[n - 1], 1, r);
      }
    }
  }
}

double KruskalTensor::NormSquaredViaGrams() const {
  // ‖[[A_1..A_N]]‖² = Σ_{f,g} Π_n (A_nᵀA_n)[f,g]: the sum of all elements
  // of the Hadamard product of the Grams.
  std::vector<Matrix> grams;
  grams.reserve(order());
  for (const Matrix& f : factors_) grams.push_back(TransposeTimes(f, f));
  return HadamardSum(grams);
}

double KruskalTensor::InnerWithSparse(const SparseTensor& x) const {
  DISMASTD_CHECK(x.order() == order());
  const uint64_t* tuples[kTupleBlock] = {};
  double values[kTupleBlock] = {};
  double total = 0.0;
  for (size_t e0 = 0; e0 < x.nnz(); e0 += kTupleBlock) {
    const size_t block = std::min(kTupleBlock, x.nnz() - e0);
    for (size_t t = 0; t < block; ++t) tuples[t] = x.IndexTuple(e0 + t);
    ValuesAt(tuples, block, values);
    for (size_t t = 0; t < block; ++t) total += x.Value(e0 + t) * values[t];
  }
  return total;
}

double KruskalTensor::ResidualNormSquared(const SparseTensor& x) const {
  const double value = x.NormSquared() + NormSquaredViaGrams() -
                       2.0 * InnerWithSparse(x);
  // Guard tiny negative values from floating-point cancellation.
  return value < 0.0 ? 0.0 : value;
}

double KruskalTensor::Fit(const SparseTensor& x) const {
  const double xnorm = std::sqrt(x.NormSquared());
  if (xnorm == 0.0) return 0.0;
  const double fit = 1.0 - std::sqrt(ResidualNormSquared(x)) / xnorm;
  return fit;
}

double KruskalInner(const KruskalTensor& a, const KruskalTensor& b) {
  DISMASTD_CHECK(a.order() == b.order());
  std::vector<Matrix> cross;
  cross.reserve(a.order());
  for (size_t m = 0; m < a.order(); ++m) {
    cross.push_back(TransposeTimes(a.factor(m), b.factor(m)));
  }
  return HadamardSum(cross);
}

}  // namespace dismastd
