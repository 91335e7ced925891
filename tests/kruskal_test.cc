#include "tensor/kruskal.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "kernels/kernels.h"
#include "stream/generator.h"
#include "test_util.h"

namespace dismastd {
namespace {

KruskalTensor RandomKruskal(const std::vector<uint64_t>& dims, size_t rank,
                            uint64_t seed) {
  Rng rng(seed);
  std::vector<Matrix> factors;
  for (uint64_t d : dims) {
    factors.push_back(Matrix::Random(static_cast<size_t>(d), rank, rng));
  }
  return KruskalTensor(std::move(factors));
}

TEST(KruskalTest, RankAndDims) {
  const KruskalTensor k = RandomKruskal({3, 4, 2}, 5, 1);
  EXPECT_EQ(k.order(), 3u);
  EXPECT_EQ(k.rank(), 5u);
  EXPECT_EQ(k.dims(), (std::vector<uint64_t>{3, 4, 2}));
}

TEST(KruskalTest, Rank1ReconstructIsOuterProduct) {
  const Matrix a{{2.0}, {3.0}};
  const Matrix b{{5.0}, {7.0}, {11.0}};
  const KruskalTensor k({a, b});
  const DenseTensor d = k.Reconstruct();
  EXPECT_DOUBLE_EQ(d.At({0, 0}), 10.0);
  EXPECT_DOUBLE_EQ(d.At({1, 2}), 33.0);
}

TEST(KruskalTest, ValueAtMatchesReconstruct) {
  const KruskalTensor k = RandomKruskal({3, 2, 4}, 3, 2);
  const DenseTensor d = k.Reconstruct();
  for (uint64_t i = 0; i < 3; ++i) {
    for (uint64_t j = 0; j < 2; ++j) {
      for (uint64_t l = 0; l < 4; ++l) {
        const uint64_t idx[] = {i, j, l};
        EXPECT_NEAR(k.ValueAt(idx), d.At({i, j, l}), 1e-12);
      }
    }
  }
}

TEST(KruskalTest, ValuesAtMatchPerTupleKernelSequenceBitExactly) {
  // Orders 1 (a dot against broadcast 1.0), 3 and 9 (row pointers past
  // the stack block), and counts around the 64-tuple resolve block: each
  // value is the scalar kernels' hadamard_combine + dot_strided of its
  // tuple alone, whatever tuples are scored beside it.
  const kernels::KernelTable& scalar = kernels::Get(kernels::Backend::kScalar);
  for (size_t order : {1u, 3u, 9u}) {
    const std::vector<uint64_t> dims(order, 7);
    const KruskalTensor k = RandomKruskal(dims, 10, 20 + order);
    Rng rng(30 + order);
    for (size_t count : {0u, 1u, 63u, 64u, 65u, 130u}) {
      std::vector<std::vector<uint64_t>> indices(count);
      std::vector<const uint64_t*> tuples(count);
      for (size_t t = 0; t < count; ++t) {
        for (size_t m = 0; m < order; ++m) {
          indices[t].push_back(rng.NextBounded(7));
        }
        tuples[t] = indices[t].data();
      }
      std::vector<double> got(count);
      k.ValuesAt(tuples.data(), count, got.data());
      for (size_t t = 0; t < count; ++t) {
        std::vector<const double*> rows;
        for (size_t m = 0; m < order; ++m) {
          rows.push_back(k.factor(m).RowPtr(indices[t][m]));
        }
        std::vector<double> weights(10, 1.0);
        scalar.hadamard_combine(rows.data(), order - 1, 10, weights.data());
        const double want =
            scalar.dot_strided(weights.data(), 1, rows.back(), 1, 10);
        ASSERT_EQ(test::Bits(got[t]), test::Bits(want))
            << "order=" << order << " count=" << count << " t=" << t;
        ASSERT_EQ(test::Bits(k.ValueAt(tuples[t])), test::Bits(want));
      }
    }
  }
}

TEST(KruskalTest, NormViaGramsMatchesDense) {
  const KruskalTensor k = RandomKruskal({4, 3, 2}, 3, 3);
  EXPECT_NEAR(k.NormSquaredViaGrams(), k.Reconstruct().NormSquared(), 1e-9);
}

TEST(KruskalTest, InnerWithSparseMatchesDense) {
  const KruskalTensor k = RandomKruskal({3, 3, 3}, 2, 4);
  SparseTensor x({3, 3, 3});
  x.Add({0, 1, 2}, 2.0);
  x.Add({2, 2, 0}, -1.5);
  x.Add({1, 1, 1}, 0.5);
  const DenseTensor kd = k.Reconstruct();
  double expected = 0.0;
  for (size_t e = 0; e < x.nnz(); ++e) {
    expected += x.Value(e) * kd.AtRaw(x.IndexTuple(e));
  }
  EXPECT_NEAR(k.InnerWithSparse(x), expected, 1e-10);
}

TEST(KruskalTest, InnerWithSparseAddsValuesInNnzOrder) {
  // 200 non-zeros span four resolve blocks; the inner product is the
  // products x · ValueAt added one at a time in nnz order, bit for bit.
  const KruskalTensor k = RandomKruskal({9, 8, 7}, 10, 8);
  SparseTensor x({9, 8, 7});
  Rng rng(9);
  for (int e = 0; e < 200; ++e) {
    x.Add({rng.NextBounded(9), rng.NextBounded(8), rng.NextBounded(7)},
          rng.NextGaussian());
  }
  double want = 0.0;
  for (size_t e = 0; e < x.nnz(); ++e) {
    want += x.Value(e) * k.ValueAt(x.IndexTuple(e));
  }
  EXPECT_EQ(test::Bits(k.InnerWithSparse(x)), test::Bits(want));
}

TEST(KruskalTest, ResidualMatchesDenseDistance) {
  const KruskalTensor k = RandomKruskal({3, 2, 2}, 2, 5);
  SparseTensor x({3, 2, 2});
  Rng rng(6);
  for (int e = 0; e < 6; ++e) {
    x.Add({rng.NextBounded(3), rng.NextBounded(2), rng.NextBounded(2)},
          rng.NextDouble());
  }
  x.Coalesce();
  const DenseTensor xd = DenseTensor::FromSparse(x);
  const double expected = xd.DistanceSquared(k.Reconstruct());
  EXPECT_NEAR(k.ResidualNormSquared(x), expected, 1e-9);
}

TEST(KruskalTest, PerfectModelHasFitOne) {
  // Build a sparse tensor whose values exactly match the model on a few
  // coordinates — fit < 1 because the model is dense; instead check the
  // degenerate exact case: the tensor IS the dense model.
  const KruskalTensor k = RandomKruskal({2, 2}, 2, 7);
  const DenseTensor d = k.Reconstruct();
  SparseTensor x({2, 2});
  for (uint64_t i = 0; i < 2; ++i) {
    for (uint64_t j = 0; j < 2; ++j) x.Add({i, j}, d.At({i, j}));
  }
  EXPECT_NEAR(k.Fit(x), 1.0, 1e-6);
  EXPECT_NEAR(k.ResidualNormSquared(x), 0.0, 1e-9);
}

TEST(KruskalTest, FitOfEmptyTensorIsZero) {
  const KruskalTensor k = RandomKruskal({2, 2}, 1, 8);
  const SparseTensor empty({2, 2});
  EXPECT_EQ(k.Fit(empty), 0.0);
}

TEST(KruskalTest, KruskalInnerMatchesDense) {
  const KruskalTensor a = RandomKruskal({3, 2, 2}, 2, 9);
  const KruskalTensor b = RandomKruskal({3, 2, 2}, 2, 10);
  const DenseTensor ad = a.Reconstruct();
  const DenseTensor bd = b.Reconstruct();
  double expected = 0.0;
  for (size_t i = 0; i < ad.size(); ++i) {
    expected += ad.data()[i] * bd.data()[i];
  }
  EXPECT_NEAR(KruskalInner(a, b), expected, 1e-9);
}

TEST(KruskalTest, KruskalInnerWithSelfIsNormSquared) {
  const KruskalTensor a = RandomKruskal({4, 3}, 3, 11);
  EXPECT_NEAR(KruskalInner(a, a), a.NormSquaredViaGrams(), 1e-9);
}

class KruskalOrderTest : public ::testing::TestWithParam<size_t> {};

TEST_P(KruskalOrderTest, NormIdentityAcrossOrders) {
  const size_t order = GetParam();
  std::vector<uint64_t> dims(order, 3);
  const KruskalTensor k = RandomKruskal(dims, 2, 50 + order);
  EXPECT_NEAR(k.NormSquaredViaGrams(), k.Reconstruct().NormSquared(), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Orders, KruskalOrderTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

}  // namespace
}  // namespace dismastd
