#include "core/dtd.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/random.h"
#include "la/ops.h"
#include "la/solve.h"
#include "stream/generator.h"
#include "stream/snapshot.h"
#include "test_util.h"

namespace dismastd {
namespace {

/// A two-snapshot multi-aspect stream over a fully observed noiseless
/// low-rank box (recovery-style fit assertions need full observation; see
/// test_util.h).
struct StreamFixture {
  SparseTensor full;            // final snapshot
  SparseTensor first;           // previous snapshot X̃
  SparseTensor delta;           // X \ X̃ (dims of the final snapshot)
  std::vector<uint64_t> old_dims;

  explicit StreamFixture(uint64_t seed, std::vector<uint64_t> dims = {20, 16,
                                                                      12},
                         std::vector<uint64_t> old = {15, 12, 9}) {
    full = test::MakeDenseLowRank(dims, 2, seed).tensor;
    old_dims = std::move(old);
    first = RestrictToBox(full, old_dims);
    delta = RelativeComplement(full, old_dims);
  }
};

DecompositionOptions Opts(size_t rank = 3, size_t iters = 10) {
  DecompositionOptions o;
  o.rank = rank;
  o.max_iterations = iters;
  return o;
}

KruskalTensor DecomposeFirst(const StreamFixture& fx,
                             const DecompositionOptions& options) {
  DecompositionOptions cold = options;
  cold.max_iterations = 25;
  return CpAls(fx.first, cold).factors;
}

TEST(InitializeDtdFactorsTest, StacksPrevOverRandom) {
  const StreamFixture fx(1);
  const KruskalTensor prev = DecomposeFirst(fx, Opts());
  const auto factors =
      InitializeDtdFactors(fx.full.dims(), fx.old_dims, prev, Opts());
  ASSERT_EQ(factors.size(), 3u);
  for (size_t n = 0; n < 3; ++n) {
    EXPECT_EQ(factors[n].rows(), fx.full.dim(n));
    // Old rows equal the previous factors exactly.
    EXPECT_TRUE(factors[n]
                    .RowSlice(0, static_cast<size_t>(fx.old_dims[n]))
                    .AllClose(prev.factor(n), 0.0));
  }
}

TEST(InitializeDtdFactorsTest, ColdStartIsAllRandom) {
  const std::vector<uint64_t> dims = {5, 4};
  const auto factors = InitializeDtdFactors(dims, {0, 0}, {}, Opts(2));
  EXPECT_EQ(factors[0].rows(), 5u);
  EXPECT_EQ(factors[1].rows(), 4u);
}

TEST(DtdTest, ColdStartEqualsCpAlsExactly) {
  // With old_dims = 0 DTD degenerates to static CP-ALS: same init RNG
  // sequencing, same update rules, same loss — bit-for-bit.
  const StreamFixture fx(2);
  const DecompositionOptions options = Opts(3, 5);
  const std::vector<uint64_t> zeros(3, 0);
  const AlsResult dtd =
      DynamicTensorDecomposition(fx.full, zeros, {}, options);
  const AlsResult als = CpAls(fx.full, options);
  ASSERT_EQ(dtd.loss_history.size(), als.loss_history.size());
  for (size_t n = 0; n < 3; ++n) {
    EXPECT_TRUE(dtd.factors.factor(n) == als.factors.factor(n)) << n;
  }
  for (size_t i = 0; i < dtd.loss_history.size(); ++i) {
    EXPECT_DOUBLE_EQ(dtd.loss_history[i], als.loss_history[i]);
  }
}

TEST(DtdTest, StreamingStepTracksGrownTensor) {
  const StreamFixture fx(3);
  const KruskalTensor prev = DecomposeFirst(fx, Opts());
  const AlsResult result =
      DynamicTensorDecomposition(fx.delta, fx.old_dims, prev, Opts(3, 15));
  // The updated factors must fit the *full* grown tensor well, despite DTD
  // touching only the delta's non-zeros.
  EXPECT_GT(result.factors.Fit(fx.full), 0.9);
  EXPECT_EQ(result.factors.dims(), fx.full.dims());
}

TEST(DtdTest, LossDecreasesAcrossIterations) {
  const StreamFixture fx(4);
  const KruskalTensor prev = DecomposeFirst(fx, Opts());
  const AlsResult result =
      DynamicTensorDecomposition(fx.delta, fx.old_dims, prev, Opts(3, 8));
  for (size_t i = 1; i < result.loss_history.size(); ++i) {
    EXPECT_LE(result.loss_history[i], result.loss_history[i - 1] + 1e-6);
  }
}

TEST(DtdTest, ReuseAndRecomputeLossesAgree) {
  const StreamFixture fx(5);
  const KruskalTensor prev = DecomposeFirst(fx, Opts());
  DecompositionOptions reuse = Opts(3, 5);
  DecompositionOptions recompute = reuse;
  recompute.reuse_intermediates = false;
  const AlsResult a =
      DynamicTensorDecomposition(fx.delta, fx.old_dims, prev, reuse);
  const AlsResult b =
      DynamicTensorDecomposition(fx.delta, fx.old_dims, prev, recompute);
  ASSERT_EQ(a.loss_history.size(), b.loss_history.size());
  for (size_t i = 0; i < a.loss_history.size(); ++i) {
    const double scale = std::max(1.0, a.loss_history[i]);
    EXPECT_NEAR(a.loss_history[i], b.loss_history[i], 1e-8 * scale);
  }
}

TEST(DtdTest, GrowthInSingleModeOnly) {
  // Traditional one-mode streaming is a special case of multi-aspect.
  const StreamFixture fx(6, {20, 16, 12}, {14, 16, 12});
  const KruskalTensor prev = DecomposeFirst(fx, Opts());
  const AlsResult result =
      DynamicTensorDecomposition(fx.delta, fx.old_dims, prev, Opts(3, 12));
  EXPECT_GT(result.factors.Fit(fx.full), 0.85);
}

TEST(DtdTest, NoGrowthAtAllStillRefines) {
  // old_dims == new dims: the delta is empty; DTD just keeps the previous
  // factors consistent (A^(1) parts are empty matrices).
  const StreamFixture fx(7, {10, 10, 10}, {10, 10, 10});
  EXPECT_EQ(fx.delta.nnz(), 0u);
  const KruskalTensor prev = DecomposeFirst(fx, Opts());
  const AlsResult result =
      DynamicTensorDecomposition(fx.delta, fx.old_dims, prev, Opts(3, 3));
  EXPECT_EQ(result.factors.dims(), fx.full.dims());
  for (double loss : result.loss_history) {
    EXPECT_TRUE(std::isfinite(loss));
  }
}

TEST(DtdTest, EmptyDeltaKeepsPreviousFactorsFixed) {
  // With no growth and no new non-zeros, Ã is a stationary point of Eq. 4
  // for every μ: the update a0 <- Ã·HadH·(μ·HadG0)⁻¹·μ reproduces Ã when
  // the products are initialized from Ã itself.
  const StreamFixture fx(8, {12, 10, 8}, {12, 10, 8});
  ASSERT_EQ(fx.delta.nnz(), 0u);
  const KruskalTensor prev = DecomposeFirst(fx, Opts());
  for (double mu : {0.2, 0.8, 1.0}) {
    DecompositionOptions options = Opts(3, 4);
    options.mu = mu;
    const AlsResult result =
        DynamicTensorDecomposition(fx.delta, fx.old_dims, prev, options);
    for (size_t n = 0; n < 3; ++n) {
      EXPECT_TRUE(result.factors.factor(n).AllClose(prev.factor(n), 1e-6))
          << "mu=" << mu << " mode=" << n;
    }
  }
}

TEST(DtdTest, FourthOrderStreamingWorks) {
  const SparseTensor full =
      test::MakeDenseLowRank({10, 8, 8, 6}, 2, 9).tensor;
  const std::vector<uint64_t> old_dims = {8, 6, 6, 5};
  const SparseTensor first = RestrictToBox(full, old_dims);
  const SparseTensor delta = RelativeComplement(full, old_dims);

  DecompositionOptions cold = Opts(3, 25);
  const KruskalTensor prev = CpAls(first, cold).factors;
  const AlsResult result =
      DynamicTensorDecomposition(delta, old_dims, prev, Opts(3, 15));
  EXPECT_GT(result.factors.Fit(full), 0.8);
}

TEST(DtdTest, ToleranceStopsEarly) {
  const StreamFixture fx(10);
  const KruskalTensor prev = DecomposeFirst(fx, Opts());
  DecompositionOptions options = Opts(3, 50);
  options.tolerance = 1e-3;
  const AlsResult result =
      DynamicTensorDecomposition(fx.delta, fx.old_dims, prev, options);
  EXPECT_LT(result.iterations, 50u);
}

TEST(DtdUpdateRowsTest, ChunkFusedGramPartialsEqualOneCallPerPartition) {
  constexpr size_t kRank = 10;
  constexpr size_t kRows = 120;
  constexpr size_t kOldRows = 70;
  Rng rng(21);
  const Matrix prev = Matrix::RandomGaussian(kOldRows, kRank, rng);
  const Matrix mttkrp = Matrix::RandomGaussian(kRows, kRank, rng);
  const Matrix start = Matrix::RandomGaussian(kRows, kRank, rng);
  // A partition's ascending rows with gaps: 47 old rows (a full 32-row
  // chunk and a partial one), then 33 new rows (likewise).
  std::vector<uint64_t> rows;
  for (uint64_t r = 0; r < kRows; ++r) {
    if (r % 3 != 1) rows.push_back(r);
  }
  const size_t num_old = static_cast<size_t>(
      std::lower_bound(rows.begin(), rows.end(), uint64_t{kOldRows}) -
      rows.begin());
  ASSERT_EQ(num_old, 47u);
  // The partials already hold another partition's rows.
  const Matrix seed_g0 = Matrix::RandomGaussian(kRank, kRank, rng);
  const Matrix seed_h = Matrix::RandomGaussian(kRank, kRank, rng);
  const Matrix seed_g1 = Matrix::RandomGaussian(kRank, kRank, rng);
  DtdModeSystems sys;
  sys.mu = 0.8;
  sys.had_h_t = Matrix::RandomGaussian(kRank, kRank, rng);
  for (Matrix* lower : {&sys.lower_old, &sys.lower_new}) {
    const Matrix basis = Matrix::Random(2 * kRank, kRank, rng);
    *lower = FactorNormalEquations(TransposeTimes(basis, basis));
  }
  // Second round: the new-row system failed, so new rows get the zero
  // update, whose Gram terms still count.
  for (bool new_system_failed : {false, true}) {
    if (new_system_failed) sys.lower_new = Matrix();
    for (size_t b = 0; b < kernels::kNumBackends; ++b) {
      const auto backend = static_cast<kernels::Backend>(b);
      if (!kernels::Supported(backend)) continue;
      const kernels::KernelTable& kern = kernels::Get(backend);
      Matrix fused = start;
      Matrix g0 = seed_g0, h = seed_h, g1 = seed_g1;
      const DtdGramPartials partials{&g0, &h, &g1};
      DtdUpdateRows(kern, sys, &prev, mttkrp, kOldRows, rows.data(),
                    rows.size(), &fused, &partials);
      Matrix plain = start;
      DtdUpdateRows(kern, sys, &prev, mttkrp, kOldRows, rows.data(),
                    rows.size(), &plain, nullptr);
      EXPECT_TRUE(fused == plain) << kernels::BackendName(backend);
      // One gram_rows call per partition and product, after the update.
      Matrix want_g0 = seed_g0, want_h = seed_h, want_g1 = seed_g1;
      kern.gram_rows(plain.data(), plain.data(), rows.data(), num_old, kRank,
                     want_g0.data());
      kern.gram_rows(prev.data(), plain.data(), rows.data(), num_old, kRank,
                     want_h.data());
      kern.gram_rows(plain.data(), plain.data(), rows.data() + num_old,
                     rows.size() - num_old, kRank, want_g1.data());
      for (size_t e = 0; e < kRank * kRank; ++e) {
        ASSERT_EQ(test::Bits(g0.data()[e]), test::Bits(want_g0.data()[e]))
            << kernels::BackendName(backend) << " g0 e=" << e;
        ASSERT_EQ(test::Bits(h.data()[e]), test::Bits(want_h.data()[e]))
            << kernels::BackendName(backend) << " h e=" << e;
        ASSERT_EQ(test::Bits(g1.data()[e]), test::Bits(want_g1.data()[e]))
            << kernels::BackendName(backend) << " g1 e=" << e;
      }
    }
  }
}

}  // namespace
}  // namespace dismastd
