#include "core/dms_mg.h"

#include <gtest/gtest.h>

#include "core/cp_als.h"
#include "stream/generator.h"
#include "test_util.h"

namespace dismastd {
namespace {

SparseTensor MakeTensor(uint64_t seed, uint64_t nnz = 800) {
  GeneratorOptions g;
  g.dims = {25, 20, 15};
  g.nnz = nnz;
  g.latent_rank = 2;
  g.noise_stddev = 0.05;
  g.seed = seed;
  return GenerateSparseTensor(g).tensor;
}

DistributedOptions DistOpts(uint32_t workers, PartitionerKind kind) {
  DistributedOptions o;
  o.als.rank = 3;
  o.als.max_iterations = 5;
  o.partitioner = kind;
  o.num_workers = workers;
  return o;
}

TEST(DmsMgTest, MatchesCentralizedCpAls) {
  const SparseTensor x = MakeTensor(1);
  const DistributedOptions options = DistOpts(4, PartitionerKind::kMaxMin);
  const DistributedResult dist = DmsMgDecompose(x, options);
  const AlsResult central = CpAls(x, options.als);
  for (size_t n = 0; n < 3; ++n) {
    EXPECT_TRUE(
        dist.als.factors.factor(n).AllClose(central.factors.factor(n), 1e-7))
        << "mode " << n;
  }
}

TEST(DmsMgTest, BothPartitionersGiveSameMath) {
  const SparseTensor x = MakeTensor(2);
  const DistributedResult gtp =
      DmsMgDecompose(x, DistOpts(4, PartitionerKind::kGreedy));
  const DistributedResult mtp =
      DmsMgDecompose(x, DistOpts(4, PartitionerKind::kMaxMin));
  for (size_t n = 0; n < 3; ++n) {
    EXPECT_TRUE(gtp.als.factors.factor(n).AllClose(
        mtp.als.factors.factor(n), 1e-7));
  }
}

TEST(DmsMgTest, CostScalesWithNnz) {
  // The paper's key contrast (Fig. 5): DMS-MG's per-iteration work is
  // proportional to the full snapshot's nnz.
  const SparseTensor small = MakeTensor(3, 400);
  const SparseTensor large = MakeTensor(3, 1600);
  const DistributedOptions options = DistOpts(4, PartitionerKind::kMaxMin);
  const DistributedResult rs = DmsMgDecompose(small, options);
  const DistributedResult rl = DmsMgDecompose(large, options);
  EXPECT_GT(rl.metrics.flops, 2 * rs.metrics.flops);
}

TEST(DmsMgTest, ConvergesOnLowRankData) {
  const SparseTensor x =
      test::MakeDenseLowRank({15, 12, 10}, 2, 4, 0.05).tensor;
  DistributedOptions options = DistOpts(4, PartitionerKind::kMaxMin);
  options.als.max_iterations = 15;
  const DistributedResult result = DmsMgDecompose(x, options);
  EXPECT_GT(result.als.factors.Fit(x), 0.8);
}

TEST(DmsMgTest, LossHistoryIsMonotone) {
  const SparseTensor x = MakeTensor(5);
  const DistributedResult result =
      DmsMgDecompose(x, DistOpts(3, PartitionerKind::kGreedy));
  for (size_t i = 1; i < result.als.loss_history.size(); ++i) {
    EXPECT_LE(result.als.loss_history[i],
              result.als.loss_history[i - 1] + 1e-6);
  }
}

TEST(DmsMgTest, BalanceMetricsReported) {
  const SparseTensor x = MakeTensor(6);
  const DistributedResult result =
      DmsMgDecompose(x, DistOpts(5, PartitionerKind::kMaxMin));
  ASSERT_EQ(result.metrics.balance_per_mode.size(), 3u);
  for (const PartitionBalance& b : result.metrics.balance_per_mode) {
    EXPECT_GE(b.imbalance, 1.0);
  }
}

}  // namespace
}  // namespace dismastd
