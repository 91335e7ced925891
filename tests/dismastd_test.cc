#include "core/dismastd.h"

#include <gtest/gtest.h>

#include <cmath>

#include <tuple>

#include "core/dtd.h"
#include "stream/generator.h"
#include "stream/snapshot.h"
#include "test_util.h"

namespace dismastd {
namespace {

struct StreamFixture {
  SparseTensor full;
  SparseTensor first;
  SparseTensor delta;
  std::vector<uint64_t> old_dims;
  KruskalTensor prev;

  explicit StreamFixture(uint64_t seed) {
    full = test::MakeDenseLowRank({24, 18, 12}, 2, seed, 0.05).tensor;
    old_dims = {18, 14, 9};
    first = RestrictToBox(full, old_dims);
    delta = RelativeComplement(full, old_dims);

    DecompositionOptions cold;
    cold.rank = 3;
    cold.max_iterations = 20;
    prev = CpAls(first, cold).factors;
  }
};

DistributedOptions DistOpts(uint32_t workers, PartitionerKind kind,
                            uint32_t parts = 0) {
  DistributedOptions o;
  o.als.rank = 3;
  o.als.max_iterations = 5;
  o.partitioner = kind;
  o.num_workers = workers;
  o.parts_per_mode = parts;
  return o;
}

void ExpectFactorsClose(const KruskalTensor& a, const KruskalTensor& b,
                        double atol) {
  ASSERT_EQ(a.order(), b.order());
  for (size_t n = 0; n < a.order(); ++n) {
    EXPECT_TRUE(a.factor(n).AllClose(b.factor(n), atol)) << "mode " << n;
  }
}

TEST(DisMastdTest, MatchesCentralizedDtdSingleWorker) {
  const StreamFixture fx(1);
  const DistributedOptions options = DistOpts(1, PartitionerKind::kGreedy);
  const DistributedResult dist =
      DisMastdDecompose(fx.delta, fx.old_dims, fx.prev, options);
  const AlsResult central =
      DynamicTensorDecomposition(fx.delta, fx.old_dims, fx.prev, options.als);
  ExpectFactorsClose(dist.als.factors, central.factors, 1e-9);
  ASSERT_EQ(dist.als.loss_history.size(), central.loss_history.size());
  for (size_t i = 0; i < central.loss_history.size(); ++i) {
    const double scale = std::max(1.0, central.loss_history[i]);
    EXPECT_NEAR(dist.als.loss_history[i], central.loss_history[i],
                1e-9 * scale);
  }
}

class DisMastdEquivalenceTest
    : public ::testing::TestWithParam<
          std::tuple<uint32_t, PartitionerKind, uint32_t, size_t>> {};

TEST_P(DisMastdEquivalenceTest, DistributedEqualsCentralized) {
  const auto [workers, kind, parts, threads] = GetParam();
  const StreamFixture fx(2);
  DistributedOptions options = DistOpts(workers, kind, parts);
  options.execution.num_threads = threads;
  const DistributedResult dist =
      DisMastdDecompose(fx.delta, fx.old_dims, fx.prev, options);
  const AlsResult central =
      DynamicTensorDecomposition(fx.delta, fx.old_dims, fx.prev, options.als);
  // Summation orders differ across partitions; results agree to fp noise.
  ExpectFactorsClose(dist.als.factors, central.factors, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DisMastdEquivalenceTest,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 7u),
                       ::testing::Values(PartitionerKind::kGreedy,
                                         PartitionerKind::kMaxMin),
                       ::testing::Values(0u, 9u),
                       ::testing::Values(size_t{1}, size_t{3})));

TEST(DisMastdTest, TracksFullTensor) {
  const StreamFixture fx(3);
  DistributedOptions options = DistOpts(4, PartitionerKind::kMaxMin);
  options.als.max_iterations = 12;
  const DistributedResult result =
      DisMastdDecompose(fx.delta, fx.old_dims, fx.prev, options);
  EXPECT_GT(result.als.factors.Fit(fx.full), 0.8);
}

TEST(DisMastdTest, MetricsArePopulated) {
  const StreamFixture fx(4);
  const DistributedOptions options = DistOpts(4, PartitionerKind::kMaxMin);
  const DistributedResult result =
      DisMastdDecompose(fx.delta, fx.old_dims, fx.prev, options);
  const StreamStepMetrics& m = result.metrics;
  EXPECT_GT(m.sim_seconds_total, 0.0);
  EXPECT_GT(m.sim_seconds_partitioning, 0.0);
  EXPECT_LT(m.sim_seconds_partitioning, m.sim_seconds_total);
  ASSERT_EQ(m.sim_seconds_per_sweep.size(), 5u);
  for (double s : m.sim_seconds_per_sweep) EXPECT_GT(s, 0.0);
  EXPECT_GT(m.sim_seconds_per_iteration, 0.0);
  EXPECT_GT(m.comm_bytes, 0u);
  EXPECT_GT(m.comm_messages, 0u);
  EXPECT_GT(m.flops, 0u);
  EXPECT_GT(m.wall_seconds, 0.0);
  ASSERT_EQ(m.balance_per_mode.size(), 3u);
  // Phase breakdown: each phase positive and the phases account for the
  // iteration time (everything after partitioning + initial products).
  EXPECT_GT(m.sim_seconds_mttkrp_update, 0.0);
  EXPECT_GT(m.sim_seconds_gram_reduce, 0.0);
  EXPECT_GT(m.sim_seconds_loss, 0.0);
  double iteration_total = 0.0;
  for (double s : m.sim_seconds_per_sweep) iteration_total += s;
  EXPECT_NEAR(m.sim_seconds_mttkrp_update + m.sim_seconds_gram_reduce +
                  m.sim_seconds_loss,
              iteration_total, 1e-9);
}

TEST(DisMastdTest, SingleWorkerHasNoRemoteTraffic) {
  const StreamFixture fx(5);
  const DistributedOptions options = DistOpts(1, PartitionerKind::kGreedy);
  const DistributedResult result =
      DisMastdDecompose(fx.delta, fx.old_dims, fx.prev, options);
  // All reductions and fetches are local on a 1-worker cluster.
  EXPECT_EQ(result.metrics.comm_bytes, 0u);
}

TEST(DisMastdTest, MoreWorkersCutSimulatedComputeTime) {
  // On the uniform large-ish delta, 8 workers must beat 1 worker on the
  // per-iteration simulated time (compute dominates at zero startup cost).
  GeneratorOptions g;
  g.dims = {60, 60, 60};
  g.nnz = 8000;
  g.seed = 11;
  const SparseTensor full = GenerateSparseTensor(g).tensor;
  const std::vector<uint64_t> old_dims = {45, 45, 45};
  const SparseTensor delta = RelativeComplement(full, old_dims);
  DecompositionOptions cold;
  cold.rank = 3;
  cold.max_iterations = 5;
  const KruskalTensor prev =
      CpAls(RestrictToBox(full, old_dims), cold).factors;

  DistributedOptions one = DistOpts(1, PartitionerKind::kMaxMin);
  one.cost_model.task_startup_seconds = 0.0;
  one.cost_model.latency_seconds = 0.0;
  // Isolate the compute term: at this tensor size the bandwidth term would
  // otherwise swamp it (the real crossover the paper's Fig. 7 discussion
  // attributes to startup costs on small datasets).
  one.cost_model.bandwidth_bytes_per_second = 1.0e18;
  DistributedOptions eight = one;
  eight.num_workers = 8;
  const DistributedResult r1 = DisMastdDecompose(delta, old_dims, prev, one);
  const DistributedResult r8 =
      DisMastdDecompose(delta, old_dims, prev, eight);
  EXPECT_LT(r8.metrics.sim_seconds_per_iteration,
            r1.metrics.sim_seconds_per_iteration);
}

TEST(DisMastdTest, ReuseAblationCostsMoreWhenDisabled) {
  const StreamFixture fx(6);
  DistributedOptions reuse = DistOpts(4, PartitionerKind::kMaxMin);
  DistributedOptions recompute = reuse;
  recompute.als.reuse_intermediates = false;
  const DistributedResult a =
      DisMastdDecompose(fx.delta, fx.old_dims, fx.prev, reuse);
  const DistributedResult b =
      DisMastdDecompose(fx.delta, fx.old_dims, fx.prev, recompute);
  EXPECT_GT(b.metrics.flops, a.metrics.flops);
  EXPECT_GE(b.metrics.sim_seconds_total, a.metrics.sim_seconds_total);
  // Same math either way.
  for (size_t i = 0; i < a.als.loss_history.size(); ++i) {
    const double scale = std::max(1.0, a.als.loss_history[i]);
    EXPECT_NEAR(a.als.loss_history[i], b.als.loss_history[i], 1e-7 * scale);
  }
}

TEST(DisMastdTest, EmptyDeltaStillRuns) {
  const StreamFixture fx(7);
  const SparseTensor empty_delta(fx.first.dims());
  const std::vector<uint64_t> old_dims = fx.first.dims();
  const KruskalTensor prev = fx.prev;
  const DistributedOptions options = DistOpts(3, PartitionerKind::kMaxMin);
  const DistributedResult result =
      DisMastdDecompose(empty_delta, old_dims, prev, options);
  for (double loss : result.als.loss_history) {
    EXPECT_TRUE(std::isfinite(loss));
  }
}

TEST(DisMastdTest, MorePartitionsThanWorkersStillCorrect) {
  const StreamFixture fx(8);
  const DistributedOptions options =
      DistOpts(3, PartitionerKind::kMaxMin, /*parts=*/11);
  const DistributedResult dist =
      DisMastdDecompose(fx.delta, fx.old_dims, fx.prev, options);
  const AlsResult central =
      DynamicTensorDecomposition(fx.delta, fx.old_dims, fx.prev, options.als);
  ExpectFactorsClose(dist.als.factors, central.factors, 1e-7);
}

TEST(DisMastdTest, CommunicationGrowsWithWorkers) {
  // Theorem 4: the M N R² reduction term grows with the worker count.
  const StreamFixture fx(9);
  const DistributedResult small = DisMastdDecompose(
      fx.delta, fx.old_dims, fx.prev, DistOpts(2, PartitionerKind::kMaxMin));
  const DistributedResult large = DisMastdDecompose(
      fx.delta, fx.old_dims, fx.prev, DistOpts(8, PartitionerKind::kMaxMin));
  EXPECT_GT(large.metrics.comm_bytes,
            small.metrics.comm_bytes);
}

}  // namespace
}  // namespace dismastd
