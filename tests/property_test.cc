// Cross-cutting randomized property tests: these sweep random shapes,
// orders, worker counts and partitioners, and assert the end-to-end
// invariants that hold by construction of the algorithms.

#include <gtest/gtest.h>

#include <tuple>

#include "core/dismastd.h"
#include "core/dms_mg.h"
#include "core/dtd.h"
#include "partition/optimal.h"
#include "partition/stats.h"
#include "stream/generator.h"
#include "stream/snapshot.h"
#include "test_util.h"

namespace dismastd {
namespace {

struct RandomStream {
  SparseTensor full;
  SparseTensor first;
  SparseTensor delta;
  std::vector<uint64_t> old_dims;
  KruskalTensor prev;
};

RandomStream MakeRandomStream(uint64_t seed, size_t order) {
  Rng rng(seed);
  GeneratorOptions g;
  for (size_t m = 0; m < order; ++m) {
    g.dims.push_back(8 + rng.NextBounded(12));
  }
  g.nnz = 300 + rng.NextBounded(300);
  g.latent_rank = 2;
  g.noise_stddev = 0.1;
  g.seed = seed * 977;
  g.zipf_exponents.assign(order, 0.0);
  g.zipf_exponents[0] = rng.NextDouble(0.0, 1.2);

  RandomStream out;
  out.full = GenerateSparseTensor(g).tensor;
  for (size_t m = 0; m < order; ++m) {
    out.old_dims.push_back(
        std::max<uint64_t>(1, g.dims[m] * 3 / 4));
  }
  out.first = RestrictToBox(out.full, out.old_dims);
  out.delta = RelativeComplement(out.full, out.old_dims);
  DecompositionOptions cold;
  cold.rank = 2;
  cold.max_iterations = 8;
  cold.seed = seed;
  out.prev = CpAls(out.first, cold).factors;
  return out;
}

class EndToEndEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<size_t, uint32_t, uint64_t>> {
};

TEST_P(EndToEndEquivalenceTest, DistributedMatchesCentralizedEverywhere) {
  const auto [order, workers, seed] = GetParam();
  const RandomStream s = MakeRandomStream(seed, order);

  DistributedOptions options;
  options.als.rank = 2;
  options.als.max_iterations = 3;
  options.als.seed = seed + 5;
  options.num_workers = workers;

  for (PartitionerKind kind :
       {PartitionerKind::kGreedy, PartitionerKind::kMaxMin}) {
    options.partitioner = kind;
    const DistributedResult dist =
        DisMastdDecompose(s.delta, s.old_dims, s.prev, options);
    const AlsResult central =
        DynamicTensorDecomposition(s.delta, s.old_dims, s.prev, options.als);
    for (size_t n = 0; n < order; ++n) {
      EXPECT_TRUE(dist.als.factors.factor(n).AllClose(
          central.factors.factor(n), 1e-6))
          << "order=" << order << " workers=" << workers
          << " kind=" << PartitionerKindName(kind) << " mode=" << n;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EndToEndEquivalenceTest,
    ::testing::Combine(::testing::Values(2u, 3u, 4u),
                       ::testing::Values(1u, 3u, 6u),
                       ::testing::Values(11u, 22u)));

class PartitionInvariantTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PartitionInvariantTest, HeuristicsValidOnRandomTensors) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  GeneratorOptions g;
  g.dims = {5 + rng.NextBounded(40), 5 + rng.NextBounded(40),
            5 + rng.NextBounded(40)};
  g.nnz = 100 + rng.NextBounded(900);
  g.seed = seed;
  g.zipf_exponents = {rng.NextDouble(0.0, 1.5), 0.0, rng.NextDouble(0.0, 1.0)};
  const SparseTensor t = GenerateSparseTensor(g).tensor;
  for (uint32_t parts : {2u, 7u, 16u}) {
    for (PartitionerKind kind :
         {PartitionerKind::kGreedy, PartitionerKind::kMaxMin}) {
      const TensorPartitioning tp = PartitionTensor(kind, t, parts);
      for (size_t mode = 0; mode < t.order(); ++mode) {
        EXPECT_TRUE(tp.modes[mode].Validate(t.SliceNnzCounts(mode)).ok())
            << "seed=" << seed << " parts=" << parts << " mode=" << mode;
      }
      EXPECT_GE(MeanCvOverModes(tp), 0.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionInvariantTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

class MtpNeverLosesToGtpTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MtpNeverLosesToGtpTest, MaxLoadComparison) {
  // MTP (LPT) has a worst-case guarantee; GTP does not. On random skewed
  // histograms MTP's max load must never exceed GTP's.
  const uint64_t seed = GetParam();
  Rng rng(seed * 31);
  std::vector<uint64_t> hist(120);
  ZipfSampler sampler(hist.size(), 1.1);
  for (int draw = 0; draw < 4000; ++draw) ++hist[sampler.Sample(rng)];
  for (uint32_t parts : {4u, 10u, 15u}) {
    const auto gtp = PartitionMode(PartitionerKind::kGreedy, hist, parts);
    const auto mtp = PartitionMode(PartitionerKind::kMaxMin, hist, parts);
    EXPECT_LE(ComputeBalance(mtp).max_load, ComputeBalance(gtp).max_load)
        << "seed=" << seed << " parts=" << parts;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MtpNeverLosesToGtpTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

class StreamingChainTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StreamingChainTest, MultiStepChainStaysAccurate) {
  // Chain DTD across a 4-step stream and verify the final factors still fit
  // the final snapshot: streaming must not drift away from the data.
  const uint64_t seed = GetParam();
  SparseTensor full =
      test::MakeDenseLowRank({16, 14, 10}, 2, seed * 131).tensor;
  auto schedule = MakeGrowthSchedule(full.dims(), 0.7, 0.1, 4);
  const StreamingTensorSequence stream(std::move(full), std::move(schedule));

  DecompositionOptions options;
  options.rank = 3;
  options.max_iterations = 12;
  options.seed = seed;

  KruskalTensor prev;
  std::vector<uint64_t> prev_dims(3, 0);
  for (size_t t = 0; t < stream.num_steps(); ++t) {
    const SparseTensor delta = stream.DeltaAt(t);
    const AlsResult result =
        DynamicTensorDecomposition(delta, prev_dims, prev, options);
    prev = result.factors;
    prev_dims = stream.DimsAt(t);
  }
  const SparseTensor final_snapshot = stream.SnapshotAt(stream.num_steps() - 1);
  EXPECT_GT(prev.Fit(final_snapshot), 0.8) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamingChainTest,
                         ::testing::Values(1u, 2u, 3u));

TEST(TheoremFourTest, CommunicationBoundedByModelTerms) {
  // Empirically check Theorem 4's shape: total communication is
  // O(nnz(delta) + M N R² + N I R + N d R), with a generous constant.
  const RandomStream s = MakeRandomStream(99, 3);
  DistributedOptions options;
  options.als.rank = 2;  // must match the fixture's cold-start rank
  options.als.max_iterations = 3;
  options.num_workers = 5;
  const DistributedResult result =
      DisMastdDecompose(s.delta, s.old_dims, s.prev, options);

  const double nnz_term = static_cast<double>(s.delta.nnz()) * 32.0;
  double dim_sum = 0.0;
  for (uint64_t d : s.delta.dims()) dim_sum += static_cast<double>(d);
  const double r = static_cast<double>(options.als.rank);
  const double m = options.num_workers;
  const double n = 3.0;
  const double iters = 3.0;
  // Per iteration: per-mode row fetches bounded by N·I·R doubles plus the
  // M² N R² reduction traffic (3 reduced matrices per mode).
  const double bound =
      nnz_term * n + dim_sum * r * 8.0 * n +
      iters * (n * dim_sum * r * 16.0 + 4.0 * n * m * m * r * r * 8.0 +
               m * m * 64.0) +
      1e5;
  EXPECT_LT(static_cast<double>(result.metrics.comm_bytes), bound);
}

}  // namespace
}  // namespace dismastd
