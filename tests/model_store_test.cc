#include "serve/model_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

#include "core/driver.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "serve/query_engine.h"
#include "serve/serve_session.h"
#include "stream/generator.h"
#include "tensor/checkpoint.h"

namespace dismastd {
namespace serve {
namespace {

KruskalTensor MakeFactors(uint64_t seed, std::vector<uint64_t> dims = {6, 5, 4},
                          size_t rank = 2) {
  Rng rng(seed);
  std::vector<Matrix> factors;
  for (uint64_t d : dims) {
    factors.push_back(Matrix::Random(static_cast<size_t>(d), rank, rng));
  }
  return KruskalTensor(std::move(factors));
}

TEST(ModelStoreTest, EmptyStoreServesNothing) {
  ModelStore store;
  EXPECT_EQ(store.Current(), nullptr);
  EXPECT_EQ(store.Version(1), nullptr);
  EXPECT_EQ(store.num_published(), 0u);
  EXPECT_TRUE(store.RetainedVersions().empty());
}

TEST(ModelStoreTest, PublishAssignsMonotonicVersions) {
  ModelStore store;
  EXPECT_EQ(store.Publish(MakeFactors(1), 0), 1u);
  EXPECT_EQ(store.Publish(MakeFactors(2), 1), 2u);
  EXPECT_EQ(store.Publish(MakeFactors(3), 2), 3u);
  EXPECT_EQ(store.num_published(), 3u);
  ASSERT_NE(store.Current(), nullptr);
  EXPECT_EQ(store.Current()->version(), 3u);
  EXPECT_EQ(store.Current()->step(), 2u);
}

TEST(ModelStoreTest, KeepDepthRetiresOldVersions) {
  ModelStoreOptions options;
  options.keep_depth = 2;
  ModelStore store(options);
  for (uint64_t v = 1; v <= 5; ++v) store.Publish(MakeFactors(v), v - 1);
  EXPECT_EQ(store.RetainedVersions(), (std::vector<uint64_t>{4, 5}));
  EXPECT_EQ(store.Version(3), nullptr);
  ASSERT_NE(store.Version(4), nullptr);
  EXPECT_EQ(store.Version(4)->version(), 4u);
  EXPECT_EQ(store.Version(5)->version(), 5u);
}

TEST(ModelStoreTest, RetiredVersionStaysAliveForInFlightReaders) {
  ModelStoreOptions options;
  options.keep_depth = 1;
  ModelStore store(options);
  store.Publish(MakeFactors(1), 0);
  std::shared_ptr<const ServableModel> pinned = store.Current();
  store.Publish(MakeFactors(2), 1);
  EXPECT_EQ(store.Version(1), nullptr);  // retired from the store...
  // ...but the in-flight reader's snapshot is still fully usable.
  EXPECT_EQ(pinned->version(), 1u);
  EXPECT_EQ(pinned->ComputeFingerprint(), pinned->fingerprint());
}

TEST(ModelStoreTest, PublishToExportsRetentionGauges) {
  ModelStoreOptions options;
  options.keep_depth = 2;
  ModelStore store(options);
  for (uint64_t v = 1; v <= 5; ++v) store.Publish(MakeFactors(v), v - 1);

  obs::MetricRegistry registry;
  store.PublishTo(&registry);
  const std::string prom = registry.ExposePrometheus();
  EXPECT_NE(prom.find("dismastd_store_publishes_total 5"), std::string::npos);
  EXPECT_NE(prom.find("dismastd_store_retained_versions 2"),
            std::string::npos);

  // Additive counter, level gauge: re-publishing refreshes both.
  store.Publish(MakeFactors(6), 5);
  store.PublishTo(&registry);
  const std::string again = registry.ExposePrometheus();
  EXPECT_NE(again.find("dismastd_store_publishes_total 6"),
            std::string::npos);
  EXPECT_NE(again.find("dismastd_store_retained_versions 2"),
            std::string::npos);
}

TEST(ModelStoreTest, PublishReusesAnnCodesForUnchangedRows) {
  // Successive publishes where only one row moves: the RCU snapshot chain
  // hands the previous model to Build, so the LSH index patches instead of
  // rehashing the world.
  ModelStore store;
  KruskalTensor factors = MakeFactors(31, {40, 30, 20}, 3);
  store.Publish(factors, 0);
  ASSERT_NE(store.Current()->ann_index(), nullptr);

  // Shrink (not grow) one entry so the mode's max augmentation norm cannot
  // increase — growth would legitimately rehash the whole mode.
  factors.mutable_factor(0)(7, 1) *= 0.5;
  store.Publish(factors, 1);
  const auto& index = *store.Current()->ann_index();
  EXPECT_EQ(index.hashed_rows(), 1u);
  EXPECT_EQ(index.reused_rows(), 40u + 30u + 20u - 1u);
}

TEST(ModelStoreTest, WarmStartFromCheckpoint) {
  StreamCheckpoint checkpoint;
  checkpoint.factors = MakeFactors(9);
  checkpoint.dims = {6, 5, 4};
  checkpoint.step = 11;
  ModelStore store;
  Result<uint64_t> version = store.WarmStart(checkpoint);
  ASSERT_TRUE(version.ok()) << version.status();
  EXPECT_EQ(version.value(), 1u);
  ASSERT_NE(store.Current(), nullptr);
  EXPECT_EQ(store.Current()->step(), 11u);
}

TEST(ModelStoreTest, WarmStartRejectsInconsistentCheckpoint) {
  StreamCheckpoint checkpoint;
  checkpoint.factors = MakeFactors(10);
  checkpoint.dims = {6, 5, 999};
  ModelStore store;
  EXPECT_FALSE(store.WarmStart(checkpoint).ok());
  EXPECT_EQ(store.Current(), nullptr);
}

TEST(ModelStoreTest, SessionWarmStartFromCheckpointFile) {
  StreamCheckpoint checkpoint;
  checkpoint.factors = MakeFactors(12);
  checkpoint.dims = {6, 5, 4};
  checkpoint.step = 3;
  const std::string path =
      std::string(::testing::TempDir()) + "/warm.ckpt";
  ASSERT_TRUE(WriteStreamCheckpointFile(checkpoint, path).ok());

  ServeSessionOptions options;
  options.num_query_threads = 1;
  ServeSession session(options);
  Result<uint64_t> version = session.WarmStartFromCheckpointFile(path);
  ASSERT_TRUE(version.ok()) << version.status();
  Result<double> value = session.engine().Predict({0, 0, 0});
  EXPECT_TRUE(value.ok());
  std::remove(path.c_str());
}

/// Brute-force top-K oracle over one pinned model snapshot: sequentially
/// rescores every candidate and fully sorts, where the kernel under test
/// uses a partial sort. Scoring arithmetic is shared (CombinationWeights)
/// so the comparison is exact; the reader separately cross-checks scores
/// against ValueAt with a tolerance (different evaluation order, so bit
/// equality is not guaranteed there).
std::vector<ScoredIndex> BruteForceTopK(const ServableModel& model,
                                        size_t target_mode,
                                        const std::vector<uint64_t>& anchor,
                                        size_t k) {
  const std::vector<double> weights =
      model.CombinationWeights(target_mode, anchor);
  const Matrix& target = model.factors().factor(target_mode);
  std::vector<ScoredIndex> scored;
  // Score through the canonical kernel dot so the comparison below can be
  // exact: the scan and this rescore share the blocked-8 reduction order.
  for (uint64_t j = 0; j < model.dims()[target_mode]; ++j) {
    const double score = kernels::Get().dot_strided(
        target.RowPtr(static_cast<size_t>(j)), 1, weights.data(), 1,
        model.rank());
    scored.push_back({j, score});
  }
  std::sort(scored.begin(), scored.end(),
            [](const ScoredIndex& a, const ScoredIndex& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.index < b.index;
            });
  scored.resize(std::min<size_t>(k, scored.size()));
  return scored;
}

// The serving acceptance scenario: a streamed decomposition publishes a
// sequence of model versions while concurrent readers hammer the store
// with point and top-K queries. Every reader asserts, per query, that
//  (a) it observed exactly one fully-published version: the snapshot's
//      content fingerprint recomputed from the factor bytes matches the
//      one stamped at Build time, and version metadata is in range, and
//  (b) the store's top-K answer equals a sequential brute-force rescore
//      against that same snapshot.
// Run under tools/check_tsan.sh, this is also the no-data-race proof.
TEST(ModelStoreTest, ConcurrentReadersDuringStreamedPublication) {
  GeneratorOptions gen;
  gen.dims = {40, 24, 12};
  gen.nnz = 1500;
  gen.latent_rank = 2;
  gen.seed = 21;
  SparseTensor full = GenerateSparseTensor(gen).tensor;
  auto schedule = MakeGrowthSchedule(full.dims(), 0.6, 0.1, 5);
  const StreamingTensorSequence stream(std::move(full),
                                       std::move(schedule));

  DistributedOptions options;
  options.als.rank = 3;
  options.als.max_iterations = 2;
  options.num_workers = 4;

  ServeSessionOptions session_options;
  session_options.store.keep_depth = 3;
  session_options.num_query_threads = 1;  // readers are OS threads below
  ServeSession session(session_options);

  constexpr size_t kReaders = 4;
  constexpr size_t kMinVerifiedPerReader = 25;
  std::atomic<bool> publishing_done{false};
  std::atomic<uint64_t> torn_reads{0};
  std::atomic<uint64_t> topk_mismatches{0};
  std::atomic<uint64_t> query_failures{0};
  std::vector<uint64_t> verified(kReaders, 0);

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(1000 + r);
      while (!publishing_done.load(std::memory_order_acquire) ||
             verified[r] < kMinVerifiedPerReader) {
        const std::shared_ptr<const ServableModel> model =
            session.store().Current();
        if (model == nullptr) continue;  // before the first publish

        // (a) Fully-published check: content hash over every factor byte
        // of this snapshot matches the hash stamped when it was built.
        if (model->ComputeFingerprint() != model->fingerprint() ||
            model->version() == 0 ||
            model->version() > session.store().num_published()) {
          torn_reads.fetch_add(1);
          continue;
        }

        // Point query through the engine (validates + records metrics).
        std::vector<uint64_t> index(model->order());
        for (size_t n = 0; n < model->order(); ++n) {
          index[n] = rng.NextBounded(model->dims()[n]);
        }
        const Result<double> value = session.engine().Predict(index);
        if (!value.ok()) {
          query_failures.fetch_add(1);
          continue;
        }

        // (b) Top-K from this snapshot equals the brute-force rescore
        // against the same snapshot.
        std::vector<uint64_t> anchor = index;
        anchor[1] = 0;
        const auto got = model->TopK(1, anchor, 5).items;
        const auto expected = BruteForceTopK(*model, 1, anchor, 5);
        if (got != expected) {
          topk_mismatches.fetch_add(1);
          continue;
        }
        // Cross-check the winner's score against the independent ValueAt
        // path (tolerance: different fp evaluation order).
        anchor[1] = got[0].index;
        if (std::abs(got[0].score -
                     model->factors().ValueAt(anchor.data())) > 1e-9) {
          topk_mismatches.fetch_add(1);
          continue;
        }
        ++verified[r];
      }
    });
  }

  // The publisher: a real streamed decomposition on this thread, pushing
  // every step's factors through the session observer.
  const auto metrics =
      RunStreamingExperiment(stream, MethodKind::kDisMastd, options,
                             /*compute_fit=*/false,
                             session.PublishObserver());
  publishing_done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(metrics.size(), 5u);
  EXPECT_GE(session.store().num_published(), 3u);
  EXPECT_EQ(torn_reads.load(), 0u);
  EXPECT_EQ(topk_mismatches.load(), 0u);
  EXPECT_EQ(query_failures.load(), 0u);
  for (size_t r = 0; r < kReaders; ++r) {
    EXPECT_GE(verified[r], kMinVerifiedPerReader) << "reader " << r;
  }
  // Staleness accounting saw the publishes land.
  const ServeMetricsReport report = session.metrics().Report();
  EXPECT_GE(report.queries_total,
            static_cast<uint64_t>(kReaders * kMinVerifiedPerReader));
}

}  // namespace
}  // namespace serve
}  // namespace dismastd
