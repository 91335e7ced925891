#include "serve/query_engine.h"

#include <gtest/gtest.h>

#include <set>

#include "serve/query_log.h"

namespace dismastd {
namespace serve {
namespace {

KruskalTensor MakeFactors(uint64_t seed,
                          std::vector<uint64_t> dims = {10, 8, 6},
                          size_t rank = 3) {
  Rng rng(seed);
  std::vector<Matrix> factors;
  for (uint64_t d : dims) {
    factors.push_back(Matrix::Random(static_cast<size_t>(d), rank, rng));
  }
  return KruskalTensor(std::move(factors));
}

class QueryEngineTest : public ::testing::Test {
 protected:
  QueryEngineTest() : engine_(&store_, nullptr, &metrics_) {
    store_.Publish(MakeFactors(1), 0);
  }

  ModelStore store_;
  ServeMetrics metrics_;
  QueryEngine engine_;
};

TEST_F(QueryEngineTest, PredictMatchesModel) {
  const auto model = store_.Current();
  const std::vector<uint64_t> index = {3, 5, 2};
  Result<double> value = engine_.Predict(index);
  ASSERT_TRUE(value.ok()) << value.status();
  EXPECT_EQ(value.value(), model->Predict(index.data()));
}

TEST_F(QueryEngineTest, PredictValidatesInput) {
  EXPECT_EQ(engine_.Predict({1, 2}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine_.Predict({10, 0, 0}).status().code(),
            StatusCode::kOutOfRange);
}

TEST_F(QueryEngineTest, EmptyStoreIsFailedPrecondition) {
  ModelStore empty;
  QueryEngine engine(&empty);
  EXPECT_EQ(engine.Predict({0, 0, 0}).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.PredictBatch({{0, 0, 0}}).status().code(),
            StatusCode::kFailedPrecondition);
  TopKQuery query;
  query.anchor = {0, 0, 0};
  EXPECT_EQ(engine.TopK(query).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(QueryEngineTest, BatchMatchesIndividualPredictions) {
  Rng rng(7);
  std::vector<std::vector<uint64_t>> indices;
  for (size_t q = 0; q < 100; ++q) {
    indices.push_back(
        {rng.NextBounded(10), rng.NextBounded(8), rng.NextBounded(6)});
  }
  Result<std::vector<double>> batch = engine_.PredictBatch(indices);
  ASSERT_TRUE(batch.ok()) << batch.status();
  ASSERT_EQ(batch.value().size(), indices.size());
  for (size_t q = 0; q < indices.size(); ++q) {
    EXPECT_EQ(batch.value()[q], engine_.Predict(indices[q]).value());
  }
}

TEST_F(QueryEngineTest, BatchFailsOnAnyBadTuple) {
  EXPECT_EQ(
      engine_.PredictBatch({{0, 0, 0}, {0, 99, 0}}).status().code(),
      StatusCode::kOutOfRange);
}

TEST_F(QueryEngineTest, BatchShardsAcrossThreadPool) {
  ThreadPool pool(3);
  QueryEngine pooled(&store_, &pool);
  Rng rng(8);
  std::vector<std::vector<uint64_t>> indices;
  for (size_t q = 0; q < 4 * QueryEngine::kMinTuplesPerShard; ++q) {
    indices.push_back(
        {rng.NextBounded(10), rng.NextBounded(8), rng.NextBounded(6)});
  }
  Result<std::vector<double>> sharded = pooled.PredictBatch(indices);
  Result<std::vector<double>> inline_values = engine_.PredictBatch(indices);
  ASSERT_TRUE(sharded.ok());
  // Sharding changes the execution schedule, not the values.
  EXPECT_EQ(sharded.value(), inline_values.value());
}

TEST_F(QueryEngineTest, TopKMatchesModelKernel) {
  TopKQuery query;
  query.target_mode = 1;
  query.anchor = {4, 0, 3};
  query.k = 4;
  Result<std::vector<ScoredIndex>> top = engine_.TopK(query);
  ASSERT_TRUE(top.ok()) << top.status();
  EXPECT_EQ(top.value(), store_.Current()->TopK(1, query.anchor, 4));
}

TEST_F(QueryEngineTest, TopKValidatesQuery) {
  TopKQuery query;
  query.target_mode = 9;
  query.anchor = {0, 0, 0};
  EXPECT_EQ(engine_.TopK(query).status().code(),
            StatusCode::kInvalidArgument);
  query.target_mode = 1;
  query.anchor = {0, 0};
  EXPECT_EQ(engine_.TopK(query).status().code(),
            StatusCode::kInvalidArgument);
  query.anchor = {0, 0, 77};
  EXPECT_EQ(engine_.TopK(query).status().code(), StatusCode::kOutOfRange);
  // The anchor entry of the target mode is ignored, even out-of-range.
  query.k = 2;
  query.anchor = {0, 9999, 0};
  EXPECT_TRUE(engine_.TopK(query).ok());
}

TEST_F(QueryEngineTest, TopKBoundaryShapesAnswerCleanly) {
  // k = 0: a well-formed request for nothing, not an error — and it must
  // not scan any candidates.
  TopKQuery query;
  query.anchor = {0, 0, 0};
  query.k = 0;
  Result<TopKResult> none = engine_.TopKWithBound(query);
  ASSERT_TRUE(none.ok()) << none.status();
  EXPECT_TRUE(none.value().items.empty());
  EXPECT_EQ(none.value().rows_scored, 0u);

  // k >= J: every candidate comes back, ranked, exactly once.
  query.k = 1000;  // mode 1 has 8 rows
  Result<TopKResult> all = engine_.TopKWithBound(query);
  ASSERT_TRUE(all.ok()) << all.status();
  ASSERT_EQ(all.value().items.size(), 8u);
  for (size_t i = 1; i < all.value().items.size(); ++i) {
    EXPECT_GE(all.value().items[i - 1].score, all.value().items[i].score);
  }
  std::set<uint64_t> distinct;
  for (const ScoredIndex& item : all.value().items) {
    distinct.insert(item.index);
  }
  EXPECT_EQ(distinct.size(), 8u);

  // Same boundary shapes through the ANN path.
  query.search = SearchMode::kAnn;
  query.k = 0;
  Result<TopKResult> ann_none = engine_.TopKWithBound(query);
  ASSERT_TRUE(ann_none.ok()) << ann_none.status();
  EXPECT_TRUE(ann_none.value().items.empty());
  query.k = 1000;
  Result<TopKResult> ann_all = engine_.TopKWithBound(query);
  ASSERT_TRUE(ann_all.ok()) << ann_all.status();
  EXPECT_EQ(ann_all.value().items.size(), 8u);
}

TEST_F(QueryEngineTest, TopKOnZeroRowTargetModeIsEmpty) {
  // A mode with zero rows can exist mid-growth; queries against it must
  // return an empty list, not crash or error.
  ModelStore store;
  Rng rng(3);
  std::vector<Matrix> factors;
  factors.push_back(Matrix::Random(6, 3, rng));
  factors.push_back(Matrix(0, 3));
  factors.push_back(Matrix::Random(5, 3, rng));
  store.Publish(KruskalTensor(std::move(factors)), 0);
  QueryEngine engine(&store);
  TopKQuery query;
  query.target_mode = 1;
  query.anchor = {2, 0, 3};
  query.k = 4;
  for (SearchMode mode :
       {SearchMode::kExact, SearchMode::kAnn, SearchMode::kAnnCached}) {
    query.search = mode;
    Result<TopKResult> top = engine.TopKWithBound(query);
    ASSERT_TRUE(top.ok()) << SearchModeName(mode) << ": " << top.status();
    EXPECT_TRUE(top.value().items.empty()) << SearchModeName(mode);
  }
}

TEST_F(QueryEngineTest, AnnFullShortlistMatchesExactBitForBit) {
  // With probes large enough that the shortlist covers the whole mode, the
  // ANN path must reproduce the exact scan's answer bit-for-bit (same
  // kernels on the same rows).
  TopKQuery exact;
  exact.target_mode = 1;
  exact.anchor = {4, 0, 3};
  exact.k = 5;
  TopKQuery ann = exact;
  ann.search = SearchMode::kAnn;
  ann.probes = 100;  // 100 * 5 >= 8 rows -> full coverage
  Result<TopKResult> exact_top = engine_.TopKWithBound(exact);
  Result<TopKResult> ann_top = engine_.TopKWithBound(ann);
  ASSERT_TRUE(exact_top.ok());
  ASSERT_TRUE(ann_top.ok());
  EXPECT_EQ(ann_top.value().items, exact_top.value().items);
  EXPECT_EQ(ann_top.value().rows_scored, 8u);
}

TEST_F(QueryEngineTest, CachedSearchHitsAndNeverServesStaleVersions) {
  TopKResultCache cache(64);
  ServeMetrics metrics;
  QueryEngine engine(&store_, nullptr, &metrics, nullptr, &cache);
  TopKQuery query;
  query.target_mode = 1;
  query.anchor = {4, 0, 3};
  query.k = 3;
  query.search = SearchMode::kAnnCached;
  query.probes = 100;

  Result<TopKResult> first = engine.TopKWithBound(query);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_FALSE(first.value().from_cache);
  Result<TopKResult> second = engine.TopKWithBound(query);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().from_cache);
  EXPECT_EQ(second.value().rows_scored, 0u);
  EXPECT_EQ(second.value().items, first.value().items);

  // Publish a different model: the cached v1 answer must not come back.
  store_.Publish(MakeFactors(2), 1);
  const uint64_t fresh_fingerprint = store_.Current()->fingerprint();
  Result<TopKResult> after = engine.TopKWithBound(query);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.value().from_cache);
  // And the recomputed answer matches a from-scratch exact query against
  // the fresh model (full shortlist -> bit-exact).
  EXPECT_EQ(after.value().items,
            store_.Current()->TopK(1, query.anchor, 3));
  EXPECT_EQ(store_.Current()->fingerprint(), fresh_fingerprint);

  const ServeMetricsReport report = metrics.Report();
  EXPECT_EQ(report.cache_lookups, 3u);
  EXPECT_EQ(report.cache_hits, 1u);
  const ann::ResultCacheStats stats = cache.Stats();
  EXPECT_EQ(stats.stale_misses, 1u);
}

TEST_F(QueryEngineTest, CachedSearchWithoutCacheDegradesToAnn) {
  TopKQuery query;
  query.target_mode = 1;
  query.anchor = {4, 0, 3};
  query.k = 3;
  query.search = SearchMode::kAnnCached;
  query.probes = 100;
  Result<TopKResult> top = engine_.TopKWithBound(query);
  ASSERT_TRUE(top.ok()) << top.status();
  EXPECT_FALSE(top.value().from_cache);
  EXPECT_EQ(top.value().items, store_.Current()->TopK(1, query.anchor, 3));
}

TEST(QueryEngineAnswerTest, TopKAnswersKeepOnlyKItems) {
  // A top-K answer selected from 200 scored rows (exact) or a 30-row
  // shortlist (ann) must not carry the scan's buffer along.
  ModelStore store;
  store.Publish(MakeFactors(3, {200, 8, 6}), 0);
  TopKResultCache cache(64);
  QueryEngine engine(&store, nullptr, nullptr, nullptr, &cache);
  for (SearchMode mode :
       {SearchMode::kExact, SearchMode::kAnn, SearchMode::kAnnCached}) {
    TopKQuery query;
    query.target_mode = 0;
    query.anchor = {0, 4, 3};
    query.k = 3;
    query.search = mode;
    query.probes = 10;
    Result<TopKResult> top = engine.TopKWithBound(query);
    ASSERT_TRUE(top.ok()) << top.status();
    EXPECT_EQ(top.value().items.size(), 3u) << SearchModeName(mode);
    EXPECT_LE(top.value().items.capacity(), 3u) << SearchModeName(mode);
  }
}

TEST(QueryEngineAnswerTest, CacheKeysKeepTheFullKAndProbes) {
  ModelStore store;
  store.Publish(MakeFactors(4, {200, 8, 6}), 0);
  TopKResultCache cache(64);
  QueryEngine engine(&store, nullptr, nullptr, nullptr, &cache);
  TopKQuery query;
  query.target_mode = 0;
  query.anchor = {0, 4, 3};
  query.search = SearchMode::kAnnCached;
  query.probes = 1;

  // k = 2^32 + 10 ranks every row; a later k = 10 query must not be
  // answered from that entry, as it would be under a 32-bit key.
  query.k = (uint64_t{1} << 32) + 10;
  Result<TopKResult> all = engine.TopKWithBound(query);
  ASSERT_TRUE(all.ok()) << all.status();
  EXPECT_EQ(all.value().items.size(), 200u);
  query.k = 10;
  Result<TopKResult> ten = engine.TopKWithBound(query);
  ASSERT_TRUE(ten.ok()) << ten.status();
  EXPECT_FALSE(ten.value().from_cache);
  EXPECT_EQ(ten.value().items.size(), 10u);

  // Likewise probes = 2^32 + 1 must not share probes = 1's entry.
  query.probes = (uint64_t{1} << 32) + 1;
  Result<TopKResult> wide = engine.TopKWithBound(query);
  ASSERT_TRUE(wide.ok()) << wide.status();
  EXPECT_FALSE(wide.value().from_cache);

  // probes * k that would wrap to a tiny shortlist saturates at the mode
  // size instead: the whole mode is scored and the answer is exact.
  query.search = SearchMode::kAnn;
  query.probes = uint64_t{1} << 63;
  Result<TopKResult> saturated = engine.TopKWithBound(query);
  ASSERT_TRUE(saturated.ok()) << saturated.status();
  EXPECT_EQ(saturated.value().rows_scored, 200u);
  EXPECT_EQ(saturated.value().items,
            store.Current()->TopK(0, query.anchor, 10));
}

TEST_F(QueryEngineTest, QueriesAreRecordedPerTypeAndVersion) {
  ASSERT_TRUE(engine_.Predict({0, 0, 0}).ok());
  ASSERT_TRUE(engine_.Predict({1, 1, 1}).ok());
  ASSERT_TRUE(engine_.PredictBatch({{0, 0, 0}, {2, 2, 2}}).ok());
  TopKQuery query;
  query.anchor = {0, 0, 0};
  ASSERT_TRUE(engine_.TopK(query).ok());

  const ServeMetricsReport report = metrics_.Report();
  EXPECT_EQ(report.queries_total, 4u);
  EXPECT_EQ(
      report.latency[static_cast<size_t>(QueryType::kPoint)].count, 2u);
  EXPECT_EQ(
      report.latency[static_cast<size_t>(QueryType::kBatch)].count, 1u);
  EXPECT_EQ(report.latency[static_cast<size_t>(QueryType::kTopK)].count,
            1u);
  ASSERT_EQ(report.served_per_version.size(), 1u);
  EXPECT_EQ(report.served_per_version.at(1), 4u);
}

TEST_F(QueryEngineTest, StalenessTracksPublishedSteps) {
  // Model of step 0 is current; the publisher has since announced step 4.
  metrics_.NoteModelPublished(4);
  ASSERT_TRUE(engine_.Predict({0, 0, 0}).ok());
  const ServeMetricsReport report = metrics_.Report();
  EXPECT_EQ(report.max_staleness_steps, 4u);
  EXPECT_DOUBLE_EQ(report.mean_staleness_steps, 4.0);
}

TEST(QueryLogTest, GeneratedLogIsDeterministicAndInBounds) {
  QueryLogOptions options;
  options.num_queries = 300;
  options.batch_size = 8;
  const std::vector<uint64_t> dims = {10, 8, 6};
  const auto log_a = GenerateQueryLog(dims, options);
  const auto log_b = GenerateQueryLog(dims, options);
  ASSERT_EQ(log_a.size(), 300u);
  size_t type_counts[kNumQueryTypes] = {0, 0, 0};
  for (size_t q = 0; q < log_a.size(); ++q) {
    EXPECT_EQ(log_a[q].type, log_b[q].type);
    ++type_counts[static_cast<size_t>(log_a[q].type)];
    for (const auto& index : log_a[q].indices) {
      ASSERT_EQ(index.size(), dims.size());
      for (size_t n = 0; n < dims.size(); ++n) {
        EXPECT_LT(index[n], dims[n]);
      }
    }
    if (log_a[q].type == QueryType::kBatch) {
      EXPECT_EQ(log_a[q].indices.size(), 8u);
    }
  }
  // All three types appear with the default mix.
  EXPECT_GT(type_counts[0], 0u);
  EXPECT_GT(type_counts[1], 0u);
  EXPECT_GT(type_counts[2], 0u);
}

TEST(QueryLogTest, ReplayAnswersEveryQueryAgainstAPublishedModel) {
  ModelStore store;
  store.Publish(MakeFactors(5), 0);
  ServeMetrics metrics;
  QueryEngine engine(&store, nullptr, &metrics);
  QueryLogOptions options;
  options.num_queries = 200;
  const auto log = GenerateQueryLog({10, 8, 6}, options);
  const ReplayStats stats = ReplayQueryLog(engine, log, 3);
  EXPECT_EQ(stats.answered, 200u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(metrics.queries_total(), 200u);
}

TEST(QueryLogTest, ReplayAgainstEmptyStoreReportsFailures) {
  ModelStore store;
  QueryEngine engine(&store);
  QueryLogOptions options;
  options.num_queries = 10;
  const auto log = GenerateQueryLog({4, 4, 4}, options);
  const ReplayStats stats = ReplayQueryLog(engine, log, 2);
  EXPECT_EQ(stats.answered, 0u);
  EXPECT_EQ(stats.failed, 10u);
}

}  // namespace
}  // namespace serve
}  // namespace dismastd
