#include "serve/query_engine.h"

#include <algorithm>
#include <utility>

namespace dismastd {
namespace serve {

QueryEngine::QueryEngine(const ModelStore* store, ThreadPool* pool,
                         ServeMetrics* metrics, obs::Tracer* tracer,
                         TopKResultCache* cache)
    : store_(store),
      pool_(pool),
      metrics_(metrics),
      tracer_(tracer),
      cache_(cache) {
  DISMASTD_CHECK(store_ != nullptr);
}

Result<std::shared_ptr<const ServableModel>> QueryEngine::Snapshot() const {
  std::shared_ptr<const ServableModel> model = store_->Current();
  if (model == nullptr) {
    return Status::FailedPrecondition("no model published yet");
  }
  return model;
}

void QueryEngine::Record(QueryType type, double seconds,
                         const ServableModel& model) const {
  if (metrics_ != nullptr) {
    metrics_->RecordQuery(type, seconds, model.version(), model.step());
  }
}

Result<double> QueryEngine::Predict(
    const std::vector<uint64_t>& index) const {
  obs::SpanTimer timer(tracer_, "predict", "serve");
  Result<std::shared_ptr<const ServableModel>> snapshot = Snapshot();
  if (!snapshot.ok()) return snapshot.status();
  const ServableModel& model = *snapshot.value();
  DISMASTD_RETURN_IF_ERROR(model.ValidateIndex(index));
  const double value = model.Predict(index.data());
  Record(QueryType::kPoint, timer.Stop(), model);
  return value;
}

Result<std::vector<double>> QueryEngine::PredictBatch(
    const std::vector<std::vector<uint64_t>>& indices) const {
  obs::SpanTimer timer(tracer_, "predict_batch", "serve");
  Result<std::shared_ptr<const ServableModel>> snapshot = Snapshot();
  if (!snapshot.ok()) return snapshot.status();
  const ServableModel& model = *snapshot.value();
  for (const auto& index : indices) {
    DISMASTD_RETURN_IF_ERROR(model.ValidateIndex(index));
  }

  std::vector<double> values(indices.size());
  const size_t shards =
      pool_ == nullptr || pool_->num_threads() == 0
          ? 1
          : std::min(pool_->num_threads() + 1,
                     std::max<size_t>(
                         1, indices.size() / kMinTuplesPerShard));
  if (shards <= 1) {
    for (size_t i = 0; i < indices.size(); ++i) {
      values[i] = model.Predict(indices[i].data());
    }
  } else {
    const size_t per_shard = (indices.size() + shards - 1) / shards;
    pool_->ParallelFor(shards, [&](size_t shard) {
      const size_t begin = shard * per_shard;
      const size_t end = std::min(indices.size(), begin + per_shard);
      for (size_t i = begin; i < end; ++i) {
        values[i] = model.Predict(indices[i].data());
      }
    });
  }
  Record(QueryType::kBatch, timer.Stop(), model);
  return values;
}

Result<TopKResult> QueryEngine::TopKWithBound(const TopKQuery& query) const {
  obs::SpanTimer timer(tracer_, "topk", "serve");
  Result<std::shared_ptr<const ServableModel>> snapshot = Snapshot();
  if (!snapshot.ok()) return snapshot.status();
  const ServableModel& model = *snapshot.value();

  if (query.target_mode >= model.order()) {
    return Status::InvalidArgument(
        "target mode " + std::to_string(query.target_mode) +
        " out of range for order " + std::to_string(model.order()));
  }
  if (query.anchor.size() != model.order()) {
    return Status::InvalidArgument(
        "anchor arity " + std::to_string(query.anchor.size()) +
        " does not match model order " + std::to_string(model.order()));
  }
  for (size_t n = 0; n < model.order(); ++n) {
    if (n == query.target_mode) continue;
    if (query.anchor[n] >= model.dims()[n]) {
      return Status::OutOfRange(
          "anchor index " + std::to_string(query.anchor[n]) +
          " out of range for mode " + std::to_string(n));
    }
  }
  if (query.k == 0) {
    // Asking for nothing is a well-formed request with an empty answer,
    // not an error — and it must not burn a candidate scan.
    TopKResult empty;
    empty.precision = query.precision;
    Record(QueryType::kTopK, timer.Stop(), model);
    if (metrics_ != nullptr) {
      metrics_->RecordTopKSearch(query.search, 0, false);
    }
    return empty;
  }

  TopKResult out;
  bool cache_hit = false;
  switch (query.search) {
    case SearchMode::kExact: {
      Result<TopKResult> top = model.TopKWithPrecision(
          query.target_mode, query.anchor, query.k, query.precision);
      if (!top.ok()) return top.status();
      out = std::move(top.value());
      break;
    }
    case SearchMode::kAnn: {
      Result<TopKResult> top =
          model.TopKAnn(query.target_mode, query.anchor, query.k,
                        query.precision, query.probes);
      if (!top.ok()) return top.status();
      out = std::move(top.value());
      break;
    }
    case SearchMode::kAnnCached: {
      // Key the cache on the full query identity plus the snapshot's
      // version AND fingerprint: a publish changes both, so an entry
      // computed against a superseded model can never be served again.
      ann::ResultCacheKey key;
      key.version = model.version();
      key.fingerprint = model.fingerprint();
      key.target_mode = static_cast<uint32_t>(query.target_mode);
      key.k = query.k;
      key.precision = static_cast<uint32_t>(query.precision);
      key.search = static_cast<uint32_t>(query.search);
      key.probes = query.probes;
      key.anchor = query.anchor;
      // anchor[target_mode] is ignored by scoring; normalize it out of the
      // key so callers that vary it still share one entry.
      key.anchor[query.target_mode] = 0;
      if (cache_ != nullptr && cache_->Lookup(key, &out)) {
        cache_hit = true;
        out.from_cache = true;
        out.rows_scored = 0;
        break;
      }
      Result<TopKResult> top =
          model.TopKAnn(query.target_mode, query.anchor, query.k,
                        query.precision, query.probes);
      if (!top.ok()) return top.status();
      out = std::move(top.value());
      if (cache_ != nullptr) cache_->Insert(key, out);
      break;
    }
  }
  Record(QueryType::kTopK, timer.Stop(), model);
  if (metrics_ != nullptr) {
    metrics_->RecordTopKSearch(query.search, out.rows_scored, cache_hit);
  }
  return out;
}

Result<std::vector<ScoredIndex>> QueryEngine::TopK(
    const TopKQuery& query) const {
  Result<TopKResult> result = TopKWithBound(query);
  if (!result.ok()) return result.status();
  return std::move(result.value().items);
}

}  // namespace serve
}  // namespace dismastd
