#ifndef DISMASTD_SERVE_QUERY_ENGINE_H_
#define DISMASTD_SERVE_QUERY_ENGINE_H_

#include <cstdint>
#include <vector>

#include "ann/result_cache.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "obs/trace.h"
#include "serve/model_store.h"
#include "serve/serve_metrics.h"
#include "serve/servable_model.h"

namespace dismastd {
namespace serve {

/// The version-keyed hot-entity cache of finished top-K answers.
using TopKResultCache = ann::ResultCache<TopKResult>;

/// A top-K recommendation request: pin every mode to `anchor[n]` except
/// `target_mode`, rank that mode's slices. anchor[target_mode] is ignored
/// (conventionally 0). `search` picks the candidate-finding path (exact
/// scan / LSH shortlist + exact re-rank / shortlist behind the result
/// cache); `probes` scales the ANN shortlist to min(J, max(k, probes * k))
/// candidates.
struct TopKQuery {
  size_t target_mode = 1;
  std::vector<uint64_t> anchor;
  size_t k = 10;
  SearchMode search = SearchMode::kExact;
  size_t probes = 8;
};

/// Concurrent read path over a ModelStore.
///
/// Every request acquires exactly one model snapshot up front and is
/// answered entirely from it — a batch never mixes versions even if a
/// publish lands mid-request (the consistency contract of DESIGN.md §8).
/// The engine is stateless apart from borrowed pointers, so one instance
/// can be shared by any number of client threads.
///
/// Large batches are sharded across the ThreadPool (request batching);
/// `pool == nullptr` executes inline, which is also the deterministic
/// single-core configuration.
class QueryEngine {
 public:
  /// `store` must outlive the engine; `pool`, `metrics`, `tracer` and
  /// `cache` may be nullptr (inline execution / no recording / no tracing
  /// / no result cache — kAnnCached then degrades to kAnn). With a tracer
  /// attached, every query records a wall-clock span on the calling
  /// thread's "serve" lane.
  QueryEngine(const ModelStore* store, ThreadPool* pool = nullptr,
              ServeMetrics* metrics = nullptr,
              obs::Tracer* tracer = nullptr,
              TopKResultCache* cache = nullptr);

  /// Model value at one index tuple.
  Result<double> Predict(const std::vector<uint64_t>& index) const;

  /// Model values at many index tuples, all answered from one model
  /// snapshot. Fails on the first invalid tuple (arity/bounds).
  Result<std::vector<double>> PredictBatch(
      const std::vector<std::vector<uint64_t>>& indices) const;

  /// Top-K recommendation (see TopKQuery). `query.anchor` must have
  /// order() entries with every non-target entry in bounds and
  /// target_mode < order(). Degenerate shapes answer cleanly rather than
  /// erroring: k = 0 returns an empty list, k >= J returns all J
  /// candidates ranked, and a zero-row target mode returns an empty list.
  /// Honors query.search; returns just the ranked items.
  Result<std::vector<ScoredIndex>> TopK(const TopKQuery& query) const;

  /// Like TopK but returns the full TopKResult: the items plus the rows
  /// scored and whether the answer came from the result cache.
  Result<TopKResult> TopKWithStats(const TopKQuery& query) const;

  /// Batch shards smaller than this run inline even with a pool — below
  /// it, the handoff costs more than the R-flops per tuple it hides.
  static constexpr size_t kMinTuplesPerShard = 256;

 private:
  /// Latest snapshot or FailedPrecondition before the first publish.
  Result<std::shared_ptr<const ServableModel>> Snapshot() const;

  void Record(QueryType type, double seconds,
              const ServableModel& model) const;

  const ModelStore* store_;
  ThreadPool* pool_;
  ServeMetrics* metrics_;
  obs::Tracer* tracer_;
  TopKResultCache* cache_;
};

}  // namespace serve
}  // namespace dismastd

#endif  // DISMASTD_SERVE_QUERY_ENGINE_H_
