#ifndef DISMASTD_SERVE_SERVE_SESSION_H_
#define DISMASTD_SERVE_SERVE_SESSION_H_

#include <cstdint>
#include <memory>

#include "common/thread_pool.h"
#include "core/driver.h"
#include "serve/model_store.h"
#include "serve/query_engine.h"
#include "serve/serve_metrics.h"
#include "tensor/checkpoint.h"

namespace dismastd {
namespace serve {

struct ServeSessionOptions {
  ModelStoreOptions store;
  /// Threads of the query-side ThreadPool (0 = all hardware cores,
  /// 1 = inline). Independent of the decomposition engine's pool.
  size_t num_query_threads = 0;
  /// Optional span tracer shared with the rest of the process (not owned,
  /// may be null); the query engine records per-query wall spans onto it.
  obs::Tracer* tracer = nullptr;
};

/// The assembled serving plane: store + metrics + engine + query pool,
/// with the glue to the streaming driver.
///
/// Typical deployment shape (and what `serve-bench` / the concurrency
/// tests do):
///
///   ServeSession session;
///   session.WarmStartFromCheckpointFile(path);          // optional
///   std::thread producer([&] {
///     RunStreamingExperiment(stream, method, options,
///                            /*compute_fit=*/false,
///                            session.PublishObserver());
///   });
///   // any number of threads:  session.engine().Predict(...) / TopK(...)
///
/// Publishing and querying share no mutable state beyond the store's
/// atomic head pointer, so the decomposition of step t+1 overlaps with
/// queries against step t's model.
class ServeSession {
 public:
  explicit ServeSession(ServeSessionOptions options = {});

  ModelStore& store() { return store_; }
  const ModelStore& store() const { return store_; }
  ServeMetrics& metrics() { return metrics_; }
  const QueryEngine& engine() const { return engine_; }
  /// The hot-entity top-K result cache SearchMode::kAnnCached consults.
  TopKResultCache* cache() { return cache_.get(); }

  /// Publishes `factors` as the model of streaming step `step` and
  /// advances the staleness reference point. Returns the version.
  uint64_t Publish(KruskalTensor factors, uint64_t step);

  /// Publishes a checkpoint's factors before the stream produces anything,
  /// so a restarted server answers queries immediately.
  Result<uint64_t> WarmStart(const StreamCheckpoint& checkpoint);
  Result<uint64_t> WarmStartFromCheckpointFile(const std::string& path);

  /// Observer to pass to RunStreamingExperiment: publishes every step's
  /// factors the moment the step completes.
  StreamStepObserver PublishObserver();

 private:
  static constexpr size_t kResultCacheSlots = 4096;

  ModelStore store_;
  ServeMetrics metrics_;
  std::unique_ptr<ThreadPool> query_pool_;
  std::unique_ptr<TopKResultCache> cache_;
  QueryEngine engine_;
};

}  // namespace serve
}  // namespace dismastd

#endif  // DISMASTD_SERVE_SERVE_SESSION_H_
