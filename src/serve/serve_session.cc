#include "serve/serve_session.h"

#include <thread>

namespace dismastd {
namespace serve {
namespace {

size_t ResolveThreads(size_t requested) {
  if (requested != 0) return requested <= 1 ? 0 : requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw <= 1 ? 0 : hw;
}

}  // namespace

ServeSession::ServeSession(ServeSessionOptions options)
    : store_(options.store),
      query_pool_(std::make_unique<ThreadPool>(
          ResolveThreads(options.num_query_threads))),
      cache_(std::make_unique<TopKResultCache>(kResultCacheSlots)),
      engine_(&store_, query_pool_.get(), &metrics_, options.tracer,
              cache_.get()) {}

uint64_t ServeSession::Publish(KruskalTensor factors, uint64_t step) {
  const uint64_t version = store_.Publish(std::move(factors), step);
  metrics_.NoteModelPublished(step);
  return version;
}

Result<uint64_t> ServeSession::WarmStart(
    const StreamCheckpoint& checkpoint) {
  Result<uint64_t> version = store_.WarmStart(checkpoint);
  if (version.ok()) metrics_.NoteModelPublished(checkpoint.step);
  return version;
}

Result<uint64_t> ServeSession::WarmStartFromCheckpointFile(
    const std::string& path) {
  Result<StreamCheckpoint> checkpoint = ReadStreamCheckpointFile(path);
  if (!checkpoint.ok()) return checkpoint.status();
  return WarmStart(checkpoint.value());
}

StreamStepObserver ServeSession::PublishObserver() {
  return [this](const StreamStepMetrics& step_metrics,
                const KruskalTensor& factors) {
    Publish(factors, step_metrics.step);
    // Ingest-driven steps carry event time; forward it so the serving
    // plane can report freshness against the ingest watermark.
    if (step_metrics.event_time_max != kNoEventTime) {
      metrics_.NoteModelEventTime(step_metrics.event_time_max);
    }
    if (step_metrics.event_time_watermark != kNoEventTime) {
      metrics_.NoteIngestWatermark(step_metrics.event_time_watermark);
    }
  };
}

}  // namespace serve
}  // namespace dismastd
