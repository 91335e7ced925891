#ifndef DISMASTD_CWIN_CONTINUOUS_SESSION_H_
#define DISMASTD_CWIN_CONTINUOUS_SESSION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/driver.h"
#include "cwin/sliding_window.h"
#include "ingest/event_log.h"
#include "ingest/replay.h"

namespace dismastd {
namespace cwin {

/// Which ingest policy a replay runs: barrier-aligned micro-batch DTD
/// (RunIngestSession) or per-event continuous window updates
/// (RunContinuousSession).
enum class IngestMode : uint8_t {
  kBatch = 0,
  kContinuous = 1,
};

const char* IngestModeName(IngestMode mode);
Result<IngestMode> ParseIngestMode(const std::string& text);

/// Configuration of one continuous-window replay: the same replay options
/// as IngestSessionOptions (with kBlock backpressure the published factors
/// are bit-identical for every producer count) plus the window policy.
struct ContinuousSessionOptions : ingest::ReplayOptions {
  /// Window model: rank/seed default from `decompose.als` in
  /// RunContinuousSession when left at zero.
  SlidingWindowOptions window;
  /// Events fused into one update group (one set of row solves); 1 =
  /// strictly per-event.
  size_t fuse_events = 1;
  /// Publish the model after at least this many accepted events since the
  /// last publish (barriers and end-of-stream always publish).
  size_t publish_interval_events = 256;
  /// Run one exact DTD pass over the current window every N accepted
  /// events (applied at the next publish boundary); 0 disables stitching.
  size_t stitch_interval_events = 0;
  /// Out-of-order tolerance, same semantics as DeltaBuilderOptions:
  /// events older than watermark - lateness are quarantined as late.
  /// Negative = unbounded lateness.
  int64_t allowed_lateness_ticks = -1;

  /// Stitch decomposition settings; tracer / metrics / health / flight
  /// sinks attach here exactly as in IngestSessionOptions.
  DistributedOptions decompose;
  /// Score each published model against the retained window tensor.
  bool compute_fit = false;
};

/// What one RunContinuousSession produced: the replay census (events,
/// duplicates, late events, queue accounting, event->publish latency) plus
/// the publish sequence and window accounting.
struct ContinuousSessionResult : ingest::ReplayCensus {
  /// One entry per publish, in publish order; event_time_max /
  /// event_time_watermark are stamped for the serve staleness ledger.
  std::vector<StreamStepMetrics> steps;
  /// Final model and its dims.
  KruskalTensor factors;
  std::vector<uint64_t> dims;

  /// FNV-1a fingerprint chained over every published model's bytes (dims +
  /// factor entries). Two runs published bit-identical model sequences iff
  /// their fingerprints match — the determinism contract across producer
  /// counts and execution thread counts (kBlock only).
  uint64_t model_fingerprint = 0;

  /// Continuous-path accounting.
  uint64_t updates = 0;      // fused update groups applied
  uint64_t rows_solved = 0;  // factor rows re-solved
  uint64_t evicted = 0;      // events slid out of the window
  uint64_t stitches = 0;     // exact DTD passes
  uint64_t publishes = 0;
  /// Events retained in the window at the end.
  uint64_t window_events = 0;
  /// Fit gained by the last stitch (exact minus incremental fit over the
  /// window): the drift the incremental path had accrued.
  double last_drift = 0.0;
  /// Fit of the final factors over the retained window (compute_fit only).
  double final_fit = 0.0;
};

/// Replays an event log through the continuous-window pipeline: the same
/// OrderedReplay as RunIngestSession, but the consumer bypasses the
/// barrier-aligned DeltaBuilder entirely — each event (or fused group)
/// updates only the factor rows it touches in a SlidingWindowModel, the
/// model is republished on the publish-interval trigger, and a periodic
/// stitch runs one exact DTD pass over the current window (via the shared
/// RunDisMastdDeltaStep path) to bound drift.
///
/// The observer fires after each publish with metrics whose
/// event_time_max / event_time_watermark stamp the serve staleness ledger
/// — attach ServeSession::PublishObserver() here exactly as with the
/// batch pipeline.
Result<ContinuousSessionResult> RunContinuousSession(
    const ingest::EventLogReader& log,
    const ContinuousSessionOptions& options,
    const StreamStepObserver& observer = nullptr);

}  // namespace cwin
}  // namespace dismastd

#endif  // DISMASTD_CWIN_CONTINUOUS_SESSION_H_
