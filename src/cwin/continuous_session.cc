#include "cwin/continuous_session.h"

#include <algorithm>
#include <utility>

#include "common/serialization.h"
#include "common/string_util.h"
#include "obs/flightrec.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dismastd {
namespace cwin {

namespace {

/// Canonical bytes of one published model; what the continuous
/// determinism contract ("bit-identical published factors") is defined
/// over.
std::vector<uint8_t> SerializeModel(const SlidingWindowModel& model,
                                    uint64_t publish_index) {
  ByteWriter writer;
  writer.WriteU64(publish_index);
  writer.WriteU64Span(model.dims().data(), model.dims().size());
  for (size_t n = 0; n < model.order(); ++n) {
    const Matrix& factor = model.factor(n);
    for (size_t i = 0; i < factor.size(); ++i) {
      writer.WriteDouble(factor.data()[i]);
    }
  }
  return writer.TakeBytes();
}

}  // namespace

const char* IngestModeName(IngestMode mode) {
  switch (mode) {
    case IngestMode::kBatch:
      return "batch";
    case IngestMode::kContinuous:
      return "continuous";
  }
  return "?";
}

Result<IngestMode> ParseIngestMode(const std::string& text) {
  static constexpr EnumToken<IngestMode> kTokens[] = {
      {"batch", IngestMode::kBatch},
      {"continuous", IngestMode::kContinuous},
      {"cwin", IngestMode::kContinuous}};
  return ParseEnumToken<IngestMode>(text, "ingest mode", kTokens);
}

Result<ContinuousSessionResult> RunContinuousSession(
    const ingest::EventLogReader& log,
    const ContinuousSessionOptions& options,
    const StreamStepObserver& observer) {
  const Status valid = options.decompose.Validate();
  if (!valid.ok()) return valid;
  const size_t order = log.order();
  const size_t fuse = std::max<size_t>(1, options.fuse_events);
  const size_t publish_interval =
      std::max<size_t>(1, options.publish_interval_events);

  SlidingWindowOptions window_options = options.window;
  if (window_options.rank == 0) {
    window_options.rank = options.decompose.als.rank;
  }
  if (window_options.seed == 0) {
    window_options.seed = options.decompose.als.seed;
  }

  obs::Tracer* tracer = options.decompose.tracer;
  if (obs::Active(tracer)) tracer->RegisterWallLane("cwin");
  obs::MetricRegistry* metrics = options.decompose.metrics;
  ingest::OrderedReplay replay(log, options, metrics);
  ContinuousSessionResult result;

  SlidingWindowModel model(order, window_options);
  uint64_t fingerprint = kFnvOffset;
  uint64_t late_events = 0;
  std::vector<WindowEvent> fuse_buffer;

  bool has_watermark = false;
  int64_t watermark = 0;
  int64_t event_time_max = kNoEventTime;

  // Deterministic simulated-time accounting for the publish-interval
  // span: counted flops over the configured flop rate.
  const double flop_rate = options.decompose.cost_model.flops_per_second;
  double update_sim_seconds = 0.0;
  double stitch_sim_seconds = 0.0;
  uint64_t flops_since_publish = 0;
  uint64_t events_since_publish = 0;
  uint64_t groups_since_publish = 0;
  uint64_t events_since_stitch = 0;
  size_t publish_index = 0;
  size_t stitch_index = 0;
  double last_publish_wall = 0.0;
  bool stitched_since_publish = false;

  auto note_late = [&](int64_t ts) {
    return options.allowed_lateness_ticks >= 0 && has_watermark &&
           ts < watermark - options.allowed_lateness_ticks;
  };

  auto run_stitch = [&] {
    // One exact DTD pass over the current window, through the shared
    // RunDisMastdDeltaStep path (cold start: the window tensor *is* the
    // delta). The inner step runs without the tracer — its simulated time
    // is re-emitted below as the publish's cwin_stitch phase span — and
    // without the health/flight sinks, which see the publish-level
    // metrics instead.
    DistributedOptions stitch_options = options.decompose;
    stitch_options.tracer = nullptr;
    stitch_options.health = nullptr;
    stitch_options.flight = nullptr;
    stitch_options.checkpoint_dir.clear();
    const SparseTensor window = model.WindowTensor();
    const std::vector<uint64_t> cold_dims(order, 0);
    KruskalTensor stitched;
    const StreamStepMetrics ssm =
        RunDisMastdDeltaStep(window, cold_dims, model.dims(), &stitched,
                             stitch_index, stitch_options);
    const double incremental_fit = model.Snapshot().Fit(window);
    const double exact_fit = stitched.Fit(window);
    result.last_drift = exact_fit - incremental_fit;
    model.ReplaceFactors(stitched.factors());
    stitch_sim_seconds += ssm.sim_seconds_total;
    ++stitch_index;
    ++result.stitches;
    events_since_stitch = 0;
    stitched_since_publish = true;
  };

  auto publish = [&] {
    if (options.stitch_interval_events > 0 &&
        events_since_stitch >= options.stitch_interval_events) {
      run_stitch();
    }
    obs::ScopedWallSpan publish_wall(tracer, "cwin_publish", "cwin", "cwin");
    const KruskalTensor factors = model.Snapshot();
    const std::vector<uint8_t> bytes = SerializeModel(model, publish_index);
    fingerprint = Fnv1a(bytes.data(), bytes.size(), fingerprint);

    StreamStepMetrics sm;
    sm.step = publish_index;
    sm.dims = model.dims();
    sm.processed_nnz = events_since_publish;
    sm.snapshot_nnz = model.window_events();
    sm.iterations = groups_since_publish;
    sm.flops = flops_since_publish;
    const double total_sim = update_sim_seconds + stitch_sim_seconds;
    sm.sim_seconds_total = total_sim;
    sm.sim_seconds_per_iteration =
        groups_since_publish > 0
            ? total_sim / static_cast<double>(groups_since_publish)
            : total_sim;
    const double now = replay.ElapsedSeconds();
    sm.wall_seconds = now - last_publish_wall;
    last_publish_wall = now;
    sm.event_time_max = event_time_max;
    if (has_watermark) sm.event_time_watermark = watermark;
    if (options.compute_fit) {
      sm.fit = factors.Fit(model.WindowTensor());
      result.final_fit = sm.fit;
    }

    if (obs::Active(tracer)) {
      // One sim step span per publish, tiled by the cwin phase spans so
      // validate_trace.py's phase-sum check holds exactly.
      tracer->BeginSim(obs::Tracer::kDriverLane,
                       ("step " + std::to_string(publish_index)).c_str(),
                       "stream", 0.0,
                       {{"step", std::to_string(publish_index)}});
      tracer->BeginSim(obs::Tracer::kDriverLane, "cwin_update", "phase",
                       0.0);
      tracer->EndSim(obs::Tracer::kDriverLane, update_sim_seconds);
      if (stitched_since_publish) {
        tracer->BeginSim(obs::Tracer::kDriverLane, "cwin_stitch", "phase",
                         update_sim_seconds);
        tracer->EndSim(obs::Tracer::kDriverLane, total_sim);
      }
      tracer->EndSim(obs::Tracer::kDriverLane, total_sim);
      tracer->AdvanceSimBase(total_sim);
    }
    ObserveStepHealth(options.decompose, sm, options.compute_fit);
    if (obs::Active(options.decompose.health)) {
      options.decompose.health->Observe(
          obs::HealthSignal::kIngestQueueDepth, sm.step,
          static_cast<double>(replay.queue_depth()), tracer);
      options.decompose.health->Observe(
          obs::HealthSignal::kCwinWindowEvents, sm.step,
          static_cast<double>(model.window_events()), tracer);
      if (stitched_since_publish) {
        options.decompose.health->Observe(obs::HealthSignal::kCwinDrift,
                                          sm.step, result.last_drift,
                                          tracer);
      }
    }
    if (observer) observer(sm, factors);
    // The model folding these events in is now published: the freshness
    // clock stops here.
    replay.Published();
    result.steps.push_back(std::move(sm));
    ++publish_index;
    ++result.publishes;
    update_sim_seconds = 0.0;
    stitch_sim_seconds = 0.0;
    flops_since_publish = 0;
    events_since_publish = 0;
    groups_since_publish = 0;
    stitched_since_publish = false;
  };

  auto apply_fused = [&] {
    if (fuse_buffer.empty()) return;
    const UpdateStats stats =
        model.ApplyEvents(fuse_buffer.data(), fuse_buffer.size());
    fuse_buffer.clear();
    ++result.updates;
    ++groups_since_publish;
    result.rows_solved += stats.rows_solved;
    uint64_t flops = stats.flops;
    const UpdateStats evict = model.AdvanceWatermark(watermark);
    result.evicted += evict.evicted;
    result.rows_solved += evict.rows_solved;
    flops += evict.flops;
    flops_since_publish += flops;
    update_sim_seconds += static_cast<double>(flops) / flop_rate;
    if (events_since_publish >= publish_interval) publish();
  };

  replay.Run([&](const ingest::IngestToken& token) {
    if (token.kind == ingest::SlotKind::kBarrier) {
      apply_fused();
      model.GrowDims(token.record.fields);
      if (!has_watermark || token.record.ts > watermark) {
        watermark = token.record.ts;
        has_watermark = true;
      }
      const UpdateStats evict = model.AdvanceWatermark(watermark);
      result.evicted += evict.evicted;
      result.rows_solved += evict.rows_solved;
      flops_since_publish += evict.flops;
      update_sim_seconds += static_cast<double>(evict.flops) / flop_rate;
      // Punctuation always publishes, mirroring the batch pipeline's
      // barrier-close semantics.
      publish();
      return;
    }
    if (note_late(token.record.ts)) {
      ++late_events;
      return;
    }
    WindowEvent event;
    event.ts = token.record.ts;
    event.value = token.record.value;
    event.index = token.record.fields;
    if (!has_watermark || event.ts > watermark) {
      watermark = event.ts;
      has_watermark = true;
    }
    if (event.ts > event_time_max || event_time_max == kNoEventTime) {
      event_time_max = event.ts;
    }
    fuse_buffer.push_back(std::move(event));
    replay.Accept(token.enqueue_seconds);
    ++events_since_publish;
    ++events_since_stitch;
    if (fuse_buffer.size() >= fuse) apply_fused();
  });

  // End of stream: drain the fuse buffer, run the final stitch so the
  // published model is drift-bounded, and publish.
  apply_fused();
  if (options.stitch_interval_events > 0 && events_since_stitch > 0) {
    run_stitch();
  }
  if (events_since_publish > 0 || stitched_since_publish ||
      result.publishes == 0) {
    publish();
  }

  result.factors = model.Snapshot();
  result.dims = model.dims();
  result.model_fingerprint = fingerprint;
  result.window_events = model.window_events();
  replay.Finish(late_events, &result);

  if (metrics != nullptr) {
    metrics
        ->GetCounter("dismastd_cwin_updates_total", {},
                     "Fused update groups applied to the window model")
        ->Add(result.updates);
    metrics
        ->GetCounter("dismastd_cwin_rows_solved_total", {},
                     "Factor rows re-solved by the continuous path")
        ->Add(result.rows_solved);
    metrics
        ->GetCounter("dismastd_cwin_evicted_total", {},
                     "Events slid out of the window (down-dated)")
        ->Add(result.evicted);
    metrics
        ->GetCounter("dismastd_cwin_stitches_total", {},
                     "Exact DTD stitch passes over the window")
        ->Add(result.stitches);
    metrics
        ->GetCounter("dismastd_cwin_publishes_total", {},
                     "Models published by the continuous path")
        ->Add(result.publishes);
    metrics
        ->GetGauge("dismastd_cwin_window_events", {},
                   "Events retained in the window at exit")
        ->Set(static_cast<double>(result.window_events));
  }
  return result;
}

}  // namespace cwin
}  // namespace dismastd
