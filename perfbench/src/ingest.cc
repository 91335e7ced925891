// ingest_batch and ingest_cwin: open-loop replay of an event log whose
// event time is the log position, paced at a fixed rate, into a model that
// is published into a ServeSession after every step / publish interval.
//
// Freshness: log position p is due at t0 + p / rate; its latency runs to
// the return of the first publish hook whose event_time_max reaches p
// (stats.h FreshnessLatencies). An event that never reaches a published
// model is a failure.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <vector>

#include "common/random.h"
#include "cwin/continuous_session.h"
#include "ingest/delta_builder.h"
#include "ingest/event_log.h"
#include "ingest/ingest_session.h"
#include "serve/serve_session.h"
#include "stream/generator.h"
#include "stream/snapshot.h"
#include "workloads.h"

namespace perfbench {

using namespace dismastd;

namespace {

struct LogShape {
  /// Records replayed per second (events and barriers alike).
  double rate = 0.0;
  /// Snapshot steps; each ends with a barrier declaring its dims.
  size_t steps = 0;
};

struct LogInput {
  ingest::EventLogWriter writer{3};
  ingest::EventLogReader reader;
  /// Log positions of the event records, ascending.
  std::vector<int64_t> event_positions;
};

/// A Zipf rating tensor grown from a 50% box to the full box in `steps`
/// snapshots; each snapshot's relative complement becomes a shuffled burst
/// of events followed by a barrier. Record r has event time r. The log is
/// encoded and decoded once, as a file-backed replay would.
LogInput MakeLog(const RunConfig& config, const LogShape& shape) {
  const double records = shape.rate * config.seconds;
  GeneratorOptions gen;
  gen.dims = config.smoke ? std::vector<uint64_t>{2000, 400, 40}
                          : std::vector<uint64_t>{5000, 1000, 100};
  gen.nnz = static_cast<uint64_t>(records) - shape.steps;
  gen.zipf_exponents = {1.0, 1.0, 0.5};
  gen.seed = config.seed;
  const SparseTensor full = GenerateSparseTensor(gen).tensor;
  const auto schedule =
      MakeGrowthSchedule(full.dims(), 0.5,
                         0.5 / static_cast<double>(shape.steps - 1),
                         shape.steps);
  std::vector<SparseTensor> parts = SplitBySnapshot(full, schedule);

  LogInput in;
  in.writer = ingest::EventLogWriter(full.order());
  Rng rng(config.seed * 0x9E3779B97F4A7C15ULL + 1);
  std::vector<size_t> order;
  std::vector<uint64_t> index(full.order());
  for (size_t t = 0; t < parts.size(); ++t) {
    const SparseTensor& part = parts[t];
    order.resize(part.nnz());
    for (size_t e = 0; e < order.size(); ++e) order[e] = e;
    for (size_t e = order.size(); e > 1; --e) {
      std::swap(order[e - 1], order[rng.NextBounded(e)]);
    }
    for (const size_t e : order) {
      const uint64_t* idx = part.IndexTuple(e);
      index.assign(idx, idx + part.order());
      const auto pos = static_cast<int64_t>(in.writer.num_records());
      in.event_positions.push_back(pos);
      in.writer.AppendEvent(pos, index, part.Value(e));
    }
    in.writer.AppendBarrier(static_cast<int64_t>(in.writer.num_records()),
                            schedule[t]);
  }
  Result<ingest::EventLogReader> reader =
      ingest::EventLogReader::FromBytes(in.writer.ToBytes());
  if (!reader.ok()) {
    std::fprintf(stderr, "event log decode failed: %s\n",
                 reader.status().message().c_str());
    std::exit(1);
  }
  in.reader = std::move(reader.value());
  return in;
}

/// Every event record of the log as one tensor with dims `dims`, optionally
/// only those with event time in (from, to].
SparseTensor EventTensor(const LogInput& in, const std::vector<uint64_t>& dims,
                         int64_t from, int64_t to) {
  SparseTensor tensor(dims);
  for (const ingest::EventRecord& record : in.writer.records()) {
    if (record.kind == ingest::RecordKind::kEvent && record.ts > from &&
        record.ts <= to) {
      tensor.AddRaw(record.fields.data(), record.value);
    }
  }
  tensor.Coalesce();
  return tensor;
}

DistributedOptions IngestDecompose() {
  // R = 10, mu = 0.8, 15 simulated workers; 5 ALS sweeps per micro-batch,
  // run inline on the consumer thread.
  DistributedOptions options;
  options.als.rank = 10;
  options.als.mu = 0.8;
  options.als.max_iterations = 5;
  options.num_workers = 15;
  options.execution.num_threads = 1;
  return options;
}

/// The publish hook: publishes every model into a ServeSession and records
/// when it became queryable and which log positions it covers.
class PublishTimeline {
 public:
  PublishTimeline() {
    serve::ServeSessionOptions options;
    options.num_query_threads = 1;
    session_ = std::make_unique<serve::ServeSession>(options);
    publish_ = session_->PublishObserver();
  }

  StreamStepObserver Hook(obs::Tracer* tracer) {
    return [this, tracer](const StreamStepMetrics& sm,
                          const KruskalTensor& factors) {
      const double start = Now();
      {
        obs::ScopedWallSpan span(tracer, "ServeSession.Publish", "serve",
                                 "consumer");
        publish_(sm, factors);
      }
      const double end = Now();
      observer_ms.push_back((end - start) * 1e3);
      int64_t covered = marks.empty() ? -1 : marks.back().covered;
      if (sm.event_time_max != kNoEventTime) {
        covered = std::max(covered, sm.event_time_max);
      }
      if (!marks.empty()) {
        publish_gap_ms.push_back((end - marks.back().seconds) * 1e3);
      }
      marks.push_back(PublishMark{covered, end});
      watermark = sm.event_time_watermark;
      finite = finite && FactorsFinite(factors);
    };
  }

  std::vector<PublishMark> marks;
  std::vector<double> observer_ms;
  std::vector<double> publish_gap_ms;
  int64_t watermark = kNoEventTime;
  bool finite = true;

 private:
  std::unique_ptr<serve::ServeSession> session_;
  StreamStepObserver publish_;
};

/// Freshness of `positions` against the timeline; reports latency,
/// throughput and the producer-side lag that the library's enqueue-based
/// histogram cannot see. Returns the number of positions never covered.
size_t ReportFreshness(Report& report, const std::vector<int64_t>& positions,
                       const PublishTimeline& timeline, double t0,
                       double rate, double wall_s,
                       const obs::Pow2Histogram& enqueue_to_publish_ns) {
  size_t uncovered = 0;
  std::vector<double> latency_s = FreshnessLatencies(
      positions, timeline.marks, t0, rate, &uncovered);
  std::vector<double> latency_ms;
  latency_ms.reserve(latency_s.size());
  for (const double s : latency_s) latency_ms.push_back(s * 1e3);
  report.SetLatency(latency_ms);
  report.Set("throughput", static_cast<double>(latency_s.size()) / wall_s);
  const double library_mean_s =
      enqueue_to_publish_ns.Count() > 0
          ? static_cast<double>(enqueue_to_publish_ns.Total()) * 1e-9 /
                static_cast<double>(enqueue_to_publish_ns.Count())
          : 0.0;
  report.Set("ingest.generator_lag_s", Mean(latency_s) - library_mean_s);
  report.SetP50Max("ingest.publish_gap_ms", timeline.publish_gap_ms);
  // The publish hook is the ServeSession publish.
  report.SetP50Max("serve.publish_ms", timeline.observer_ms);
  report.Set("ingest.observer_ms_p50",
             NearestRank(Sorted(timeline.observer_ms), 500).value);
  return uncovered;
}

LogInput SetUpLog(Report& report, const LogShape& shape) {
  LogInput in =
      RepeatSetUp(report, [&] { return MakeLog(report.config(), shape); });
  std::printf("event log: %zu records (%zu events), %zu steps, %.0f records/s\n",
              in.reader.num_slots(), in.event_positions.size(), shape.steps,
              shape.rate);
  return in;
}

void ReportSteps(Report& report, const std::vector<StreamStepMetrics>& steps) {
  std::vector<double> step_ms;
  double sim = 0.0, imbalance = 0.0;
  uint64_t flops = 0, bytes = 0, messages = 0;
  for (const StreamStepMetrics& sm : steps) {
    step_ms.push_back(sm.wall_seconds * 1e3);
    sim += sm.sim_seconds_per_iteration;
    imbalance += sm.load_imbalance;
    flops += sm.flops;
    bytes += sm.comm_bytes;
    messages += sm.comm_messages;
  }
  const double n = static_cast<double>(std::max<size_t>(steps.size(), 1));
  report.SetP50Max("core.step_ms", step_ms);
  report.Set("core.cold_step_s", steps.empty() ? 0.0 : steps[0].wall_seconds);
  report.Set("core.sim_s_per_iter", sim / n);
  report.Set("core.flops", static_cast<double>(flops));
  report.Set("dist.comm_bytes", static_cast<double>(bytes));
  report.Set("dist.comm_messages", static_cast<double>(messages));
  report.Set("dist.load_imbalance", imbalance / n);
}

}  // namespace

void RunIngestBatch(Report& report) {
  const RunConfig& config = report.config();
  LogShape shape;
  shape.rate = config.smoke ? 4000.0 : 20000.0;
  shape.steps = config.smoke ? 4 : std::max<size_t>(
      2, static_cast<size_t>(1.2 * config.seconds));
  const LogInput in = SetUpLog(report, shape);

  // The options `stream --ingest` runs with: default DeltaBuilderOptions.
  ingest::IngestSessionOptions options;
  options.num_producers = 1;
  options.max_events_per_second = shape.rate;
  options.decompose = IngestDecompose();
  PublishTimeline timeline;
  const double t0 = Now();
  const Result<ingest::IngestSessionResult> run = ingest::RunIngestSession(
      in.reader, options, timeline.Hook(report.tracer()));
  const double wall_s = Now() - t0;
  if (!run.ok()) {
    report.Check("ingest_batch session ran: " + run.status().message(), false);
    report.Count(in.event_positions.size(), in.event_positions.size());
    return;
  }
  const ingest::IngestSessionResult& r = run.value();

  // Replay the same options' delta builder offline to learn which log
  // positions were folded into a batch; the session must agree.
  ingest::DeltaBuilder builder(in.writer.order(), options.builder);
  std::vector<int64_t> accepted;
  std::map<ingest::BatchCloseReason, uint64_t> offline_reasons;
  std::vector<ingest::MicroBatchDelta> closed;
  for (const ingest::EventRecord& record : in.writer.records()) {
    if (record.kind == ingest::RecordKind::kBarrier) {
      builder.PushBarrier(record.ts, record.fields, &closed);
      continue;
    }
    const uint64_t before = builder.accepted_events();
    builder.PushEvent(record.ts, record.fields.data(), record.value, &closed);
    if (builder.accepted_events() != before) accepted.push_back(record.ts);
  }
  builder.Flush(&closed);
  for (const ingest::MicroBatchDelta& batch : closed) {
    ++offline_reasons[batch.reason];
  }

  uint64_t decomposed = 0;
  for (const StreamStepMetrics& sm : r.steps) decomposed += sm.processed_nnz;
  const uint64_t events = in.event_positions.size();
  const uint64_t failed = events - std::min<uint64_t>(decomposed, events);
  report.Count(events, failed);
  const size_t uncovered = ReportFreshness(
      report, accepted, timeline, t0, shape.rate, wall_s,
      *r.event_to_publish_nanos);
  report.Set("success_share",
             static_cast<double>(decomposed) / static_cast<double>(events));
  std::printf("ingest_batch: %llu of %llu events decomposed, failed_share "
              "%.6f (base %llu events)\n",
              static_cast<unsigned long long>(decomposed),
              static_cast<unsigned long long>(events),
              static_cast<double>(failed) / static_cast<double>(events),
              static_cast<unsigned long long>(events));

  std::map<ingest::BatchCloseReason, uint64_t> reasons;
  for (const ingest::BatchCloseReason reason : r.close_reasons) ++reasons[reason];
  const bool reasons_match = reasons == offline_reasons;
  report.Set("ingest.events", static_cast<double>(r.events));
  report.Set("ingest.decomposed", static_cast<double>(decomposed));
  report.Set("ingest.interior_dropped", static_cast<double>(r.interior_updates));
  report.Set("ingest.late", static_cast<double>(r.late_events));
  report.Set("ingest.duplicates", static_cast<double>(r.duplicates));
  report.Set("ingest.quarantined", static_cast<double>(r.quarantined));
  report.Set("ingest.batches_event_count",
             static_cast<double>(reasons[ingest::BatchCloseReason::kEventCount]));
  report.Set("ingest.batches_mode_growth",
             static_cast<double>(reasons[ingest::BatchCloseReason::kModeGrowth]));
  report.Set("ingest.batches_horizon",
             static_cast<double>(reasons[ingest::BatchCloseReason::kHorizon]));
  report.Set("ingest.batches_barrier",
             static_cast<double>(reasons[ingest::BatchCloseReason::kBarrier]));
  report.Set("ingest.batches_end_of_stream",
             static_cast<double>(reasons[ingest::BatchCloseReason::kEndOfStream]));
  report.Set("ingest.max_queue_depth", static_cast<double>(r.max_queue_depth));
  report.Set("ingest.block_waits", static_cast<double>(r.block_waits));
  ReportSteps(report, r.steps);

  // Outside the timed phase: fit against every event of the log (dropped
  // events lower it), the census, and a second replay on two producers,
  // unthrottled, which must close the identical batch sequence.
  report.Set("fit", r.factors.Fit(EventTensor(in, r.dims, -1, INT64_MAX)));
  report.Check("ingest_batch factors finite",
               timeline.finite && FactorsFinite(r.factors));
  report.Check("ingest_batch census: every log event consumed",
               r.events + r.quarantined == events);
  report.Check("ingest_batch census: events == decomposed + interior + late "
               "+ duplicates + quarantined",
               r.events == decomposed + r.interior_updates + r.late_events +
                               r.duplicates + r.quarantined);
  report.Check("ingest_batch decomposed == offline delta-builder accepted",
               decomposed == accepted.size() && uncovered == 0);
  report.Check("ingest_batch batch close reasons match offline replay",
               reasons_match);
  ingest::IngestSessionOptions replay = options;
  replay.num_producers = 2;
  replay.max_events_per_second = 0.0;
  const Result<ingest::IngestSessionResult> again =
      ingest::RunIngestSession(in.reader, replay);
  report.Check("ingest_batch fingerprint repeats on 2 producers, unpaced",
               again.ok() && again.value().batch_fingerprint ==
                                 r.batch_fingerprint);
  report.Pin("ingest_batch.fingerprint", Hex(r.batch_fingerprint));
  report.Pin("ingest_batch.decomposed", std::to_string(decomposed));
}

void RunIngestCwin(Report& report) {
  const RunConfig& config = report.config();
  LogShape shape;
  shape.rate = config.smoke ? 2000.0 : 4000.0;
  shape.steps = config.smoke ? 4 : std::max<size_t>(2, static_cast<size_t>(config.seconds));
  const LogInput in = SetUpLog(report, shape);
  const int64_t records_per_step = static_cast<int64_t>(
      in.reader.num_slots() / shape.steps);

  cwin::ContinuousSessionOptions options;
  options.num_producers = 1;
  options.max_events_per_second = shape.rate;
  options.decompose = IngestDecompose();
  options.window.decay = cwin::DecayKind::kSliding;
  options.window.window_ticks = 4 * records_per_step;
  // A publish every 512 events (128 ms at 4k/s) keeps the publish cadence
  // the main term of the latency, so it is steady from run to run; each
  // stitch still adds its stall to the events waiting on that publish.
  options.publish_interval_events = 512;
  options.stitch_interval_events = static_cast<size_t>(records_per_step);
  PublishTimeline timeline;
  const double t0 = Now();
  const Result<cwin::ContinuousSessionResult> run = cwin::RunContinuousSession(
      in.reader, options, timeline.Hook(report.tracer()));
  const double wall_s = Now() - t0;
  if (!run.ok()) {
    report.Check("ingest_cwin session ran: " + run.status().message(), false);
    report.Count(in.event_positions.size(), in.event_positions.size());
    return;
  }
  const cwin::ContinuousSessionResult& r = run.value();

  // No late or duplicate events in this log: every event is accepted, and
  // counts as done once a publish covers it.
  const uint64_t events = in.event_positions.size();
  const size_t uncovered = ReportFreshness(
      report, in.event_positions, timeline, t0, shape.rate, wall_s,
      *r.event_to_publish_nanos);
  const uint64_t failed = uncovered + r.late_events + r.duplicates;
  report.Count(events, failed);
  report.Set("success_share", 1.0 - static_cast<double>(failed) /
                                        static_cast<double>(events));
  report.Set("ingest.events", static_cast<double>(r.events));
  report.Set("ingest.decomposed", static_cast<double>(events - failed));
  report.Set("ingest.late", static_cast<double>(r.late_events));
  report.Set("ingest.duplicates", static_cast<double>(r.duplicates));
  report.Set("ingest.quarantined", static_cast<double>(r.quarantined));
  report.Set("ingest.max_queue_depth", static_cast<double>(r.max_queue_depth));
  report.Set("ingest.block_waits", static_cast<double>(r.block_waits));
  report.Set("cwin.updates", static_cast<double>(r.updates));
  report.Set("cwin.rows_solved", static_cast<double>(r.rows_solved));
  report.Set("cwin.rows_per_update",
             static_cast<double>(r.rows_solved) /
                 static_cast<double>(std::max<uint64_t>(r.updates, 1)));
  report.Set("cwin.evicted", static_cast<double>(r.evicted));
  report.Set("cwin.stitches", static_cast<double>(r.stitches));
  report.Set("cwin.publishes", static_cast<double>(r.publishes));
  report.Set("cwin.window_events", static_cast<double>(r.window_events));
  report.Set("cwin.drift", r.last_drift);
  const std::vector<double> gaps = Sorted(timeline.publish_gap_ms);
  report.Set("cwin.publish_gap_max_ms", gaps.empty() ? 0.0 : gaps.back());

  // Outside the timed phase: fit against the final retained window, and a
  // second replay on two producers, unthrottled, which must publish the
  // bit-identical model sequence.
  const SparseTensor window =
      EventTensor(in, r.dims, timeline.watermark - options.window.window_ticks,
                  timeline.watermark);
  report.Set("fit", r.factors.Fit(window));
  report.Check("ingest_cwin factors finite",
               timeline.finite && FactorsFinite(r.factors));
  report.Check("ingest_cwin census: every log event consumed",
               r.events + r.quarantined == events);
  report.Check("ingest_cwin census: events == window + evicted + late + "
               "duplicates",
               r.events == r.window_events + r.evicted + r.late_events +
                               r.duplicates);
  report.Check("ingest_cwin every event reached a published model",
               uncovered == 0);
  report.Check("ingest_cwin final window holds the expected events",
               window.nnz() == r.window_events);
  cwin::ContinuousSessionOptions replay = options;
  replay.num_producers = 2;
  replay.max_events_per_second = 0.0;
  const Result<cwin::ContinuousSessionResult> again =
      cwin::RunContinuousSession(in.reader, replay);
  report.Check("ingest_cwin fingerprint repeats on 2 producers, unpaced",
               again.ok() && again.value().model_fingerprint ==
                                 r.model_fingerprint);
  if (again.ok()) {
    std::printf("ingest_cwin unpaced capacity: %.0f records/s\n",
                static_cast<double>(in.reader.num_slots()) /
                    again.value().wall_seconds);
  }
  report.Pin("ingest_cwin.fingerprint", Hex(r.model_fingerprint));
}

}  // namespace perfbench
