#include "ingest/ingest_session.h"

#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

#include "ingest/replay.h"
#include "stream/generator.h"
#include "stream/snapshot.h"

namespace dismastd {
namespace ingest {
namespace {

StreamingTensorSequence MakeStream(uint64_t seed = 5) {
  GeneratorOptions gen;
  gen.dims = {24, 18, 12};
  gen.nnz = 900;
  gen.latent_rank = 3;
  gen.noise_stddev = 0.1;
  gen.seed = seed;
  SparseTensor tensor = GenerateSparseTensor(gen).tensor;
  return StreamingTensorSequence(
      std::move(tensor), MakeGrowthSchedule({24, 18, 12}, 0.6, 0.2, 3));
}

DistributedOptions SmallOptions() {
  DistributedOptions options;
  options.als.rank = 3;
  options.als.max_iterations = 2;
  options.num_workers = 4;
  return options;
}

/// A log exercising every OrderedReplay delivery rule — barriers, seqs
/// retransmitted right away and much later, and one CRC-corrupted slot
/// whose later retransmission becomes the first-seen copy — with the
/// offline answer: the slots the engine must deliver, in order, and the
/// census it must count.
struct ReplayLog {
  EventLogReader reader;
  std::vector<uint64_t> delivered_slots;
  uint64_t events = 0;
  uint64_t barriers = 0;
  uint64_t duplicates = 0;
};

ReplayLog MakeReplayLog() {
  EventLogWriter writer(2);
  for (uint64_t t = 0; t < 60; ++t) {
    if (t % 10 == 9) {
      writer.AppendBarrier(static_cast<int64_t>(t), {8, 8});
      continue;
    }
    const auto ts = static_cast<int64_t>(t);
    writer.AppendEventWithSeq(t, ts, {t % 8, (3 * t) % 8}, 1.0 + ts);
    if (t % 4 == 1) {
      writer.AppendEventWithSeq(t, ts, {t % 8, (3 * t) % 8}, 1.0 + ts);
    }
    if (t % 7 == 6) {
      writer.AppendEventWithSeq(t - 5, ts, {0, 0}, 2.0);
    }
  }
  // Slot 1 is seq 1's first copy; slot 2 retransmits it.
  const size_t corrupt = 1;
  std::vector<uint8_t> bytes = writer.ToBytes();
  bytes[kEventLogHeaderBytes + corrupt * EventRecordBytes(2) + 10] ^= 0xFF;

  ReplayLog log;
  std::unordered_set<uint64_t> seen;
  for (size_t slot = 0; slot < writer.num_records(); ++slot) {
    const EventRecord& record = writer.records()[slot];
    if (slot == corrupt) continue;
    if (record.kind == RecordKind::kBarrier) {
      ++log.barriers;
      log.delivered_slots.push_back(slot);
      continue;
    }
    ++log.events;
    if (seen.insert(record.seq).second) {
      log.delivered_slots.push_back(slot);
    } else {
      ++log.duplicates;
    }
  }
  Result<EventLogReader> reader = EventLogReader::FromBytes(std::move(bytes));
  EXPECT_TRUE(reader.ok());
  log.reader = std::move(reader).value();
  return log;
}

TEST(OrderedReplayTest, DeliversFirstSeenEventsAndBarriersInLogOrder) {
  const ReplayLog log = MakeReplayLog();
  ASSERT_GT(log.duplicates, 5u);
  const uint64_t num_slots = log.reader.num_slots();
  for (size_t producers : {size_t{1}, size_t{2}, size_t{3}, size_t{8}}) {
    for (size_t capacity : {size_t{1}, size_t{4}, size_t{1024}}) {
      SCOPED_TRACE(testing::Message() << producers << " producers, capacity "
                                      << capacity);
      ReplayOptions options;
      options.num_producers = producers;
      options.queue_capacity = capacity;
      options.backpressure = BackpressurePolicy::kBlock;
      OrderedReplay replay(log.reader, options, nullptr);
      std::vector<uint64_t> delivered;
      replay.Run([&](const IngestToken& token) {
        EXPECT_TRUE(delivered.empty() || token.slot > delivered.back());
        delivered.push_back(token.slot);
      });
      EXPECT_EQ(delivered, log.delivered_slots);

      ReplayCensus census;
      replay.Finish(/*late_events=*/0, &census);
      EXPECT_EQ(census.events, log.events);
      EXPECT_EQ(census.barriers, log.barriers);
      EXPECT_EQ(census.quarantined, 1u);
      EXPECT_EQ(census.duplicates, log.duplicates);
      EXPECT_EQ(census.events + census.barriers + census.quarantined,
                num_slots);
      EXPECT_EQ(census.dropped_oldest, 0u);
      EXPECT_EQ(census.rejected, 0u);
      EXPECT_LE(census.max_queue_depth, capacity);
    }
  }
}

TEST(OrderedReplayTest, PublishedStopsEachPendingClockOnce) {
  const ReplayLog log = MakeReplayLog();
  OrderedReplay replay(log.reader, ReplayOptions{}, nullptr);
  for (int i = 0; i < 3; ++i) replay.Accept(0.0);
  replay.Published();
  ReplayCensus census;
  replay.Finish(/*late_events=*/0, &census);
  ASSERT_NE(census.event_to_publish_nanos, nullptr);
  EXPECT_EQ(census.event_to_publish_nanos->Count(), 3u);
  replay.Published();  // nothing pending: records nothing
  EXPECT_EQ(census.event_to_publish_nanos->Count(), 3u);
}

TEST(IngestSessionTest, ReplayedLogReproducesScheduleDrivenFactorsBitExact) {
  const StreamingTensorSequence stream = MakeStream();
  const DistributedOptions options = SmallOptions();

  // Reference: the schedule-driven experiment.
  std::vector<KruskalTensor> reference;
  RunStreamingExperiment(
      stream, MethodKind::kDisMastd, options, /*compute_fit=*/false,
      [&](const StreamStepMetrics&, const KruskalTensor& factors) {
        reference.push_back(factors);
      });

  // Live: export the same stream as a shuffled event log and replay it.
  const EventLogWriter log = ExportSequenceAsEvents(stream, {});
  Result<EventLogReader> reader = EventLogReader::FromBytes(log.ToBytes());
  ASSERT_TRUE(reader.ok());

  IngestSessionOptions session;
  session.decompose = options;
  std::vector<KruskalTensor> published;
  Result<IngestSessionResult> result = RunIngestSession(
      reader.value(), session,
      [&](const StreamStepMetrics&, const KruskalTensor& factors) {
        published.push_back(factors);
      });
  ASSERT_TRUE(result.ok()) << result.status().message();

  // Barrier-closed batches mirror the schedule's steps one for one, and
  // the factors are bit-identical at every step.
  ASSERT_EQ(published.size(), reference.size());
  for (size_t t = 0; t < reference.size(); ++t) {
    ASSERT_EQ(published[t].order(), reference[t].order());
    for (size_t mode = 0; mode < reference[t].order(); ++mode) {
      EXPECT_TRUE(published[t].factor(mode) == reference[t].factor(mode))
          << "factor mismatch at step " << t << " mode " << mode;
    }
  }
  EXPECT_EQ(result.value().dims, stream.DimsAt(stream.num_steps() - 1));
  EXPECT_EQ(result.value().duplicates, 0u);
  EXPECT_EQ(result.value().quarantined, 0u);
  EXPECT_EQ(result.value().late_events, 0u);
}

TEST(IngestSessionTest, BatchSequenceIdenticalAcrossProducerCounts) {
  const StreamingTensorSequence stream = MakeStream(9);
  const EventLogWriter log = ExportSequenceAsEvents(stream, {});
  Result<EventLogReader> reader = EventLogReader::FromBytes(log.ToBytes());
  ASSERT_TRUE(reader.ok());

  uint64_t reference_fingerprint = 0;
  for (size_t producers : {size_t{1}, size_t{2}, size_t{5}}) {
    IngestSessionOptions session;
    session.decompose = SmallOptions();
    session.num_producers = producers;
    session.queue_capacity = 32;  // force real backpressure interleavings
    Result<IngestSessionResult> result =
        RunIngestSession(reader.value(), session);
    ASSERT_TRUE(result.ok());
    if (producers == 1) {
      reference_fingerprint = result.value().batch_fingerprint;
    } else {
      EXPECT_EQ(result.value().batch_fingerprint, reference_fingerprint)
          << "batch sequence diverged at " << producers << " producers";
    }
    EXPECT_EQ(result.value().dropped_oldest, 0u);
    EXPECT_EQ(result.value().rejected, 0u);
  }
}

TEST(IngestSessionTest, DuplicateSeqsAreDroppedOnce) {
  EventLogWriter log(2);
  log.AppendEventWithSeq(0, 0, {0, 0}, 1.0);
  log.AppendEventWithSeq(1, 1, {1, 1}, 2.0);
  log.AppendEventWithSeq(0, 2, {0, 0}, 1.0);  // retransmission
  Result<EventLogReader> reader = EventLogReader::FromBytes(log.ToBytes());
  ASSERT_TRUE(reader.ok());

  IngestSessionOptions session;
  session.decompose = SmallOptions();
  Result<IngestSessionResult> result =
      RunIngestSession(reader.value(), session);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().events, 3u);
  EXPECT_EQ(result.value().duplicates, 1u);
  ASSERT_EQ(result.value().steps.size(), 1u);
  // The duplicate did not double the (0,0) entry.
  EXPECT_EQ(result.value().steps[0].processed_nnz, 2u);
}

TEST(IngestSessionTest, CorruptSlotsAreQuarantinedAndCounted) {
  EventLogWriter writer(2);
  writer.AppendEvent(0, {0, 0}, 1.0);
  writer.AppendEvent(1, {1, 1}, 2.0);
  std::vector<uint8_t> bytes = writer.ToBytes();
  bytes[kEventLogHeaderBytes + 10] ^= 0xFF;  // corrupt slot 0

  Result<EventLogReader> reader = EventLogReader::FromBytes(std::move(bytes));
  ASSERT_TRUE(reader.ok());
  IngestSessionOptions session;
  session.decompose = SmallOptions();
  Result<IngestSessionResult> result =
      RunIngestSession(reader.value(), session);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().quarantined, 1u);
  EXPECT_EQ(result.value().events, 1u);
}

TEST(IngestSessionTest, CountTriggerSplitsStreamIntoMicroBatches) {
  const StreamingTensorSequence stream = MakeStream(13);
  EventExportOptions export_options;
  export_options.emit_barriers = false;
  const EventLogWriter log = ExportSequenceAsEvents(stream, export_options);
  Result<EventLogReader> reader = EventLogReader::FromBytes(log.ToBytes());
  ASSERT_TRUE(reader.ok());

  IngestSessionOptions session;
  session.decompose = SmallOptions();
  session.builder.max_batch_events = 100;
  Result<IngestSessionResult> result =
      RunIngestSession(reader.value(), session);
  ASSERT_TRUE(result.ok());
  const IngestSessionResult& r = result.value();
  ASSERT_GT(r.steps.size(), 1u);
  for (size_t b = 0; b + 1 < r.close_reasons.size(); ++b) {
    EXPECT_EQ(r.close_reasons[b], BatchCloseReason::kEventCount);
  }
}

TEST(IngestSessionTest, LatencyHistogramCoversEveryAcceptedEvent) {
  const StreamingTensorSequence stream = MakeStream(21);
  const EventLogWriter log = ExportSequenceAsEvents(stream, {});
  Result<EventLogReader> reader = EventLogReader::FromBytes(log.ToBytes());
  ASSERT_TRUE(reader.ok());

  IngestSessionOptions session;
  session.decompose = SmallOptions();
  Result<IngestSessionResult> result =
      RunIngestSession(reader.value(), session);
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result.value().event_to_publish_nanos, nullptr);
  EXPECT_EQ(result.value().event_to_publish_nanos->Count(),
            result.value().events);
  EXPECT_GT(result.value().wall_seconds, 0.0);
}

TEST(IngestSessionTest, EventTimeMetadataIsStamped) {
  const StreamingTensorSequence stream = MakeStream(33);
  const EventLogWriter log = ExportSequenceAsEvents(stream, {});
  Result<EventLogReader> reader = EventLogReader::FromBytes(log.ToBytes());
  ASSERT_TRUE(reader.ok());

  IngestSessionOptions session;
  session.decompose = SmallOptions();
  Result<IngestSessionResult> result =
      RunIngestSession(reader.value(), session);
  ASSERT_TRUE(result.ok());
  for (const StreamStepMetrics& m : result.value().steps) {
    EXPECT_NE(m.event_time_max, kNoEventTime);
    EXPECT_NE(m.event_time_watermark, kNoEventTime);
    EXPECT_LE(m.event_time_max, m.event_time_watermark);
  }
}

}  // namespace
}  // namespace ingest
}  // namespace dismastd
