// Ingest-pipeline throughput harness: event log -> live decomposition.
//
// Exports a synthetic growth-schedule stream as a shuffled TEVT event log,
// then replays it through the full live pipeline (producer threads ->
// bounded queue -> micro-batch delta builder -> DisMASTD step), sweeping
// (a) the number of producer threads at a fixed trigger config, and
// (b) the batch-close trigger (barrier-driven, event-count at several
// sizes, event-time horizon) at a fixed producer count, and (c) the
// ingest policy: the same Zipf log through the micro-batch pipeline vs
// the continuous-window path (per-event row updates + periodic stitch),
// comparing final fitness, event->publish freshness and update rate.
//
// Reported per run: events/sec through the pipeline, p50/p95
// event->published-model latency, batches closed, max queue depth, and
// the batch-sequence fingerprint (constant across producer counts by the
// determinism contract). Rows are mirrored to ingest_throughput.csv.
//
// DISMASTD_BENCH_SCALE scales the tensor, DISMASTD_BENCH_THREADS the
// decomposition engine's thread count.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cwin/continuous_session.h"
#include "ingest/event_log.h"
#include "ingest/ingest_session.h"
#include "stream/generator.h"
#include "stream/snapshot.h"

using namespace dismastd;

namespace {

struct SweepRow {
  std::string label;
  size_t producers = 1;
  ingest::DeltaBuilderOptions builder;
};

void RunRow(const SweepRow& row, const ingest::EventLogReader& log,
            const DistributedOptions& options, bench::CsvWriter* csv) {
  ingest::IngestSessionOptions session;
  session.decompose = options;
  session.num_producers = row.producers;
  session.builder = row.builder;
  const Result<ingest::IngestSessionResult> run =
      ingest::RunIngestSession(log, session);
  if (!run.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", row.label.c_str(),
                 run.status().message().c_str());
    return;
  }
  const ingest::IngestSessionResult& r = run.value();
  const double events_per_second =
      r.wall_seconds > 0.0 ? static_cast<double>(r.events) / r.wall_seconds
                           : 0.0;
  const obs::HistogramSummary lat =
      obs::Summarize(*r.event_to_publish_nanos, 1e-3);  // ns -> us
  std::printf("%-22s %9zu %12.0f %10.1f %10.1f %8zu %9llu  %016llx\n",
              row.label.c_str(), row.producers, events_per_second, lat.p50,
              lat.p95, r.steps.size(),
              static_cast<unsigned long long>(r.max_queue_depth),
              static_cast<unsigned long long>(r.batch_fingerprint));
  csv->Row(row.label, row.producers, events_per_second, lat.p50, lat.p95,
           r.steps.size(), r.max_queue_depth, r.batch_fingerprint);
}

/// Sweep 3 rows: the same barrier log through both ingest policies.
/// Batch folds whole micro-batch deltas per barrier; continuous updates
/// touched factor rows per fused event group and stitches periodically.
/// Reported: fitness of the final model, freshness (p50/p95
/// event->publish), and model-update throughput (batches for the batch
/// policy, fused event groups for continuous).
void RunPolicyRow(const std::string& label, double fit, uint64_t updates,
                  double wall_seconds, uint64_t events,
                  const obs::Pow2Histogram& latency, bench::CsvWriter* csv) {
  const obs::HistogramSummary lat = obs::Summarize(latency, 1e-3);  // -> us
  const double events_per_second =
      wall_seconds > 0.0 ? static_cast<double>(events) / wall_seconds : 0.0;
  const double updates_per_second =
      wall_seconds > 0.0 ? static_cast<double>(updates) / wall_seconds : 0.0;
  std::printf("%-22s %9.4f %12.0f %10.1f %10.1f %12.0f\n", label.c_str(),
              fit, events_per_second, lat.p50, lat.p95, updates_per_second);
  csv->Row(label, fit, events_per_second, lat.p50, lat.p95,
           updates_per_second);
}

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader(
      "Ingest throughput: event log -> queue -> micro-batches -> DisMASTD");
  const bench::BenchObs obs_sinks(argc, argv);

  GeneratorOptions gen;
  gen.dims = {4000, 1000, 200};
  gen.nnz = 200000;
  gen.zipf_exponents = {1.0, 1.0, 0.5};
  gen.seed = 42;
  const double scale = bench::BenchScale();
  if (scale != 1.0) {
    for (auto& d : gen.dims) {
      d = std::max<uint64_t>(8, static_cast<uint64_t>(
                                    static_cast<double>(d) * scale));
    }
    gen.nnz = std::max<uint64_t>(
        512, static_cast<uint64_t>(static_cast<double>(gen.nnz) * scale));
  }
  SparseTensor full = GenerateSparseTensor(gen).tensor;
  auto schedule = MakeGrowthSchedule(full.dims(), 0.7, 0.1, 4);
  const StreamingTensorSequence stream(std::move(full), std::move(schedule));

  const ingest::EventLogWriter log_with_barriers =
      ingest::ExportSequenceAsEvents(stream, {});
  ingest::EventExportOptions no_barriers;
  no_barriers.emit_barriers = false;
  const ingest::EventLogWriter log_events_only =
      ingest::ExportSequenceAsEvents(stream, no_barriers);
  const Result<ingest::EventLogReader> barriers =
      ingest::EventLogReader::FromBytes(log_with_barriers.ToBytes());
  const Result<ingest::EventLogReader> events_only =
      ingest::EventLogReader::FromBytes(log_events_only.ToBytes());
  if (!barriers.ok() || !events_only.ok()) {
    std::fprintf(stderr, "event log round-trip failed\n");
    return 1;
  }
  std::printf("event log: %llu records, %zu steps\n\n",
              static_cast<unsigned long long>(
                  log_with_barriers.num_records()),
              stream.num_steps());

  DistributedOptions options = bench::PaperOptions();
  options.als.max_iterations = 5;
  options.tracer = obs_sinks.tracer();
  options.metrics = obs_sinks.metrics();

  bench::CsvWriter csv("ingest_throughput.csv");
  csv.Row("label", "producers", "events_per_sec", "p50_us", "p95_us",
          "batches", "max_queue_depth", "fingerprint");
  std::printf("%-22s %9s %12s %10s %10s %8s %9s  %s\n", "config",
              "producers", "events/s", "p50(us)", "p95(us)", "batches",
              "max_depth", "fingerprint");
  bench::PrintRule();

  // Sweep 1: producer threads, barrier-driven batches. The fingerprint
  // column must not change — that is the determinism contract, and
  // tools/smoke.sh asserts it on the CSV.
  for (size_t producers : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    SweepRow row;
    row.label = "barriers";
    row.producers = producers;
    RunRow(row, barriers.value(), options, &csv);
  }
  bench::PrintRule();

  // Sweep 2: close triggers on the barrier-free log, 4 producers. Smaller
  // batches publish fresher models (lower p95) at the cost of more
  // decomposition steps.
  for (size_t batch_events : {size_t{2048}, size_t{8192}, size_t{32768}}) {
    SweepRow row;
    row.label = "count=" + std::to_string(batch_events);
    row.producers = 4;
    row.builder.max_batch_events = batch_events;
    RunRow(row, events_only.value(), options, &csv);
  }
  {
    SweepRow row;
    row.label = "horizon=500";
    row.producers = 4;
    row.builder.max_batch_events = 0;
    row.builder.horizon_ticks = 500;
    RunRow(row, events_only.value(), options, &csv);
  }

  // Sweep 3: ingest policy. The same barrier log replayed through the
  // micro-batch pipeline and through the continuous-window path (fused
  // per-event row updates, periodic exact stitch). Producers are paced at
  // a fixed arrival rate so latency measures the *policy* — batch holds
  // every event until its barrier closes the batch, continuous publishes
  // every few fused groups — rather than the unpaced firehose backlog.
  // Final fitness must stay matched: the stitch bounds incremental drift.
  // The rate must sit below the continuous consumer's capacity, or the
  // queue wait re-enters the measurement.
  const double policy_rate = 20000.0;  // events/s
  bench::CsvWriter policy_csv("ingest_policy.csv");
  policy_csv.Row("policy", "final_fit", "events_per_sec", "p50_us", "p95_us",
                 "updates_per_sec");
  std::printf("\n%-22s %9s %12s %10s %10s %12s\n", "policy", "fit",
              "events/s", "p50(us)", "p95(us)", "updates/s");
  bench::PrintRule();
  {
    ingest::IngestSessionOptions batch;
    batch.decompose = options;
    batch.num_producers = 4;
    batch.compute_fit = true;
    batch.max_events_per_second = policy_rate;
    const Result<ingest::IngestSessionResult> run =
        ingest::RunIngestSession(barriers.value(), batch);
    if (!run.ok()) {
      std::fprintf(stderr, "policy=batch failed: %s\n",
                   run.status().message().c_str());
      return 1;
    }
    const ingest::IngestSessionResult& r = run.value();
    RunPolicyRow("policy=batch", r.steps.empty() ? 0.0 : r.steps.back().fit,
                 r.steps.size(), r.wall_seconds, r.events,
                 *r.event_to_publish_nanos, &policy_csv);
  }
  {
    cwin::ContinuousSessionOptions continuous;
    continuous.decompose = options;
    continuous.num_producers = 4;
    continuous.compute_fit = true;
    continuous.max_events_per_second = policy_rate;
    continuous.fuse_events = 8;
    continuous.publish_interval_events = 256;
    continuous.stitch_interval_events = stream.num_steps() > 0
        ? log_with_barriers.num_records() / stream.num_steps()
        : 0;
    const Result<cwin::ContinuousSessionResult> run =
        cwin::RunContinuousSession(barriers.value(), continuous);
    if (!run.ok()) {
      std::fprintf(stderr, "policy=continuous failed: %s\n",
                   run.status().message().c_str());
      return 1;
    }
    const cwin::ContinuousSessionResult& r = run.value();
    RunPolicyRow("policy=continuous", r.final_fit, r.updates,
                 r.wall_seconds, r.events, *r.event_to_publish_nanos,
                 &policy_csv);
  }

  obs_sinks.Finish();
  return 0;
}
