// Serving-plane throughput harness: decompose-and-serve end to end.
//
// Streams a synthetic rating tensor through DisMASTD, publishing every
// step's factors into the versioned ModelStore, then replays a synthetic
// query log (point / batch / top-K mix) against the live store, sweeping
// the number of client threads. Reported per sweep: achieved QPS, per-type
// latency percentiles and the staleness ledger (queries per model version).
//
// The first sweep runs concurrently with the streaming decomposition, so
// it also demonstrates the overlap contract: queries are answered from
// version t while step t+1 is being computed.
//
// Phase 3 is the millions-of-users ANN sweep: a synthetic recommendation
// model with --users (default 1e6) Gaussian user rows is published once,
// then the same Zipf-skewed audience-query trace is replayed through each
// SearchMode (exact scan / LSH shortlist + exact re-rank / shortlist
// behind the version-keyed result cache), reporting QPS, p50/p95/p99,
// candidate rows scored per query, measured recall@K against the exact
// scan, and the cache hit rate (serve_ann_sweep.csv).
//
// DISMASTD_BENCH_SCALE scales the tensor, DISMASTD_BENCH_THREADS the
// decomposition engine's thread count. Phase-3 flags: --users, --zipf-s,
// --query-seed (see bench_util.h) plus --bits=N (LSH code width) and
// --probes=N (shortlist = probes * K candidates).

#include <algorithm>
#include <cstdio>
#include <set>
#include <thread>

#include "bench_util.h"
#include "serve/query_log.h"
#include "serve/serve_session.h"
#include "stream/generator.h"

using namespace dismastd;

namespace {

/// One phase-3 sweep row: replays `num_queries` Zipf-skewed top-K audience
/// queries through `mode`, then measures recall@K of the sampled answers
/// against the exact scan (outside the timed loop, so the reference scan
/// does not pollute latency or rows-scored accounting).
struct SweepRow {
  serve::SearchMode mode;
  uint64_t queries = 0;
  double qps = 0.0;
  serve::LatencySummary topk;
  double rows_per_query = 0.0;
  double recall = 1.0;
  double cache_hit_rate = 0.0;
};

SweepRow RunAnnSweep(serve::ServeSession& session,
                     const bench::ZipfPopulation& population,
                     serve::SearchMode mode, uint64_t num_queries,
                     size_t probes, uint64_t items, uint64_t contexts,
                     obs::Tracer* tracer) {
  serve::ServeMetrics metrics;
  const serve::QueryEngine engine(&session.store(), nullptr, &metrics,
                                  tracer, session.cache());
  // Every mode replays the identical anchor sequence: same seed, same
  // Zipf draw order, so the comparison across modes is apples-to-apples.
  Rng rng(population.seed);
  const ZipfSampler item_zipf(items, population.s);

  serve::TopKQuery query;
  query.target_mode = 0;
  query.k = 10;
  query.search = mode;
  query.probes = probes;

  // Anchors of every 16th query are kept so recall can be measured after
  // the clock stops.
  std::vector<std::pair<std::vector<uint64_t>, std::vector<serve::ScoredIndex>>>
      sampled;
  WallTimer timer;
  for (uint64_t i = 0; i < num_queries; ++i) {
    const uint64_t item = item_zipf.Sample(rng);
    // Each item carries a habitual context, so a re-queried head item is
    // an exact repeat — the situation the result cache exists for.
    const uint64_t context = (item * 2654435761ULL) % contexts;
    query.anchor = {0, item, context};
    const Result<std::vector<serve::ScoredIndex>> answer = engine.TopK(query);
    if (!answer.ok()) continue;
    if (mode != serve::SearchMode::kExact && i % 16 == 0) {
      sampled.emplace_back(query.anchor, answer.value());
    }
  }
  const double seconds = timer.ElapsedSeconds();

  // Recall@K of the sampled approximate answers against the exact scan.
  const std::shared_ptr<const serve::ServableModel> model =
      session.store().Current();
  for (const auto& [anchor, got] : sampled) {
    std::set<uint64_t> truth;
    for (const serve::ScoredIndex& entry :
         model->TopK(0, anchor, query.k).items) {
      truth.insert(entry.index);
    }
    size_t overlap = 0;
    for (const serve::ScoredIndex& entry : got) overlap += truth.count(entry.index);
    metrics.NoteRecallSample(truth.empty()
                                 ? 1.0
                                 : static_cast<double>(overlap) /
                                       static_cast<double>(truth.size()));
  }

  const serve::ServeMetricsReport report = metrics.Report();
  SweepRow row;
  row.mode = mode;
  row.queries = report.topk_by_search[static_cast<size_t>(mode)];
  row.qps = seconds > 0.0 ? static_cast<double>(row.queries) / seconds : 0.0;
  row.topk = report.latency[static_cast<size_t>(serve::QueryType::kTopK)];
  row.rows_per_query =
      row.queries > 0
          ? static_cast<double>(report.topk_rows_scored_total) /
                static_cast<double>(row.queries)
          : 0.0;
  row.recall = report.recall_samples > 0 ? report.mean_recall : 1.0;
  row.cache_hit_rate = report.cache_hit_rate;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  bench::PrintHeader("Serve throughput: versioned model store + query engine");
  const bench::BenchObs obs_sinks(argc, argv);

  GeneratorOptions gen;
  gen.dims = {20000, 4000, 200};
  gen.nnz = 400000;
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
  const SparseTensor full = GenerateSparseTensor(gen).tensor;
  std::printf("tensor %zux%zux%zu, %zu nnz\n", (size_t)full.dim(0),
              (size_t)full.dim(1), (size_t)full.dim(2), (size_t)full.nnz());

  DistributedOptions options = bench::PaperOptions();
  options.als.rank = 10;
  options.als.max_iterations = 5;
  options.tracer = obs_sinks.tracer();
  options.metrics = obs_sinks.metrics();
  auto schedule = MakeGrowthSchedule(full.dims(), 0.7, 0.1, 4);
  const StreamingTensorSequence stream(full, std::move(schedule));

  serve::ServeSessionOptions session_options;
  session_options.store.keep_depth = 4;
  session_options.tracer = obs_sinks.tracer();
  serve::ServeSession session(session_options);

  serve::QueryLogOptions log_options;
  log_options.num_queries = static_cast<uint64_t>(20000 * scale) + 2000;
  log_options.k = 10;
  log_options.batch_size = 64;
  const std::vector<serve::QueryRecord> log =
      serve::GenerateQueryLog(stream.DimsAt(0), log_options);
  std::printf("query log: %zu records (%.0f%% topk, %.0f%% batch of %zu)\n\n",
              log.size(), log_options.topk_fraction * 100,
              log_options.batch_fraction * 100, log_options.batch_size);

  // Phase 1: queries overlapping the streaming decomposition.
  std::thread producer([&] {
    RunStreamingExperiment(stream, MethodKind::kDisMastd, options,
                           /*compute_fit=*/false, session.PublishObserver());
  });
  while (session.store().Current() == nullptr) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  obs::SpanTimer overlap_timer(obs_sinks.tracer(), "overlap_replay", "bench",
                               "bench");
  serve::ReplayStats overlap =
      serve::ReplayQueryLog(session.engine(), log, 4);
  const double overlap_seconds = overlap_timer.Stop();
  producer.join();

  std::printf("overlapped with decomposition (4 clients): %llu queries in "
              "%.3f s = %.0f QPS (%llu failed)\n",
              (unsigned long long)overlap.answered, overlap_seconds,
              static_cast<double>(overlap.answered) / overlap_seconds,
              (unsigned long long)overlap.failed);
  std::printf("versions published: %llu\n\n",
              (unsigned long long)session.store().num_published());

  // Phase 2: steady-state sweep over client counts on the final model.
  bench::CsvWriter csv("serve_throughput.csv");
  csv.Row("clients", "queries", "qps", "point_p50_us", "point_p99_us",
          "topk_p50_us", "topk_p99_us");
  std::printf("%-8s %-10s %-12s %-14s %-14s\n", "clients", "queries", "QPS",
              "point p50/p99", "topk p50/p99");
  for (size_t clients : {1, 2, 4, 8}) {
    // A fresh metrics plane per sweep so percentiles don't mix runs.
    serve::ServeMetrics sweep_metrics;
    serve::QueryEngine engine(&session.store(), nullptr, &sweep_metrics,
                              obs_sinks.tracer());
    obs::SpanTimer timer(obs_sinks.tracer(), "steady_replay", "bench",
                         "bench");
    const serve::ReplayStats stats =
        serve::ReplayQueryLog(engine, log, clients);
    const double seconds = timer.Stop();
    const serve::ServeMetricsReport report = sweep_metrics.Report();
    const auto& point =
        report.latency[static_cast<size_t>(serve::QueryType::kPoint)];
    const auto& topk =
        report.latency[static_cast<size_t>(serve::QueryType::kTopK)];
    const double qps = static_cast<double>(stats.answered) / seconds;
    std::printf("%-8zu %-10llu %-12.0f %6.2f/%-7.2f %6.2f/%-7.2f\n",
                clients, (unsigned long long)stats.answered, qps,
                point.p50_seconds * 1e6, point.p99_seconds * 1e6,
                topk.p50_seconds * 1e6, topk.p99_seconds * 1e6);
    csv.Row(clients, stats.answered, qps, point.p50_seconds * 1e6,
            point.p99_seconds * 1e6, topk.p50_seconds * 1e6,
            topk.p99_seconds * 1e6);
  }
  std::printf("\nstaleness during overlap: %s",
              session.metrics().Report().ToString().c_str());
  if (obs_sinks.metrics() != nullptr) {
    session.metrics().PublishTo(obs_sinks.metrics());
    session.store().PublishTo(obs_sinks.metrics());
  }

  // Phase 3: the millions-of-users ANN sweep. A synthetic recommendation
  // model (Gaussian factors — no decomposition, mode 0 is the user
  // population) is published once; the same Zipf audience-query trace then
  // runs through every SearchMode.
  const bench::ZipfPopulation population =
      bench::ZipfPopulation::FromArgs(argc, argv);
  size_t bits = 256;
  size_t probes = 100;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--bits=", 0) == 0) {
      bits = std::max<size_t>(1, static_cast<size_t>(
                                     std::atoll(arg.c_str() + 7)));
    } else if (arg.rfind("--probes=", 0) == 0) {
      probes = std::max<size_t>(1, static_cast<size_t>(
                                       std::atoll(arg.c_str() + 9)));
    }
  }
  const uint64_t users = std::max<uint64_t>(
      2000, static_cast<uint64_t>(static_cast<double>(population.users) *
                                  scale));
  const uint64_t items = std::max<uint64_t>(
      64, static_cast<uint64_t>(4000 * scale));
  const uint64_t contexts = std::max<uint64_t>(
      16, static_cast<uint64_t>(200 * scale));
  const size_t ann_rank = 10;
  bench::PrintHeader("ANN sweep: " + std::to_string(users) +
                     " users, Zipf(s=" + std::to_string(population.s) +
                     ") audience queries, " + std::to_string(bits) +
                     "-bit LSH, shortlist = " + std::to_string(probes) +
                     "x K");

  Rng model_rng(97);
  std::vector<Matrix> big_factors;
  big_factors.push_back(Matrix::RandomGaussian(
      static_cast<size_t>(users), ann_rank, model_rng));
  big_factors.push_back(Matrix::RandomGaussian(
      static_cast<size_t>(items), ann_rank, model_rng));
  big_factors.push_back(Matrix::RandomGaussian(
      static_cast<size_t>(contexts), ann_rank, model_rng));

  serve::ServeSessionOptions big_options;
  big_options.num_query_threads = 1;
  big_options.store.servable.lsh.bits = bits;
  big_options.tracer = obs_sinks.tracer();
  serve::ServeSession big(big_options);
  WallTimer publish_timer;
  big.Publish(KruskalTensor(std::move(big_factors)), 0);
  std::printf("model published (rank %zu, %zu-bit codes) in %.2f s\n",
              ann_rank, bits, publish_timer.ElapsedSeconds());

  const uint64_t approx_queries = std::max<uint64_t>(
      200, static_cast<uint64_t>(4000 * scale));
  // The exact scan reads every user row per query, so it gets a smaller
  // (but still percentile-worthy) slice of the trace.
  const uint64_t exact_queries = std::max<uint64_t>(
      50, static_cast<uint64_t>(300 * scale));

  bench::CsvWriter sweep_csv("serve_ann_sweep.csv");
  sweep_csv.Row("search_mode", "users", "queries", "qps", "p50_us", "p95_us",
                "p99_us", "rows_per_query", "recall_at_10",
                "cache_hit_rate");
  std::printf("%-11s %-9s %-10s %-22s %-14s %-9s %-9s\n", "mode", "queries",
              "QPS", "p50/p95/p99 (us)", "rows/query", "recall", "cachehit");
  for (const serve::SearchMode mode :
       {serve::SearchMode::kExact, serve::SearchMode::kAnn,
        serve::SearchMode::kAnnCached}) {
    const uint64_t num_queries =
        mode == serve::SearchMode::kExact ? exact_queries : approx_queries;
    const SweepRow row = RunAnnSweep(big, population, mode, num_queries,
                                     probes, items, contexts,
                                     obs_sinks.tracer());
    std::printf("%-11s %-9llu %-10.0f %6.0f/%6.0f/%6.0f %14.1f %9.3f %9.3f\n",
                serve::SearchModeName(mode),
                (unsigned long long)row.queries, row.qps,
                row.topk.p50_seconds * 1e6, row.topk.p95_seconds * 1e6,
                row.topk.p99_seconds * 1e6, row.rows_per_query, row.recall,
                row.cache_hit_rate);
    sweep_csv.Row(serve::SearchModeName(mode), users, row.queries, row.qps,
                  row.topk.p50_seconds * 1e6, row.topk.p95_seconds * 1e6,
                  row.topk.p99_seconds * 1e6, row.rows_per_query, row.recall,
                  row.cache_hit_rate);
  }
  const auto model = big.store().Current();
  std::printf("index: %llu rows hashed, %llu reused\n",
              (unsigned long long)model->ann_index()->hashed_rows(),
              (unsigned long long)model->ann_index()->reused_rows());
  if (obs_sinks.metrics() != nullptr) {
    big.store().PublishTo(obs_sinks.metrics());
  }

  obs_sinks.Finish();
  return 0;
}
