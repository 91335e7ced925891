// serve_live: a fixed-cadence writer publishes the next of K model versions
// (precomputed by DisMASTD steps during set-up) while two closed-loop
// clients replay serve::GenerateQueryLog traffic at its default mix and
// skew: point lookups, batches of 64, and top-10 ANN queries behind the
// version-keyed result cache. Every publish invalidates the cache, so reads
// run beside writes.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/driver.h"
#include "serve/query_log.h"
#include "serve/serve_session.h"
#include "stream/generator.h"
#include "stream/snapshot.h"
#include "workloads.h"

namespace perfbench {

using namespace dismastd;

namespace {

constexpr size_t kTopK = 10;
constexpr size_t kBatchSize = 64;
constexpr size_t kClients = 2;
/// Queries a client generates at a time, outside its timed stretch.
constexpr uint64_t kChunkQueries = 4096;

struct Inputs {
  SparseTensor full;
  std::vector<KruskalTensor> versions;
  std::vector<uint64_t> first_dims;
};

Inputs SetUp(const RunConfig& config, size_t num_versions) {
  GeneratorOptions gen;
  gen.dims = config.smoke ? std::vector<uint64_t>{4000, 300, 20}
                          : std::vector<uint64_t>{120000, 2000, 50};
  gen.nnz = config.smoke ? 20000 : 600000;
  gen.zipf_exponents = {0.8, 1.0, 0.5};
  gen.seed = config.seed;
  Inputs in;
  in.full = GenerateSparseTensor(gen).tensor;
  const auto schedule = MakeGrowthSchedule(
      in.full.dims(), 0.8, 0.2 / static_cast<double>(num_versions - 1),
      num_versions);
  const std::vector<SparseTensor> deltas = SplitBySnapshot(in.full, schedule);
  in.first_dims = schedule[0];

  DistributedOptions options;
  options.als.rank = 10;
  options.als.mu = 0.8;
  options.als.max_iterations = 3;
  options.num_workers = 15;
  options.execution.num_threads = 4;
  KruskalTensor factors;
  std::vector<uint64_t> old_dims(schedule[0].size(), 0);
  for (size_t v = 0; v < num_versions; ++v) {
    RunDisMastdDeltaStep(deltas[v], old_dims, schedule[v], &factors, v,
                         options);
    in.versions.push_back(factors);
    old_dims = schedule[v];
  }
  return in;
}

/// Exact top-K of `factors` for a user query by brute force: score every
/// user row against the anchor's combination weights, best first, ties on
/// the lower index.
std::vector<serve::ScoredIndex> BruteForceTopK(
    const KruskalTensor& factors, const std::vector<uint64_t>& anchor) {
  const size_t rank = factors.rank();
  std::vector<double> w(rank, 1.0);
  for (size_t n = 1; n < factors.order(); ++n) {
    for (size_t f = 0; f < rank; ++f) w[f] *= factors.factor(n)(anchor[n], f);
  }
  const Matrix& users = factors.factor(0);
  std::vector<serve::ScoredIndex> all(users.rows());
  for (size_t u = 0; u < users.rows(); ++u) {
    double score = 0.0;
    for (size_t f = 0; f < rank; ++f) score += w[f] * users(u, f);
    all[u] = serve::ScoredIndex{u, score};
  }
  const size_t k = std::min(kTopK, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<long>(k), all.end(),
                    [](const serve::ScoredIndex& a, const serve::ScoredIndex& b) {
                      return a.score != b.score ? a.score > b.score
                                                : a.index < b.index;
                    });
  all.resize(k);
  return all;
}

/// True when `got` is `want` up to rounding: every rank's score agrees to
/// 1e-9 relative, so indices can differ only between tied candidates.
bool SameTopK(const std::vector<serve::ScoredIndex>& got,
              const std::vector<serve::ScoredIndex>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    const double tol = 1e-9 * std::max(1.0, std::abs(want[i].score));
    if (std::abs(got[i].score - want[i].score) > tol) return false;
  }
  return true;
}

struct Sample {
  size_t version_index;
  std::vector<uint64_t> anchor;
  std::vector<serve::ScoredIndex> answer;
};

struct ClientLog {
  std::vector<double> all_ms;
  std::vector<double> us[3];  // by QueryType
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Seconds spent querying, without generating the query chunks.
  double busy_s = 0.0;
  std::vector<Sample> samples;
};

/// One closed-loop client: replays the library's synthetic query log (its
/// default mix and skew; top-10 user queries behind the ANN result cache),
/// generated in chunks with successive seeds between its timed stretches,
/// until `stop_at`.
void RunClient(const serve::ServeSession& session,
               const std::vector<uint64_t>& dims, uint64_t seed,
               double stop_at, ClientLog* log) {
  const serve::QueryEngine& engine = session.engine();
  serve::QueryLogOptions options;
  options.num_queries = kChunkQueries;
  options.batch_size = kBatchSize;
  options.k = kTopK;
  options.topk_target_mode = 0;
  options.topk_search = serve::SearchMode::kAnnCached;
  options.topk_probes = 100;
  size_t topk_seen = 0;
  bool running = true;
  for (uint64_t chunk = 0; running; ++chunk) {
    options.seed = (seed << 20) + chunk;
    const std::vector<serve::QueryRecord> queries =
        serve::GenerateQueryLog(dims, options);
    const double busy_from = Now();
    double start = busy_from;
    for (const serve::QueryRecord& query : queries) {
      start = Now();
      running = start < stop_at;
      if (!running) break;
      // Every 16th top-K query keeps its answer for the recall check, when
      // no publish landed while it ran (so the answering version is known).
      const bool sample =
          query.type == serve::QueryType::kTopK && topk_seen++ % 16 == 0;
      const uint64_t version_before =
          sample ? session.store().Current()->version() : 0;
      bool ok = false;
      std::vector<serve::ScoredIndex> answer;
      switch (query.type) {
        case serve::QueryType::kPoint:
          ok = engine.Predict(query.indices[0]).ok();
          break;
        case serve::QueryType::kBatch:
          ok = engine.PredictBatch(query.indices).ok();
          break;
        case serve::QueryType::kTopK: {
          Result<std::vector<serve::ScoredIndex>> r = engine.TopK(query.topk);
          ok = r.ok();
          if (ok && sample) answer = std::move(r.value());
          break;
        }
      }
      const double elapsed = Now() - start;
      ++log->attempted;
      if (!ok) {
        ++log->failed;
        continue;
      }
      log->all_ms.push_back(elapsed * 1e3);
      log->us[static_cast<size_t>(query.type)].push_back(elapsed * 1e6);
      if (sample && session.store().Current()->version() == version_before) {
        // Store versions are 1-based publish counts of versions[0], [1], ...
        log->samples.push_back(
            Sample{version_before - 1, query.topk.anchor, std::move(answer)});
      }
    }
    log->busy_s += start - busy_from;
  }
}

}  // namespace

void RunServeLive(Report& report) {
  const RunConfig& config = report.config();
  // One version per measured second, 10 at the default 10 s.
  const size_t num_versions =
      config.smoke ? 4
                   : std::clamp<size_t>(
                         static_cast<size_t>(config.seconds + 0.5), 2, 60);

  struct Live {
    Inputs in;
    std::unique_ptr<serve::ServeSession> session;
  };
  double first_publish_s = 0.0;
  Live live = RepeatSetUp(report, [&] {
    Live l;
    l.in = SetUp(config, num_versions);
    serve::ServeSessionOptions options;
    options.num_query_threads = 1;  // inline: the clients are the load
    options.store.servable.lsh.bits = 128;
    l.session = std::make_unique<serve::ServeSession>(options);
    const double start = Now();
    l.session->Publish(l.in.versions[0], 0);
    first_publish_s = Now() - start;
    return l;
  });
  const Inputs& in = live.in;
  serve::ServeSession* session = live.session.get();
  report.Set("serve.first_publish_s", first_publish_s);

  const double t0 = Now();
  const double cadence = config.seconds / static_cast<double>(num_versions);
  const double stop_at = t0 + config.seconds;
  std::vector<double> publish_ms;
  std::vector<double> hashed, reused;
  std::vector<ClientLog> logs(kClients);
  {
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back(RunClient, std::cref(*session),
                           std::cref(in.first_dims), config.seed * kClients + c,
                           stop_at, &logs[c]);
    }
    for (size_t v = 1; v < num_versions; ++v) {
      const double due = t0 + cadence * static_cast<double>(v);
      std::this_thread::sleep_for(std::chrono::duration<double>(due - Now()));
      obs::SpanTimer span(report.tracer(), "ServeSession.Publish", "serve",
                          "writer");
      session->Publish(in.versions[v], v);
      publish_ms.push_back(span.Stop() * 1e3);
      const auto index = session->store().Current()->ann_index();
      hashed.push_back(static_cast<double>(index->hashed_rows()));
      reused.push_back(static_cast<double>(index->reused_rows()));
    }
    for (std::thread& t : clients) t.join();
  }

  ClientLog all;
  double throughput = 0.0;  // each closed-loop client's rate, summed
  for (ClientLog& log : logs) {
    all.all_ms.insert(all.all_ms.end(), log.all_ms.begin(), log.all_ms.end());
    for (size_t t = 0; t < 3; ++t) {
      all.us[t].insert(all.us[t].end(), log.us[t].begin(), log.us[t].end());
    }
    all.attempted += log.attempted;
    all.failed += log.failed;
    throughput += static_cast<double>(log.attempted - log.failed) / log.busy_s;
    for (Sample& s : log.samples) all.samples.push_back(std::move(s));
  }
  report.Count(all.attempted, all.failed);
  report.Set("throughput", throughput);
  report.SetLatency(all.all_ms);
  report.Set("success_share", 1.0 - static_cast<double>(all.failed) /
                                        static_cast<double>(all.attempted));
  report.SetP50P99("serve.point_us", all.us[0]);
  report.SetP50P99("serve.batch_us", all.us[1]);
  report.SetP50P99("serve.topk_us", all.us[2]);
  report.SetP50Max("serve.publish_ms", publish_ms);
  report.Set("ann.rows_hashed_per_publish", Mean(hashed));
  report.Set("ann.rows_reused_per_publish", Mean(reused));

  const serve::ServeMetricsReport served = session->metrics().Report();
  const uint64_t topk = served.topk_by_search[static_cast<size_t>(
      serve::SearchMode::kAnnCached)];
  report.Set("ann.rows_scored_per_topk",
             static_cast<double>(served.topk_rows_scored_total) /
                 static_cast<double>(std::max<uint64_t>(topk, 1)));
  report.Set("ann.cache_hit_share",
             static_cast<double>(served.cache_hits) /
                 static_cast<double>(std::max<uint64_t>(topk, 1)));
  uint64_t least_served = UINT64_MAX;
  for (uint64_t v = 1; v <= num_versions; ++v) {
    const auto it = served.served_per_version.find(v);
    least_served = std::min<uint64_t>(
        least_served, it == served.served_per_version.end() ? 0 : it->second);
  }
  report.Set("serve.queries_per_version",
             static_cast<double>(served.queries_total) /
                 static_cast<double>(num_versions));

  // Outside the timed phase: recall of the sampled ANN answers against a
  // brute-force scan of the version that answered, exact top-K against
  // brute force, and the final version's fit against the final tensor.
  double recall_sum = 0.0;
  for (const Sample& s : all.samples) {
    const auto truth = BruteForceTopK(in.versions[s.version_index], s.anchor);
    std::set<uint64_t> want;
    for (const serve::ScoredIndex& e : truth) want.insert(e.index);
    size_t hit = 0;
    for (const serve::ScoredIndex& e : s.answer) hit += want.count(e.index);
    recall_sum += static_cast<double>(hit) / static_cast<double>(want.size());
  }
  const double recall =
      all.samples.empty() ? 0.0
                          : recall_sum / static_cast<double>(all.samples.size());
  report.Set("ann.recall_at_10", recall);
  std::printf("serve_live: %llu queries, %zu publishes, recall@10 %.4f over "
              "%zu sampled top-K answers\n",
              static_cast<unsigned long long>(all.attempted),
              publish_ms.size() + 1, recall, all.samples.size());

  bool exact_ok = true;
  size_t exact_checked = 0;
  for (size_t i = 0; i < all.samples.size() && exact_checked < 64;
       i += 1 + all.samples.size() / 64, ++exact_checked) {
    serve::TopKQuery exact;
    exact.target_mode = 0;
    exact.anchor = all.samples[i].anchor;
    exact.k = kTopK;
    exact.search = serve::SearchMode::kExact;
    const auto got = session->engine().TopK(exact);
    exact_ok = exact_ok && got.ok() &&
               SameTopK(got.value(),
                        BruteForceTopK(in.versions.back(), exact.anchor));
  }
  const double fit = in.versions.back().Fit(in.full);
  report.Set("fit", fit);
  bool finite = true;
  for (const KruskalTensor& v : in.versions) finite = finite && FactorsFinite(v);
  report.Check("serve_live factors finite", finite);
  report.Check("serve_live exact top-K == brute force on " +
                   std::to_string(exact_checked) + " sampled queries",
               exact_ok && exact_checked > 0);
  report.Check("serve_live ANN recall@10 >= 0.9", recall >= 0.9);
  report.Check("serve_live every version answered queries", least_served > 0);
  report.Pin("serve_live.fit", Exact(fit));
}

}  // namespace perfbench
