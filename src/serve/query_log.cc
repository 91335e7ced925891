#include "serve/query_log.h"

#include <atomic>
#include <thread>

namespace dismastd {
namespace serve {

std::vector<QueryRecord> GenerateQueryLog(const std::vector<uint64_t>& dims,
                                          const QueryLogOptions& options) {
  DISMASTD_CHECK(!dims.empty());
  DISMASTD_CHECK(options.topk_target_mode < dims.size());
  DISMASTD_CHECK(options.topk_fraction >= 0.0 &&
                 options.batch_fraction >= 0.0 &&
                 options.topk_fraction + options.batch_fraction <= 1.0);
  Rng rng(options.seed);
  std::vector<ZipfSampler> samplers;
  samplers.reserve(dims.size());
  for (uint64_t d : dims) samplers.emplace_back(d, options.skew);

  const auto sample_tuple = [&] {
    std::vector<uint64_t> index(dims.size());
    for (size_t n = 0; n < dims.size(); ++n) {
      index[n] = samplers[n].Sample(rng);
    }
    return index;
  };

  std::vector<QueryRecord> log;
  log.reserve(options.num_queries);
  for (uint64_t q = 0; q < options.num_queries; ++q) {
    const double draw = rng.NextDouble();
    QueryRecord record;
    if (draw < options.topk_fraction) {
      record.type = QueryType::kTopK;
      record.topk.target_mode = options.topk_target_mode;
      record.topk.anchor = sample_tuple();
      record.topk.anchor[options.topk_target_mode] = 0;
      record.topk.k = options.k;
      record.topk.search = options.topk_search;
      record.topk.probes = options.topk_probes;
    } else if (draw < options.topk_fraction + options.batch_fraction) {
      record.type = QueryType::kBatch;
      record.indices.reserve(options.batch_size);
      for (size_t i = 0; i < options.batch_size; ++i) {
        record.indices.push_back(sample_tuple());
      }
    } else {
      record.type = QueryType::kPoint;
      record.indices.push_back(sample_tuple());
    }
    log.push_back(std::move(record));
  }
  return log;
}

namespace {

void ReplayOne(const QueryEngine& engine, const QueryRecord& record,
               ReplayStats* stats) {
  bool ok = false;
  switch (record.type) {
    case QueryType::kPoint:
      ok = engine.Predict(record.indices[0]).ok();
      break;
    case QueryType::kBatch:
      ok = engine.PredictBatch(record.indices).ok();
      break;
    case QueryType::kTopK:
      ok = engine.TopK(record.topk).ok();
      break;
  }
  ++(ok ? stats->answered : stats->failed);
}

}  // namespace

ReplayStats ReplayQueryLog(const QueryEngine& engine,
                           const std::vector<QueryRecord>& log,
                           size_t num_clients) {
  if (num_clients == 0) num_clients = 1;
  std::vector<ReplayStats> per_client(num_clients);
  std::vector<std::thread> clients;
  clients.reserve(num_clients);
  for (size_t c = 0; c < num_clients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t q = c; q < log.size(); q += num_clients) {
        ReplayOne(engine, log[q], &per_client[c]);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  ReplayStats total;
  for (const ReplayStats& s : per_client) {
    total.answered += s.answered;
    total.failed += s.failed;
  }
  return total;
}

}  // namespace serve
}  // namespace dismastd
