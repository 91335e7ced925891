#ifndef DISMASTD_SERVE_QUERY_LOG_H_
#define DISMASTD_SERVE_QUERY_LOG_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "serve/query_engine.h"

namespace dismastd {
namespace serve {

/// One replayable request of a synthetic serving trace.
struct QueryRecord {
  QueryType type = QueryType::kPoint;
  /// kPoint: one tuple; kBatch: batch_size tuples.
  std::vector<std::vector<uint64_t>> indices;
  /// kTopK only.
  TopKQuery topk;
};

struct QueryLogOptions {
  uint64_t num_queries = 1000;
  /// Request mix; the remainder after top-K and batch is point lookups.
  double topk_fraction = 0.2;
  double batch_fraction = 0.2;
  size_t batch_size = 64;
  size_t k = 10;
  /// Mode ranked by top-K queries (the "recommend products" axis).
  size_t topk_target_mode = 1;
  /// Search path and ANN shortlist multiplier copied into every generated
  /// top-K query (see TopKQuery).
  SearchMode topk_search = SearchMode::kExact;
  size_t topk_probes = 8;
  /// Zipf exponent skewing which rows are queried — real serving traffic
  /// concentrates on head users/items. 0 = uniform.
  double skew = 0.8;
  uint64_t seed = 1;
};

/// Generates a deterministic synthetic query log over index space `dims`.
/// Replaying it against any model whose dims are >= `dims` per mode is
/// valid, so generate against the stream's FIRST snapshot dims to keep
/// every query in bounds across all published versions.
std::vector<QueryRecord> GenerateQueryLog(const std::vector<uint64_t>& dims,
                                          const QueryLogOptions& options);

struct ReplayStats {
  uint64_t answered = 0;
  /// Queries rejected by the engine (no model yet, bounds) — a correct
  /// setup replays with zero failures.
  uint64_t failed = 0;
};

/// Replays `log` against `engine` on `num_clients` OS threads (round-robin
/// split, each client replays its share in order). Blocks until all
/// clients finish. `num_clients == 0` is treated as 1.
ReplayStats ReplayQueryLog(const QueryEngine& engine,
                           const std::vector<QueryRecord>& log,
                           size_t num_clients);

}  // namespace serve
}  // namespace dismastd

#endif  // DISMASTD_SERVE_QUERY_LOG_H_
