#include "report.h"

#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

const MetricSpec* Find(const std::vector<MetricSpec>& specs,
                       const std::string& name) {
  for (const MetricSpec& spec : specs) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

}  // namespace

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"throughput", "1/s"},      {"latency_p50_ms", "ms"},
      {"latency_tail_ms", "ms"},  {"success_share", "ratio"},
      {"fit", "ratio"},           {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return specs;
}

const std::vector<MetricSpec>& LayerMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"core.step_ms_p50", "ms"},
      {"core.step_ms_max", "ms"},
      {"core.cold_step_s", "s"},
      {"core.sim_s_per_iter", "s"},
      {"core.flops", "flop"},
      {"dist.comm_bytes", "B"},
      {"dist.comm_messages", "count"},
      {"dist.load_imbalance", "ratio"},
      {"partition.ms_p50", "ms"},
      {"tensor.mttkrp_ms_p50", "ms"},
      {"la.solve_rows_ms_p50", "ms"},
      {"ingest.events", "count"},
      {"ingest.decomposed", "count"},
      {"ingest.interior_dropped", "count"},
      {"ingest.late", "count"},
      {"ingest.duplicates", "count"},
      {"ingest.quarantined", "count"},
      {"ingest.batches_event_count", "count"},
      {"ingest.batches_mode_growth", "count"},
      {"ingest.batches_horizon", "count"},
      {"ingest.batches_barrier", "count"},
      {"ingest.batches_end_of_stream", "count"},
      {"ingest.max_queue_depth", "count"},
      {"ingest.block_waits", "count"},
      {"ingest.generator_lag_s", "s"},
      {"ingest.publish_gap_ms_p50", "ms"},
      {"ingest.publish_gap_ms_max", "ms"},
      {"ingest.observer_ms_p50", "ms"},
      {"cwin.updates", "count"},
      {"cwin.rows_solved", "count"},
      {"cwin.rows_per_update", "ratio"},
      {"cwin.evicted", "count"},
      {"cwin.stitches", "count"},
      {"cwin.publishes", "count"},
      {"cwin.window_events", "count"},
      {"cwin.drift", "ratio"},
      {"cwin.publish_gap_max_ms", "ms"},
      {"serve.publish_ms_p50", "ms"},
      {"serve.publish_ms_max", "ms"},
      {"serve.first_publish_s", "s"},
      {"serve.point_us_p50", "us"},
      {"serve.point_us_p99", "us"},
      {"serve.batch_us_p50", "us"},
      {"serve.batch_us_p99", "us"},
      {"serve.topk_us_p50", "us"},
      {"serve.topk_us_p99", "us"},
      {"serve.queries_per_version", "count"},
      {"ann.rows_scored_per_topk", "count"},
      {"ann.cache_hit_share", "ratio"},
      {"ann.rows_hashed_per_publish", "count"},
      {"ann.rows_reused_per_publish", "count"},
      {"ann.recall_at_10", "ratio"},
  };
  return specs;
}

double Now() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point start = Clock::now();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

Report::Report(const RunConfig& config)
    : config_(config),
      tracer_(config.trace ? std::make_unique<dismastd::obs::Tracer>()
                           : nullptr) {}

void Report::Set(const std::string& name, double value) {
  if (Find(EndToEndMetrics(), name) == nullptr &&
      Find(LayerMetrics(), name) == nullptr) {
    std::fprintf(stderr, "perfbench: undeclared metric %s\n", name.c_str());
    declared_ok_ = false;
    return;
  }
  values_[name] = value;
}

void Report::SetP50Max(const std::string& prefix,
                       const std::vector<double>& v) {
  const std::vector<double> sorted = Sorted(v);
  Set(prefix + "_p50", NearestRank(sorted, 500).value);
  Set(prefix + "_max", sorted.empty() ? 0.0 : sorted.back());
}

void Report::SetP50P99(const std::string& prefix,
                       const std::vector<double>& v) {
  const std::vector<double> sorted = Sorted(v);
  Set(prefix + "_p50", NearestRank(sorted, 500).value);
  Set(prefix + "_p99", NearestRank(sorted, 990).value);
}

void Report::SetLatency(const std::vector<double>& ms) {
  const std::vector<double> sorted = Sorted(ms);
  const Percentile p50 = NearestRank(sorted, 500);
  const Percentile tail = TailPercentile(sorted);
  Set("latency_p50_ms", p50.value);
  Set("latency_tail_ms", tail.value);
  std::printf("latency samples: n=%zu, tail = p%g with %zu samples beyond\n",
              tail.count, tail.permille / 10.0, tail.beyond);
}

void Report::Check(const std::string& what, bool ok) {
  std::printf("check %-58s %s\n", what.c_str(), ok ? "ok" : "FAILED");
  if (!ok) failed_checks_.push_back(what);
}

void Report::Count(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Pin(const std::string& name, const std::string& value) {
  std::printf("pinned %s = %s\n", name.c_str(), value.c_str());
}

int Report::Finish() {
  // Every run prints the end-to-end metrics (so traced minus untraced is the
  // tracing overhead); the JSON carries the per-layer ones when traced.
  bool all_present = declared_ok_;
  bool all_finite = true;
  std::string json = "{";
  auto emit = [&](const std::vector<MetricSpec>& specs, bool required,
                  bool to_json) {
    for (const MetricSpec& spec : specs) {
      const auto it = values_.find(spec.name);
      double value = 0.0;  // a layer the workload does not exercise reads 0
      if (it != values_.end()) {
        value = it->second;
      } else if (required) {
        std::fprintf(stderr, "perfbench: %s was not measured\n", spec.name);
        all_present = false;
      }
      all_finite = all_finite && std::isfinite(value);
      if (!std::isfinite(value)) value = 0.0;
      std::printf("metric %-30s %22.10g %s\n", spec.name, value, spec.unit);
      if (!to_json) continue;
      char entry[160];
      std::snprintf(entry, sizeof(entry),
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    json.size() == 1 ? "" : ", ", spec.name, value, spec.unit);
      json += entry;
    }
  };
  emit(EndToEndMetrics(), true, !config_.trace);
  if (config_.trace) emit(LayerMetrics(), false, true);
  json += "}";
  Check("every declared metric measured", all_present);
  Check("every metric finite", all_finite);
  if (tracer_ != nullptr) {
    const std::string path =
        config_.out_dir + "/perfbench_" + config_.workload + "_trace.json";
    if (tracer_->WriteChromeTraceFile(path).ok()) {
      std::printf("spans written to %s\n", path.c_str());
    }
  }
  const bool correct = failed_checks_.empty();
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(attempted_),
      static_cast<unsigned long long>(failed_), json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench
