#ifndef DISMASTD_OBS_METRICS_H_
#define DISMASTD_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "obs/histogram.h"

namespace dismastd {
namespace obs {

/// Ordered label key/value pairs of one metric instance, e.g.
/// {{"subsystem", "comm"}, {"type", "point"}}. Keys are sorted by the
/// registry so the same logical label set always names the same series.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

/// Monotonically increasing counter. Lock-free; safe to Inc/Add from any
/// thread concurrently with exposition.
class Counter {
 public:
  void Inc(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Add(uint64_t n) { Inc(n); }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-written-value gauge with an atomic add (CAS loop — atomic<double>
/// has no fetch_add guarantee pre-C++20 on all targets).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    double prev = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(prev, prev + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Registry of named, labeled counters / gauges / histograms with
/// Prometheus-style text exposition and a JSON dump. Registration
/// (Get* calls) takes a mutex; the returned pointers are stable for the
/// registry's lifetime and their update methods are lock-free, so hot
/// paths register once and then only touch atomics.
///
/// Naming convention (enforced): `dismastd_<subsystem>_<name>` over
/// [a-zA-Z0-9_:], e.g. `dismastd_comm_payload_bytes_total`. Counters end
/// in `_total`; histograms name their unit (`_nanoseconds`, `_bytes`).
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// Get-or-create: the same (name, labels) pair always returns the same
  /// instance, so independent subsystems reporting the same series
  /// accumulate into one metric.
  Counter* GetCounter(const std::string& name, const LabelSet& labels = {},
                      const std::string& help = "");
  Gauge* GetGauge(const std::string& name, const LabelSet& labels = {},
                  const std::string& help = "");
  Pow2Histogram* GetHistogram(const std::string& name,
                              const LabelSet& labels = {},
                              const std::string& help = "");

  /// Number of registered series (all kinds).
  size_t NumSeries() const;

  /// Prometheus text exposition format 0.0.4: one # HELP / # TYPE pair per
  /// family, histograms as cumulative `_bucket{le=...}` + `_sum` + `_count`.
  /// Families and series are emitted in sorted order, so the output is
  /// deterministic for a given set of values.
  std::string ExposePrometheus() const;

  Status WritePrometheusFile(const std::string& path) const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Series {
    Kind kind;
    std::string name;
    LabelSet labels;
    std::string help;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Pow2Histogram> histogram;
  };

  Series* GetOrCreate(Kind kind, const std::string& name,
                      const LabelSet& labels, const std::string& help);

  mutable std::mutex mutex_;
  /// Keyed by name + rendered labels; std::map for sorted exposition.
  std::map<std::string, Series> series_;
};

/// Renders a label set as `{key="value",...}` (empty string for no labels),
/// escaping backslash, double-quote and newline per the Prometheus text
/// format.
std::string RenderLabels(const LabelSet& labels);

}  // namespace obs
}  // namespace dismastd

#endif  // DISMASTD_OBS_METRICS_H_
