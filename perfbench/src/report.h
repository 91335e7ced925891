#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

// What one benchmark run reports: the declared metrics (names and units
// mirror BENCHMARK.json), correctness checks, the attempted/failed census,
// and the in-memory span recorder of the traced run.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "stats.h"

namespace perfbench {

/// Parsed command line.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs: checks that every metric is printed, measures nothing.
  bool smoke = false;
  /// Directory the traced run writes its span file into.
  std::string out_dir = ".bench_build";
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, printed by an untraced run. Every workload reports
/// every one of them.
const std::vector<MetricSpec>& EndToEndMetrics();
/// Per-layer metrics, printed by a traced run; 0 where a layer does not
/// take part in the workload.
const std::vector<MetricSpec>& LayerMetrics();

/// Seconds on the steady clock since process start (first call).
double Now();

class Report {
 public:
  explicit Report(const RunConfig& config);

  const RunConfig& config() const { return config_; }
  /// The traced run's in-memory span recorder, written out by Finish();
  /// null in an untraced run, so its spans cost one branch.
  dismastd::obs::Tracer* tracer() { return tracer_.get(); }

  /// Sets a declared metric (end-to-end or per-layer); an undeclared name
  /// is a benchmark bug and fails the run.
  void Set(const std::string& name, double value);
  /// Sets `<prefix>_p50` and `<prefix>_max` (SetP50P99: `<prefix>_p99`)
  /// from raw samples, nearest-rank.
  void SetP50Max(const std::string& prefix, const std::vector<double>& v);
  void SetP50P99(const std::string& prefix, const std::vector<double>& v);
  /// latency_p50_ms and latency_tail_ms from raw millisecond samples; the
  /// tail percentile and its sample counts are printed beside it.
  void SetLatency(const std::vector<double>& ms);

  /// Records a correctness check; any failed check makes correct=false.
  void Check(const std::string& what, bool ok);
  /// Adds to the attempted/failed census of the timed operations.
  void Count(uint64_t attempted, uint64_t failed);
  /// Prints a pinned value (fingerprint, recorded fit) for the spread
  /// report to compare across runs.
  void Pin(const std::string& name, const std::string& value);

  /// Prints every metric with its unit, then the final JSON line. Returns
  /// the process exit code (0 iff every check passed).
  int Finish();

 private:
  RunConfig config_;
  std::unique_ptr<dismastd::obs::Tracer> tracer_;
  std::map<std::string, double> values_;
  std::vector<std::string> failed_checks_;
  bool declared_ok_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
