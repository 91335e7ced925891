#ifndef DISMASTD_OBS_SINKS_H_
#define DISMASTD_OBS_SINKS_H_

#include <memory>
#include <optional>
#include <ostream>
#include <string>

#include "common/status.h"
#include "obs/flightrec.h"
#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dismastd {
namespace obs {

/// Where a run's observability output goes, as its command line gave it.
/// An empty path leaves that sink off.
struct SinkOptions {
  std::string trace_path;
  /// A ParseTraceDetail name; unset means phases. Needs trace_path.
  std::optional<std::string> trace_detail;
  std::string metrics_path;
  /// A ParseSloSpec rule list. When set, or when flight_path is, the run
  /// gets a health monitor (with the default detectors, so a flight dump
  /// carries alert context).
  std::optional<std::string> slo;
  std::string flight_path;
};

/// The observability sinks of one run — tracer, metric registry, health
/// monitor, flight recorder — each present only when asked for. They
/// outlive the run they instrument; Write() writes their files once the
/// run's work is done. While open, the flight recorder doubles as the
/// process-wide black box, so a DISMASTD_CHECK failure or SIGABRT mid-run
/// still dumps to its path.
class RunSinks {
 public:
  RunSinks() = default;
  RunSinks(const RunSinks&) = delete;
  RunSinks& operator=(const RunSinks&) = delete;
  ~RunSinks();

  /// Opens the sinks `options` asks for. Fails on a trace detail without a
  /// trace path, an unknown trace detail, or an invalid SLO spec.
  Status Open(const SinkOptions& options);

  Tracer* tracer() const { return tracer_.get(); }
  MetricRegistry* metrics() const { return metrics_.get(); }
  HealthMonitor* health() const { return health_.get(); }
  FlightRecorder* flight() const { return flight_.get(); }

  /// Writes every open sink's file and its summary to `out`: the trace
  /// (event count, span durations), the health alerts, the metrics (series
  /// count) and the flight dump (frames). The health monitor publishes
  /// into the registry first, so its series reach the metrics file.
  Status Write(std::ostream& out) const;

 private:
  SinkOptions options_;
  std::unique_ptr<Tracer> tracer_;
  std::unique_ptr<MetricRegistry> metrics_;
  std::unique_ptr<HealthMonitor> health_;
  std::unique_ptr<FlightRecorder> flight_;
};

}  // namespace obs
}  // namespace dismastd

#endif  // DISMASTD_OBS_SINKS_H_
