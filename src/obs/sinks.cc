#include "obs/sinks.h"

#include <algorithm>

#include "obs/histogram.h"

namespace dismastd {
namespace obs {

RunSinks::~RunSinks() {
  if (flight_ != nullptr) FlightRecorder::InstallGlobal(nullptr, "");
}

Status RunSinks::Open(const SinkOptions& options) {
  options_ = options;
  if (!options.trace_path.empty()) {
    TraceDetail detail = TraceDetail::kPhases;
    if (options.trace_detail.has_value()) {
      Result<TraceDetail> parsed = ParseTraceDetail(*options.trace_detail);
      if (!parsed.ok()) return parsed.status();
      detail = parsed.value();
    }
    tracer_ = std::make_unique<Tracer>(detail);
  } else if (options.trace_detail.has_value()) {
    return Status::InvalidArgument("--trace-detail needs --trace-out");
  }
  if (!options.metrics_path.empty()) {
    metrics_ = std::make_unique<MetricRegistry>();
  }
  if (options.slo.has_value() || !options.flight_path.empty()) {
    HealthOptions health_options;
    if (options.slo.has_value()) {
      Result<std::vector<SloRule>> rules = ParseSloSpec(*options.slo);
      if (!rules.ok()) return rules.status();
      health_options.slo = std::move(rules).value();
    }
    health_ = std::make_unique<HealthMonitor>(health_options);
  }
  if (!options.flight_path.empty()) {
    flight_ = std::make_unique<FlightRecorder>();
    FlightRecorder::InstallGlobal(flight_.get(), options.flight_path);
  }
  return Status::OK();
}

Status RunSinks::Write(std::ostream& out) const {
  if (tracer_ != nullptr) {
    DISMASTD_RETURN_IF_ERROR(
        tracer_->WriteChromeTraceFile(options_.trace_path));
    out << "trace written to " << options_.trace_path << " ("
        << tracer_->event_count() << " events";
    if (tracer_->dropped_events() > 0) {
      out << ", " << tracer_->dropped_events() << " dropped";
    }
    out << ")\n";
    const HistogramSummary spans =
        Summarize(tracer_->span_duration_nanos(), 1e-3);  // -> us
    if (spans.count > 0) {
      out << "span durations (us): " << FormatSummaryRow(spans) << "\n";
    }
  }
  if (health_ != nullptr) {
    if (metrics_ != nullptr) health_->PublishTo(metrics_.get());
    const std::string alerts = health_->AlertsToString();
    out << (alerts.empty() ? "health alerts: none\n" : alerts);
  }
  if (metrics_ != nullptr) {
    DISMASTD_RETURN_IF_ERROR(
        metrics_->WritePrometheusFile(options_.metrics_path));
    out << "metrics written to " << options_.metrics_path << " ("
        << metrics_->NumSeries() << " series)\n";
  }
  if (flight_ != nullptr) {
    DISMASTD_RETURN_IF_ERROR(flight_->DumpFile(options_.flight_path, "exit"));
    out << "flight recorder dumped to " << options_.flight_path << " ("
        << std::min<uint64_t>(flight_->frames_total(),
                              FlightRecorder::kCapacity)
        << " frames)\n";
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace dismastd
