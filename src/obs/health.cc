#include "obs/health.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/string_util.h"

namespace dismastd {
namespace obs {

namespace {

/// Max SLO rules per monitor; bounds the edge-trigger state array.
constexpr size_t kMaxSloRules = 16;

std::vector<std::string> SplitTokens(const std::string& text, char sep) {
  std::vector<std::string> out;
  std::string current;
  for (char c : text) {
    if (c == sep) {
      out.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  out.push_back(current);
  return out;
}

}  // namespace

const char* HealthSignalName(HealthSignal signal) {
  switch (signal) {
    case HealthSignal::kStepSimSeconds:
      return "step_sim_seconds";
    case HealthSignal::kServeP99Ms:
      return "serve_p99_ms";
    case HealthSignal::kIngestQueueDepth:
      return "ingest_queue_depth";
    case HealthSignal::kImbalance:
      return "imbalance";
    case HealthSignal::kRetransmittedBytes:
      return "retransmitted_bytes";
    case HealthSignal::kFitness:
      return "fit";
    case HealthSignal::kCwinWindowEvents:
      return "cwin_window_events";
    case HealthSignal::kCwinDrift:
      return "cwin_drift";
  }
  return "?";
}

Result<HealthSignal> ParseHealthSignal(const std::string& text) {
  EnumToken<HealthSignal> tokens[kNumHealthSignals] = {};
  for (size_t i = 0; i < kNumHealthSignals; ++i) {
    const HealthSignal signal = static_cast<HealthSignal>(i);
    tokens[i] = {HealthSignalName(signal), signal};
  }
  return ParseEnumToken<HealthSignal>(text, "health signal", tokens);
}

const char* AlertKindName(AlertKind kind) {
  switch (kind) {
    case AlertKind::kZScore:
      return "zscore";
    case AlertKind::kTrend:
      return "trend";
    case AlertKind::kSlo:
      return "slo";
  }
  return "?";
}

void AlertEvent::SetRule(const char* text) {
  std::strncpy(rule, text, sizeof(rule) - 1);
  rule[sizeof(rule) - 1] = '\0';
}

std::string AlertEvent::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "step %llu  %-6s %-20s value=%.6g threshold=%.6g  %s",
                static_cast<unsigned long long>(step), AlertKindName(kind),
                HealthSignalName(signal), value, threshold, rule);
  return buf;
}

bool EwmaDetector::Observe(double value, double* z_out) {
  bool spike = false;
  double z = 0.0;
  if (n_ >= warmup_) {
    // Floor the deviation at 5% of the decayed mean (plus an absolute
    // epsilon) so a flat baseline still produces finite z-scores: a 2x
    // spike over a constant signal scores z = 20.
    const double floor = std::max(1e-12, 0.05 * std::fabs(mean_));
    const double stddev = std::max(std::sqrt(std::max(var_, 0.0)), floor);
    z = (value - mean_) / stddev;
    spike = z > z_threshold_;
  }
  if (n_ == 0) {
    mean_ = value;
    var_ = 0.0;
  } else {
    const double delta = value - mean_;
    mean_ += alpha_ * delta;
    // Exponentially decayed variance (West 1979 incremental form).
    var_ = (1.0 - alpha_) * (var_ + alpha_ * delta * delta);
  }
  ++n_;
  if (z_out != nullptr) *z_out = z;
  return spike;
}

bool TrendDetector::Observe(double value) {
  if (have_prev_ && value < prev_) {
    ++streak_;
  } else {
    streak_ = 0;
    armed_ = true;
  }
  have_prev_ = true;
  prev_ = value;
  if (armed_ && window_ > 0 && streak_ >= window_) {
    armed_ = false;  // one alert per decay episode
    return true;
  }
  return false;
}

bool SloRule::Holds(double value) const {
  switch (op) {
    case Op::kLt:
      return value < bound;
    case Op::kLe:
      return value <= bound;
    case Op::kGt:
      return value > bound;
    case Op::kGe:
      return value >= bound;
  }
  return true;
}

Result<std::vector<SloRule>> ParseSloSpec(const std::string& spec) {
  std::vector<SloRule> rules;
  const std::vector<std::string> tokens = SplitTokens(spec, ',');
  for (size_t i = 0; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (token.empty()) continue;
    // Every error names the offending token and its 1-based position, the
    // same contract as ParseScalePlan: a typo deep inside a long spec is
    // findable from the message alone.
    const auto fail = [&](const std::string& why) {
      return Status::InvalidArgument("slo spec token " + std::to_string(i + 1) +
                                     " ('" + token + "'): " + why);
    };
    const size_t op_at = token.find_first_of("<>");
    if (op_at == std::string::npos) {
      return fail("expected SIGNAL<BOUND, SIGNAL<=BOUND, SIGNAL>BOUND or "
                  "SIGNAL>=BOUND");
    }
    SloRule rule;
    auto signal = ParseHealthSignal(token.substr(0, op_at));
    if (!signal.ok()) return fail(signal.status().message());
    rule.signal = signal.value();
    size_t bound_at = op_at + 1;
    const bool or_equal = bound_at < token.size() && token[bound_at] == '=';
    if (or_equal) ++bound_at;
    rule.op = token[op_at] == '<' ? (or_equal ? SloRule::Op::kLe
                                              : SloRule::Op::kLt)
                                  : (or_equal ? SloRule::Op::kGe
                                              : SloRule::Op::kGt);
    const std::string bound_text = token.substr(bound_at);
    char* end = nullptr;
    rule.bound = std::strtod(bound_text.c_str(), &end);
    if (bound_text.empty() || end == nullptr || *end != '\0' ||
        !std::isfinite(rule.bound)) {
      return fail("bound '" + bound_text + "' is not a finite number");
    }
    std::strncpy(rule.text, token.c_str(), sizeof(rule.text) - 1);
    rule.text[sizeof(rule.text) - 1] = '\0';
    if (rules.size() >= kMaxSloRules) {
      return fail("too many rules (max " + std::to_string(kMaxSloRules) + ")");
    }
    rules.push_back(rule);
  }
  return rules;
}

HealthMonitor::HealthMonitor(HealthOptions options)
    : options_(std::move(options)),
      spike_{{EwmaDetector(options_.ewma_alpha, options_.z_threshold,
                           options_.warmup),
              EwmaDetector(options_.ewma_alpha, options_.z_threshold,
                           options_.warmup),
              EwmaDetector(options_.ewma_alpha, options_.z_threshold,
                           options_.warmup),
              EwmaDetector(options_.ewma_alpha, options_.z_threshold,
                           options_.warmup),
              EwmaDetector(options_.ewma_alpha, options_.z_threshold,
                           options_.warmup),
              EwmaDetector(options_.ewma_alpha, options_.z_threshold,
                           options_.warmup),
              EwmaDetector(options_.ewma_alpha, options_.z_threshold,
                           options_.warmup),
              EwmaDetector(options_.ewma_alpha, options_.z_threshold,
                           options_.warmup)}},
      trend_(options_.trend_window) {
  options_.slo.resize(std::min(options_.slo.size(), kMaxSloRules));
  for (auto& value : last_value_) {
    value.store(0.0, std::memory_order_relaxed);
  }
  for (auto& count : alerts_by_kind_) {
    count.store(0, std::memory_order_relaxed);
  }
  for (auto& count : published_by_kind_) {
    count.store(0, std::memory_order_relaxed);
  }
}

void HealthMonitor::Observe(HealthSignal signal, uint64_t step, double value,
                            Tracer* tracer) {
  if (!enabled()) return;
  const size_t index = static_cast<size_t>(signal);
  last_value_[index].store(value, std::memory_order_relaxed);

  if (signal == HealthSignal::kFitness) {
    // Fitness decays slowly and monotonically under drift; a z-score on it
    // would only see the (expected) per-step wobble. Watch for sustained
    // decrease instead.
    if (trend_.Observe(value)) {
      char rule[48];
      std::snprintf(rule, sizeof(rule), "trend:%s", HealthSignalName(signal));
      Emit(AlertKind::kTrend, signal, step, value,
           static_cast<double>(options_.trend_window), rule, tracer);
    }
  } else {
    double z = 0.0;
    if (spike_[index].Observe(value, &z)) {
      char rule[48];
      std::snprintf(rule, sizeof(rule), "zscore:%s", HealthSignalName(signal));
      Emit(AlertKind::kZScore, signal, step, z, options_.z_threshold, rule,
           tracer);
    }
  }

  for (size_t r = 0; r < options_.slo.size(); ++r) {
    const SloRule& rule = options_.slo[r];
    if (rule.signal != signal) continue;
    const bool violated = !rule.Holds(value);
    // Edge-triggered: alert once on the ok -> violated transition, re-arm
    // when the signal recovers, so a sustained breach is one alert.
    if (violated && slo_violated_[r] == 0) {
      Emit(AlertKind::kSlo, signal, step, value, rule.bound, rule.text,
           tracer);
    }
    slo_violated_[r] = violated ? 1 : 0;
  }
}

void HealthMonitor::Emit(AlertKind kind, HealthSignal signal, uint64_t step,
                         double value, double threshold, const char* rule,
                         Tracer* tracer) {
  AlertEvent event;
  event.sequence = alerts_.total();
  event.step = step;
  event.kind = kind;
  event.signal = signal;
  event.value = value;
  event.threshold = threshold;
  event.SetRule(rule);
  alerts_.Push(event);
  alerts_by_kind_[static_cast<size_t>(kind)].fetch_add(
      1, std::memory_order_relaxed);
  if (obs::Active(tracer)) {
    // Lands at the current sim base — the end timestamp of the step that
    // produced the observation — on the driver lane, preserving per-lane
    // monotonicity (the next step begins at the same timestamp).
    tracer->InstantSim(Tracer::kDriverLane, rule, "alert", 0.0,
                       {{"rule", rule},
                        {"step", std::to_string(step)},
                        {"signal", HealthSignalName(signal)}});
  }
}

double HealthMonitor::last_value(HealthSignal signal) const {
  return last_value_[static_cast<size_t>(signal)].load(
      std::memory_order_relaxed);
}

std::string HealthMonitor::last_alert_rule() const {
  const std::vector<AlertEvent> alerts = alerts_.Snapshot();
  if (alerts.empty()) return "";
  return alerts.back().rule;
}

void HealthMonitor::PublishTo(MetricRegistry* registry) const {
  if (registry == nullptr) return;
  for (size_t k = 0; k < alerts_by_kind_.size(); ++k) {
    // Publish deltas since the last call so repeated publishes (one per
    // step in the CLI) never double count — same discipline as the
    // elastic coordinator.
    const uint64_t count = alerts_by_kind_[k].load(std::memory_order_relaxed);
    const uint64_t seen = published_by_kind_[k].exchange(
        count, std::memory_order_relaxed);
    if (count == seen) continue;
    registry
        ->GetCounter("dismastd_health_alerts_total",
                     {{"kind", AlertKindName(static_cast<AlertKind>(k))}},
                     "Alerts emitted by the health monitor")
        ->Add(count - seen);
  }
  for (size_t i = 0; i < kNumHealthSignals; ++i) {
    const HealthSignal signal = static_cast<HealthSignal>(i);
    registry
        ->GetGauge("dismastd_health_signal",
                   {{"signal", HealthSignalName(signal)}},
                   "Most recent value fed to the health monitor")
        ->Set(last_value(signal));
  }
}

std::string HealthMonitor::AlertsToString() const {
  const std::vector<AlertEvent> alerts = alerts_.Snapshot();
  if (alerts.empty()) return "";
  std::ostringstream os;
  const uint64_t total = alerts_.total();
  os << "health alerts: " << total;
  if (total > alerts.size()) {
    os << " (showing last " << alerts.size() << ")";
  }
  os << "\n";
  for (const AlertEvent& event : alerts) {
    os << "  " << event.ToString() << "\n";
  }
  return os.str();
}

}  // namespace obs
}  // namespace dismastd
