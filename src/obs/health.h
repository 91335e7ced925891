#ifndef DISMASTD_OBS_HEALTH_H_
#define DISMASTD_OBS_HEALTH_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/seqlock_ring.h"
#include "obs/trace.h"

namespace dismastd {
namespace obs {

/// Well-known telemetry signals the HealthMonitor watches. Each signal is
/// fed one observation per stream step (or per publish, for serving) from
/// the layer that owns it; the monitor never reaches into other modules.
enum class HealthSignal : uint8_t {
  /// Simulated seconds for a whole stream step (cost-model time).
  kStepSimSeconds = 0,
  /// Serving p99 latency in milliseconds (wall clock, topk lane).
  kServeP99Ms,
  /// Ingest queue depth (events buffered between producers and builder).
  kIngestQueueDepth,
  /// BSP load imbalance: busiest worker / average busy seconds.
  kImbalance,
  /// Bytes retransmitted by the fault-recovery layer this step.
  kRetransmittedBytes,
  /// Streaming fitness estimate (1 - relative error); watched for decay.
  kFitness,
  /// Events retained in the continuous path's sliding window (watched for
  /// unbounded growth when eviction stalls).
  kCwinWindowEvents,
  /// Drift the last stitch corrected: exact-fit minus incremental-fit
  /// over the window (watched for incremental-update divergence).
  kCwinDrift,
};
inline constexpr size_t kNumHealthSignals = 8;

const char* HealthSignalName(HealthSignal signal);
Result<HealthSignal> ParseHealthSignal(const std::string& text);

/// What tripped an alert.
enum class AlertKind : uint8_t {
  /// EWMA + z-score spike detector on one signal.
  kZScore = 0,
  /// Monotone-trend detector (consecutive fitness decreases).
  kTrend,
  /// A declarative SLO rule crossed its bound.
  kSlo,
};
const char* AlertKindName(AlertKind kind);

/// One structured alert. Trivially copyable and fixed-size so pushing it
/// never allocates: the rule name lives in an inline char array.
struct AlertEvent {
  /// 0-based index in emission order (== AlertRing sequence).
  uint64_t sequence = 0;
  uint64_t step = 0;
  AlertKind kind = AlertKind::kZScore;
  HealthSignal signal = HealthSignal::kStepSimSeconds;
  /// The observed value and the bound it broke (z-score threshold for
  /// kZScore, consecutive-decrease window for kTrend, SLO bound for kSlo).
  double value = 0.0;
  double threshold = 0.0;
  /// NUL-terminated rule name, e.g. "zscore:step_sim_seconds" or the SLO
  /// token "serve_p99_ms<5". Truncated if longer than the array.
  char rule[48] = {0};

  void SetRule(const char* text);
  std::string ToString() const;
};
static_assert(std::is_trivially_copyable<AlertEvent>::value,
              "AlertEvent must stay POD: it crosses the lock-free ring");

/// The most recent 256 alerts; total() counts every alert ever pushed.
using AlertRing = SeqlockRing<AlertEvent, 256>;

/// Online spike detector: exponentially decayed mean and variance with a
/// one-sided z-score test. Seed-free and deterministic — state is a pure
/// function of the observation sequence. The standard deviation is floored
/// at a fraction of the decayed mean so a near-constant baseline (zero
/// sample variance) still yields finite, meaningful z-scores.
class EwmaDetector {
 public:
  EwmaDetector(double alpha, double z_threshold, uint64_t warmup)
      : alpha_(alpha), z_threshold_(z_threshold), warmup_(warmup) {}

  /// Folds one observation. Returns true when the sample spikes above the
  /// decayed baseline (z > threshold) after the warmup period. The
  /// observation is folded into the baseline either way, so a sustained
  /// shift re-arms instead of alerting forever.
  bool Observe(double value, double* z_out);

  double mean() const { return mean_; }
  uint64_t samples() const { return n_; }

 private:
  double alpha_;
  double z_threshold_;
  uint64_t warmup_;
  double mean_ = 0.0;
  double var_ = 0.0;
  uint64_t n_ = 0;
};

/// Monotone-trend detector: fires once when a signal has strictly
/// decreased for `window` consecutive observations, then re-arms on the
/// next non-decreasing observation. Used for fitness decay.
class TrendDetector {
 public:
  explicit TrendDetector(uint32_t window) : window_(window) {}

  bool Observe(double value);
  uint32_t streak() const { return streak_; }

 private:
  uint32_t window_;
  uint32_t streak_ = 0;
  bool armed_ = true;
  bool have_prev_ = false;
  double prev_ = 0.0;
};

/// One declarative SLO rule: `signal op bound`, violated when the
/// observed value breaks the stated objective (e.g. "serve_p99_ms<5" is
/// violated by p99 >= 5 ms). Alerts are edge-triggered: one AlertEvent on
/// the ok -> violated transition, re-armed when the signal recovers.
struct SloRule {
  enum class Op : uint8_t { kLt, kLe, kGt, kGe };

  HealthSignal signal = HealthSignal::kStepSimSeconds;
  Op op = Op::kLt;
  double bound = 0.0;
  /// The source token, kept for alert/report text.
  char text[48] = {0};

  /// True when `value` satisfies the objective.
  bool Holds(double value) const;
};

/// Parses a comma-separated SLO spec, e.g. "serve_p99_ms<5,imbalance<1.5".
/// Ops: < <= > >=. Errors name the offending token and its 1-based
/// position (same contract as ParseScalePlan) so a typo in a long spec is
/// findable from the message alone.
Result<std::vector<SloRule>> ParseSloSpec(const std::string& spec);

struct HealthOptions {
  /// EWMA decay for the spike detectors (weight of the newest sample).
  double ewma_alpha = 0.3;
  /// One-sided z-score threshold for spike alerts.
  double z_threshold = 4.0;
  /// Observations folded before the z-score test starts firing.
  uint64_t warmup = 8;
  /// Consecutive strict fitness decreases before the trend detector fires.
  uint32_t trend_window = 5;
  /// Declarative SLO rules (see ParseSloSpec).
  std::vector<SloRule> slo;
};

/// Watches the per-step telemetry stream and turns anomalies into
/// structured AlertEvents. One instance per run, driven from the layers
/// that own each signal (driver, ingest session, serve publish path).
///
/// Determinism: every detector is seed-free and a pure function of the
/// observation sequence, and all simulated signals are themselves
/// bit-identical across execution thread counts, so alert sequences are
/// reproducible. Observe() is lock-free and allocation-free.
///
/// Like the tracer, a monitor is attached as a raw pointer and every hook
/// is guarded by `obs::Active(monitor)`; a disabled or absent monitor
/// costs a null check plus one relaxed atomic load.
class HealthMonitor {
 public:
  explicit HealthMonitor(HealthOptions options = HealthOptions());

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Feeds one observation for `signal` at `step`. Runs the signal's
  /// detector (z-score, or monotone trend for kFitness) plus any SLO rules
  /// bound to the signal, pushing AlertEvents into the ring. When a tracer
  /// is active, each alert also lands as an instant event on the driver
  /// sim lane at the current sim base (the step-end timestamp).
  void Observe(HealthSignal signal, uint64_t step, double value,
               Tracer* tracer = nullptr);

  const AlertRing& alerts() const { return alerts_; }
  uint64_t alerts_total() const { return alerts_.total(); }
  /// Most recent value fed for `signal` (0 before the first observation).
  double last_value(HealthSignal signal) const;
  /// NUL-terminated name of the most recent alert's rule ("" if none).
  std::string last_alert_rule() const;

  const HealthOptions& options() const { return options_; }

  /// Adds alert counters and last-value gauges into the shared registry
  /// under `dismastd_health_*`.
  void PublishTo(MetricRegistry* registry) const;

  /// Multi-line human summary of the retained alerts ("" when quiet).
  std::string AlertsToString() const;

 private:
  void Emit(AlertKind kind, HealthSignal signal, uint64_t step, double value,
            double threshold, const char* rule, Tracer* tracer);

  HealthOptions options_;
  std::atomic<bool> enabled_{true};
  std::array<EwmaDetector, kNumHealthSignals> spike_;
  TrendDetector trend_;
  std::array<std::atomic<double>, kNumHealthSignals> last_value_{};
  std::array<uint8_t, 16> slo_violated_{};  // edge-trigger state per rule
  AlertRing alerts_;
  std::array<std::atomic<uint64_t>, 3> alerts_by_kind_{};
  /// Counts already folded into a registry (PublishTo publishes deltas).
  mutable std::array<std::atomic<uint64_t>, 3> published_by_kind_{};
};

/// True when alert hooks should run: a monitor is attached AND enabled.
inline bool Active(const HealthMonitor* monitor) {
  return monitor != nullptr && monitor->enabled();
}

}  // namespace obs
}  // namespace dismastd

#endif  // DISMASTD_OBS_HEALTH_H_
