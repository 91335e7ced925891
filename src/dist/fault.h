#ifndef DISMASTD_DIST_FAULT_H_
#define DISMASTD_DIST_FAULT_H_

#include <cstdint>
#include <string>

#include "common/random.h"
#include "common/status.h"

namespace dismastd {

namespace obs {
class MetricRegistry;
}  // namespace obs

/// CRC-32 (IEEE 802.3, poly 0xEDB88320) over `size` bytes. Used to frame
/// every simulated-network payload when fault injection is active so that
/// in-transit corruption is detected on Receive, exactly like a transport
/// checksum would in a real cluster.
uint32_t Crc32(const uint8_t* data, size_t size);

/// Declarative description of the faults one run should experience. All
/// randomness is derived from `seed` (+ the streaming step), so a plan
/// replays bit-identically: the same messages are dropped, the same bytes
/// flipped, the same worker crashes at the same superstep.
struct FaultPlan {
  /// Sentinel for "no worker crashes".
  static constexpr uint32_t kNoCrash = 0xFFFFFFFFu;

  /// Seed of the injector's private RNG stream.
  uint64_t seed = 0xF417C0DEULL;
  /// Per-remote-message probability of silently losing it in transit.
  double drop_prob = 0.0;
  /// Per-remote-message probability of flipping a payload byte (detected
  /// by the CRC32 frame on Receive and retransmitted).
  double corrupt_prob = 0.0;
  /// Per-remote-message probability of a straggler delay; each delayed
  /// message charges `delay_seconds` to the simulated clock.
  double delay_prob = 0.0;
  double delay_seconds = 5.0e-4;
  /// Worker that crashes (kNoCrash = never). The crash fires during the
  /// decomposition of streaming step `crash_stream_step`, at the first
  /// end-of-iteration boundary where the run's committed-superstep count
  /// has reached `crash_superstep`.
  uint32_t crash_worker = kNoCrash;
  uint64_t crash_stream_step = 0;
  uint64_t crash_superstep = 0;
  /// Bounded retransmission attempts per message before the cluster
  /// escalates to an out-of-band (fault-suppressed) delivery.
  uint32_t max_retries = 6;

  bool HasMessageFaults() const {
    return drop_prob > 0.0 || corrupt_prob > 0.0 || delay_prob > 0.0;
  }
  bool HasCrash() const { return crash_worker != kNoCrash; }
  /// True if this plan can inject anything at all.
  bool HasAnyFault() const { return HasMessageFaults() || HasCrash(); }

  /// Probabilities must be finite, in [0, 1], and sum to at most 1 (a
  /// message suffers at most one transit fault); delays and retry bounds
  /// must be sane.
  Status Validate() const;
};

/// Parses a compact fault-plan spec, e.g.
///   "drop=0.05,corrupt=0.01,delay=0.02,crash=1@3,superstep=12,seed=7"
/// Keys: drop, corrupt, delay, delay_seconds, crash (worker or
/// worker@stream_step), superstep, retries, seed. Unknown keys fail.
Result<FaultPlan> ParseFaultPlan(const std::string& spec);

/// How a crashed worker's lost factor rows are rebuilt at the superstep
/// boundary where the crash is detected.
enum class RecoveryMode {
  /// Reload the step's inputs (the last per-step checkpoint: the previous
  /// snapshot's factors) and replay the step — bit-exact with the
  /// fault-free run, at the cost of redoing the lost iterations.
  kCheckpoint,
  /// Degraded continuation (paper Eq. 2): rebuild the lost old-range rows
  /// from the previous snapshot's Kruskal approximation and re-draw the
  /// lost new rows from the deterministic initialization, then keep
  /// iterating. Cheap, but the result is only approximately the
  /// fault-free one.
  kDegraded,
};

const char* RecoveryModeName(RecoveryMode mode);
Result<RecoveryMode> ParseRecoveryMode(const std::string& text);

/// Counters describing what the fault layer did to one run. Folded into
/// the step record (StreamStepMetrics) so the experiment CSVs can
/// price unreliability.
struct RecoveryMetrics {
  uint64_t messages_dropped = 0;
  uint64_t messages_corrupted = 0;
  uint64_t messages_delayed = 0;
  /// Bounded retransmissions of dropped/corrupt messages.
  uint64_t retransmissions = 0;
  uint64_t retransmitted_bytes = 0;
  /// Transfers that exhausted max_retries and were delivered out of band.
  uint64_t escalations = 0;
  uint64_t crashes = 0;
  uint64_t checkpoint_recoveries = 0;
  uint64_t degraded_recoveries = 0;
  /// Degraded recovery: rows rebuilt from the previous snapshot's Kruskal
  /// approximation (Eq. 2) vs. re-drawn from the deterministic init.
  uint64_t rows_rebuilt_from_prev = 0;
  uint64_t rows_reinitialized = 0;
  /// Simulated seconds of retransmission backoff + straggler delays.
  double fault_overhead_sim_seconds = 0.0;
  /// Simulated seconds lost to crash recovery (wasted pre-crash work,
  /// checkpoint reload, product rebuild supersteps).
  double recovery_sim_seconds = 0.0;

  bool Any() const;
  void Merge(const RecoveryMetrics& other);
  std::string ToString() const;

  /// Adds these counters into the shared registry under
  /// `dismastd_recovery_*`.
  void PublishTo(obs::MetricRegistry* registry) const;
};

/// Deterministic, seed-driven fault source consulted by the
/// SimulatedNetwork (message transit faults) and the decomposition driver
/// (crash schedule). All calls happen on the driver thread — the network
/// and the collectives are driver-side in this simulation — so the
/// injector needs no synchronization and its RNG stream is independent of
/// the execution engine's thread count.
class FaultInjector {
 public:
  enum class Transit { kDeliver, kDrop, kCorrupt, kDelay };

  /// `stream_step` selects which streaming step this run decomposes; the
  /// crash arms only when it matches the plan's crash_stream_step.
  FaultInjector(const FaultPlan& plan, uint64_t stream_step);

  const FaultPlan& plan() const { return plan_; }

  /// Anything to inject for THIS run?
  bool enabled() const { return plan_.HasMessageFaults() || CrashArmed(); }
  /// Message faults possible => every payload is CRC-framed.
  bool message_faults() const { return plan_.HasMessageFaults(); }
  bool CrashArmed() const {
    return plan_.HasCrash() && stream_step_ == plan_.crash_stream_step;
  }

  /// Transit decision for one remote message (one RNG draw). Returns
  /// kDeliver unconditionally while faults are suppressed (out-of-band
  /// escalation delivery).
  Transit OnSend();
  /// Which byte of an about-to-corrupt frame to flip.
  size_t CorruptOffset(size_t frame_size);
  void SuppressFaults(bool suppressed) { suppressed_ = suppressed; }

  /// True exactly once: when the crash is armed, has not fired yet, and
  /// the run's committed-superstep count has reached the plan's threshold.
  bool CrashPending(uint64_t committed_supersteps);

  /// Charges simulated seconds of fault overhead (backoff, delays) /
  /// crash recovery. Both accrue into a pending pool the cluster folds
  /// into the clock at the next superstep commit.
  void ChargeFaultOverhead(double seconds);
  void ChargeRecovery(double seconds);
  double DrainPendingSimSeconds();

  RecoveryMetrics& metrics() { return metrics_; }
  const RecoveryMetrics& metrics() const { return metrics_; }

 private:
  FaultPlan plan_;
  uint64_t stream_step_;
  Rng rng_;
  bool suppressed_ = false;
  bool crash_fired_ = false;
  double pending_sim_seconds_ = 0.0;
  RecoveryMetrics metrics_;
};

}  // namespace dismastd

#endif  // DISMASTD_DIST_FAULT_H_
