#ifndef DISMASTD_DIST_NETWORK_H_
#define DISMASTD_DIST_NETWORK_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "common/serialization.h"
#include "common/status.h"
#include "dist/comm_stats.h"
#include "dist/fault.h"
#include "obs/histogram.h"

namespace dismastd {

/// A point-to-point message between simulated workers. The payload is a real
/// serialized byte buffer so that communication volume equals what a real
/// network would carry.
struct Message {
  uint32_t src = 0;
  uint32_t dst = 0;
  uint32_t tag = 0;
  std::vector<uint8_t> payload;
};

/// Deterministic in-process message fabric connecting `num_workers` nodes.
///
/// Delivery is FIFO per destination in global send order, which makes every
/// collective built on top of it reproducible. All traffic is counted both
/// globally and per source/destination worker (the per-worker counters feed
/// the cost model's bandwidth term).
class SimulatedNetwork {
 public:
  /// Which accounting bucket remote traffic lands in. Migration traffic
  /// (elastic state handoff) is counted separately in CommStats so
  /// rebalance cost stays distinguishable from algorithm traffic.
  enum class TrafficClass { kGeneral, kMigration };

  explicit SimulatedNetwork(uint32_t num_workers);

  uint32_t num_workers() const { return num_workers_; }

  /// Grows the fabric by `count` fresh workers (empty inboxes, zeroed
  /// per-worker counters) at the next ranks.
  void AddWorkers(uint32_t count);

  /// Removes the `count` highest-ranked workers. Fails if a drained
  /// worker still holds undelivered messages (the drain must happen at a
  /// fully-drained BSP boundary) or if it would empty the cluster.
  Status RemoveWorkers(uint32_t count);

  /// Sets the accounting bucket for subsequent sends (see TrafficClass).
  void SetTrafficClass(TrafficClass traffic_class) {
    traffic_class_ = traffic_class;
  }
  TrafficClass traffic_class() const { return traffic_class_; }

  /// Attaches (or detaches, with nullptr) a deterministic fault source.
  /// While an injector with message faults is attached, every payload is
  /// framed with a trailing CRC32 and remote sends may be dropped,
  /// corrupted or delayed according to the injector's plan. The injector
  /// must outlive the network or be detached first.
  void AttachFaultInjector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* fault_injector() const { return injector_; }

  /// Attaches (or detaches, with nullptr) a histogram that receives the
  /// wire size of every remote message sent — the per-collective message
  /// size distribution of the run. The histogram must outlive the network
  /// or be detached first.
  void AttachMessageByteHistogram(obs::Pow2Histogram* histogram) {
    message_bytes_ = histogram;
  }

  /// True when payloads are CRC-framed (an injector with message faults is
  /// attached).
  bool framing_enabled() const {
    return injector_ != nullptr && injector_->message_faults();
  }
  /// Bytes one message of `payload_bytes` occupies on the wire, including
  /// the CRC frame when framing is enabled.
  uint64_t WireBytes(uint64_t payload_bytes) const {
    return payload_bytes + (framing_enabled() ? sizeof(uint32_t) : 0);
  }

  /// Sends `payload` from `src` to `dst` with a user tag. Self-sends are
  /// allowed but are not counted as network traffic (local move) and never
  /// suffer transit faults. A dropped message is counted as sent traffic
  /// (the bytes left the source) but never arrives.
  Status Send(uint32_t src, uint32_t dst, uint32_t tag,
              std::vector<uint8_t> payload);

  /// Counts one remote message of `wire_bytes` from `src` to `dst` (src !=
  /// dst): CommStats (and its migration share under kMigration), the
  /// per-worker bytes and messages, and the message-byte histogram. A
  /// message that is not `delivered` (dropped in transit) counts as sent
  /// but not as received. Send counts every remote message through this;
  /// a fault-free collective calls it for each message it books without
  /// moving (Cluster::AllToAllReduceMatrix), so both count alike.
  void BookRemote(uint32_t src, uint32_t dst, uint64_t wire_bytes,
                  bool delivered = true);

  /// Pops the oldest pending message for `dst` with the given tag.
  /// Returns NotFound if none is pending. With framing enabled, verifies
  /// and strips the CRC; a checksum mismatch consumes the message and
  /// returns IoError (the caller retransmits).
  Result<Message> Receive(uint32_t dst, uint32_t tag);

  /// End-of-superstep hygiene check: every committed superstep must have
  /// drained its collectives. Returns the number of undelivered messages;
  /// if non-zero, logs a warning and records an orphan event in stats().
  size_t CheckNoOrphans();

  /// Number of undelivered messages for `dst` (any tag).
  size_t PendingCount(uint32_t dst) const;

  /// Total undelivered messages across all workers.
  size_t TotalPending() const;

  const CommStats& stats() const { return stats_; }
  uint64_t bytes_sent_by(uint32_t worker) const { return bytes_sent_[worker]; }
  uint64_t bytes_received_by(uint32_t worker) const {
    return bytes_recv_[worker];
  }
  uint64_t messages_sent_by(uint32_t worker) const { return msgs_sent_[worker]; }

  /// Clears counters (not pending queues).
  void ResetStats();

 private:
  uint32_t num_workers_;
  std::vector<std::deque<Message>> inboxes_;  // per destination
  TrafficClass traffic_class_ = TrafficClass::kGeneral;
  FaultInjector* injector_ = nullptr;         // not owned
  obs::Pow2Histogram* message_bytes_ = nullptr;  // not owned
  CommStats stats_;
  std::vector<uint64_t> bytes_sent_;
  std::vector<uint64_t> bytes_recv_;
  std::vector<uint64_t> msgs_sent_;
};

/// RAII guard that routes a scope's sends into a traffic class and
/// restores the previous class on exit.
class ScopedTrafficClass {
 public:
  ScopedTrafficClass(SimulatedNetwork& network,
                     SimulatedNetwork::TrafficClass traffic_class)
      : network_(network), previous_(network.traffic_class()) {
    network_.SetTrafficClass(traffic_class);
  }
  ~ScopedTrafficClass() { network_.SetTrafficClass(previous_); }
  ScopedTrafficClass(const ScopedTrafficClass&) = delete;
  ScopedTrafficClass& operator=(const ScopedTrafficClass&) = delete;

 private:
  SimulatedNetwork& network_;
  SimulatedNetwork::TrafficClass previous_;
};

}  // namespace dismastd

#endif  // DISMASTD_DIST_NETWORK_H_
