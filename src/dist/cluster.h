#ifndef DISMASTD_DIST_CLUSTER_H_
#define DISMASTD_DIST_CLUSTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dist/cost_model.h"
#include "dist/fault.h"
#include "dist/network.h"
#include "la/matrix.h"
#include "obs/trace.h"

namespace dismastd {

/// Serializes a matrix into a byte payload (shape header + raw doubles).
std::vector<uint8_t> SerializeMatrix(const Matrix& m);

/// Inverse of SerializeMatrix.
Result<Matrix> DeserializeMatrix(const std::vector<uint8_t>& bytes);

/// A simulated cluster of `num_workers` BSP worker nodes.
///
/// The cluster advances a simulated clock: each committed superstep adds the
/// cost-model time of its slowest worker (compute + communication + task
/// startup). Collectives route real serialized bytes through the
/// SimulatedNetwork so that communication totals match what MPI/Spark would
/// move for the same algorithm.
class Cluster {
 public:
  Cluster(uint32_t num_workers, CostModelConfig config = {});

  uint32_t num_workers() const { return network_.num_workers(); }
  SimulatedNetwork& network() { return network_; }
  const CostModelConfig& config() const { return config_; }

  /// Elastic scale-out: `count` fresh workers join at the next ranks with
  /// empty inboxes and zeroed cumulative counters. Call only between
  /// supersteps; the joiners' state handoff is the caller's migration.
  void AddWorkers(uint32_t count);

  /// Elastic scale-in: the `count` highest-ranked workers leave. Fails if
  /// a drained worker still holds undelivered messages — drains reuse the
  /// checkpoint-recovery discipline of handing state off at a fully
  /// drained BSP boundary (the caller migrates shards away first).
  Status DrainWorkers(uint32_t count);

  /// Cumulative per-worker busy seconds across committed supersteps: the
  /// cost model's per-worker term before the BSP max. This is the load
  /// signal the elastic LoadMonitor folds into its imbalance ratio.
  const std::vector<double>& per_worker_busy_seconds() const {
    return busy_seconds_;
  }
  /// Cumulative per-worker sparse elements (nnz) processed.
  const std::vector<uint64_t>& per_worker_processed_elements() const {
    return processed_elements_;
  }

  /// Attaches a deterministic fault source to this cluster and its network
  /// fabric. Collectives then retransmit dropped/corrupt messages with
  /// bounded retries, charging retransmission bytes and exponential
  /// backoff to the simulated clock. The injector must outlive the
  /// cluster or be detached with nullptr.
  void AttachFaultInjector(FaultInjector* injector) {
    injector_ = injector;
    network_.AttachFaultInjector(injector);
  }
  FaultInjector* fault_injector() const { return injector_; }

  /// Attaches (or detaches, with nullptr) a span tracer. Committed
  /// supersteps then emit a phase span on the sim driver lane covering
  /// exactly the clock advance, and — at TraceDetail::kWorkers — one busy
  /// span per worker (the cost model's per-worker term before the BSP
  /// max). The tracer must outlive the cluster or be detached first.
  void AttachTracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() const { return tracer_; }

  /// Fresh accounting object for one superstep.
  SuperstepAccounting NewSuperstep() const {
    return SuperstepAccounting(num_workers());
  }

  /// Folds a finished superstep into the simulated clock and totals and
  /// returns the simulated seconds the commit advanced the clock by.
  /// `phase` names the span the tracer records for this commit
  /// ("mttkrp_update", "gram_reduce", "loss", ...).
  double CommitSuperstep(const SuperstepAccounting& acct,
                         const char* phase = "superstep");

  /// Simulated elapsed seconds since construction / last ResetClock().
  double ElapsedSimSeconds() const { return sim_seconds_; }
  void ResetClock() { sim_seconds_ = 0.0; }

  uint64_t total_flops() const { return total_flops_; }
  uint64_t committed_supersteps() const { return supersteps_; }
  /// Total communication across all committed supersteps (accounted
  /// payload bytes / messages, including planned transfers that are not
  /// materialized through the network fabric).
  uint64_t total_comm_bytes() const { return total_comm_bytes_; }
  uint64_t total_comm_messages() const { return total_comm_messages_; }

  /// All-to-all reduction of per-worker R x R partial matrices (§IV-B3):
  /// every worker sends its partial to every other worker; each worker sums
  /// all M partials in worker order, so all replicas are bit-identical.
  /// Traffic and the element-wise additions are recorded into `acct`.
  /// Returns the reduced matrix (the replica every worker holds).
  Matrix AllToAllReduceMatrix(const std::vector<Matrix>& partials,
                              SuperstepAccounting* acct);

  /// All-to-all reduction of one scalar per worker.
  double AllToAllReduceScalar(const std::vector<double>& partials,
                              SuperstepAccounting* acct);

  /// Point-to-point transfer of a block of factor-matrix rows; counts the
  /// real serialized bytes. Returns the deserialized rows at `dst`.
  Result<Matrix> SendRows(uint32_t src, uint32_t dst, const Matrix& rows,
                          SuperstepAccounting* acct);

  /// Delivers one message even over a faulty fabric: sends, receives, and
  /// on a drop (NotFound) or checksum failure (IoError) retransmits with
  /// bounded retries, charging every attempt's bytes to `acct` and an
  /// exponentially growing backoff to the simulated clock. After
  /// `FaultPlan::max_retries` failed attempts the transfer escalates to
  /// one fault-suppressed delivery (the reliable-side-channel analogue),
  /// so collectives never wedge on an unlucky streak. Without an injector
  /// this is exactly one send + receive.
  Result<Message> TransmitReliably(uint32_t src, uint32_t dst, uint32_t tag,
                                   const std::vector<uint8_t>& payload,
                                   SuperstepAccounting* acct);

 private:
  SimulatedNetwork network_;
  CostModelConfig config_;
  FaultInjector* injector_ = nullptr;  // not owned
  obs::Tracer* tracer_ = nullptr;      // not owned
  double sim_seconds_ = 0.0;
  std::vector<double> busy_seconds_;
  std::vector<uint64_t> processed_elements_;
  uint64_t total_flops_ = 0;
  uint64_t total_comm_bytes_ = 0;
  uint64_t total_comm_messages_ = 0;
  uint64_t supersteps_ = 0;
  uint32_t next_tag_ = 1;
};

}  // namespace dismastd

#endif  // DISMASTD_DIST_CLUSTER_H_
