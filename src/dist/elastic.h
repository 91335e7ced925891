#ifndef DISMASTD_DIST_ELASTIC_H_
#define DISMASTD_DIST_ELASTIC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "partition/partition.h"
#include "tensor/coo_tensor.h"

namespace dismastd {

namespace obs {
class MetricRegistry;
}  // namespace obs

/// One worker-count change of a scale plan: `count` workers join (kAdd) or
/// the `count` highest-ranked workers leave (kDrain) at the start of
/// streaming step `stream_step`, before that step's decomposition runs.
struct ScaleEvent {
  enum class Kind { kAdd, kDrain };
  Kind kind = Kind::kAdd;
  uint32_t count = 0;
  uint64_t stream_step = 0;
};

/// Declarative worker scale-out/in schedule, sorted by step. Draining
/// removes the highest ranks so the round-robin part -> worker mapping
/// stays contiguous, like scaling in an instance group.
struct ScalePlan {
  std::vector<ScaleEvent> events;

  bool empty() const { return events.empty(); }
  /// Workers joining / leaving at the start of `stream_step`.
  uint32_t AddedAt(uint64_t stream_step) const;
  uint32_t DrainedAt(uint64_t stream_step) const;
};

/// Parses a compact scale-plan spec, e.g. "add=2@5,drain=1@9": `count`
/// workers join (add) or leave (drain) at the start of streaming step
/// `step`. Errors name the offending token and its 1-based position.
Result<ScalePlan> ParseScalePlan(const std::string& spec);

/// Knobs of the elastic-cluster coordinator.
struct ElasticOptions {
  /// Monitor-triggered repartitioning. When false the coordinator still
  /// keeps a persistent partition (and executes the scale plan), which is
  /// the "static partition that decays" baseline of bench/skew_drift.
  bool rebalance_enabled = true;
  /// Rolling max/avg busy-seconds ratio above which a repartition fires.
  double imbalance_threshold = 1.5;
  /// Minimum streaming steps between monitor-triggered repartitions.
  uint32_t cooldown_steps = 2;
  /// Exponential decay of the per-slice nnz history the repartitioner
  /// balances (and of the monitor's rolling signal): 0 balances only the
  /// latest delta, values near 1 balance the cumulative distribution.
  double load_decay = 0.5;
  ScalePlan scale_plan;

  Status Validate() const;
};

/// Folds per-worker busy seconds into a rolling max/avg imbalance signal
/// and decides, under a threshold + cooldown policy, when the partition
/// has decayed enough to recompute. All inputs derive from the simulated
/// clock, so decisions are bit-identical across execution thread counts.
class LoadMonitor {
 public:
  LoadMonitor(double threshold, uint32_t cooldown_steps, double smoothing);

  /// Feeds one finished step's per-worker busy seconds (cost-model terms
  /// before the BSP max, summed over the step's supersteps).
  void Observe(const std::vector<double>& busy_seconds);

  /// max/avg of the last observation (1 when nothing observed yet).
  double last_imbalance() const { return last_; }
  /// The rolling (exponentially smoothed) imbalance signal.
  double signal() const { return signal_; }

  /// True when the rolling signal exceeds the threshold and the cooldown
  /// since the last rebalance has elapsed.
  bool ShouldRebalance(uint64_t stream_step) const;
  /// Marks a rebalance at `stream_step` and resets the rolling signal so
  /// the stale pre-rebalance imbalance cannot immediately re-trigger.
  void NoteRebalance(uint64_t stream_step);

 private:
  double threshold_;
  uint32_t cooldown_steps_;
  double smoothing_;
  double signal_ = 1.0;
  double last_ = 1.0;
  bool observed_ = false;
  bool rebalanced_ = false;
  uint64_t last_rebalance_step_ = 0;
};

/// What the coordinator decided for one streaming step. The decomposition
/// executes it: builds the cluster at `workers_before`, adds the joiners,
/// migrates state from `prev_partitioning` ownership to the coordinator's
/// current partitioning when `repartition` is set, then drains.
struct ElasticStepPlan {
  bool active = false;
  /// Cluster size when the step starts (before joins).
  uint32_t workers_before = 0;
  uint32_t workers_added = 0;
  uint32_t workers_drained = 0;
  /// Final worker count the step's compute runs on.
  uint32_t num_workers = 0;
  /// Recompute + migrate this step. The first step computes the initial
  /// partition without setting this (there is no state to move yet).
  bool repartition = false;
  /// Ownership before the recompute (row r of mode n was owned by worker
  /// `prev.modes[n].slice_to_part[r] % workers_before`). Covers every
  /// current slice: new slices were extended round-robin before the copy.
  TensorPartitioning prev_partitioning;
};

/// Cumulative elastic activity across a coordinator's lifetime, filled in
/// by the coordinator (repartitions, scale events) and the decomposition
/// (migration traffic and phase timings).
struct ElasticTotals {
  uint64_t repartitions = 0;
  uint64_t workers_added = 0;
  uint64_t workers_drained = 0;
  uint64_t migrated_rows = 0;
  uint64_t migration_bytes = 0;
  double migration_sim_seconds = 0.0;
  double repartition_sim_seconds = 0.0;

  std::string ToString() const;
};

/// Driver-side elastic-cluster coordinator: owns the persistent (step-
/// spanning) tensor partitioning, the decayed per-slice load history, the
/// load monitor, and the scale plan. One instance spans a streaming run;
/// DistributedOptions::elastic points at it and DisMastdDecompose calls
/// BeginStep / EndStep around every step. All calls happen on the driver
/// thread.
class ElasticCoordinator {
 public:
  ElasticCoordinator(const ElasticOptions& options,
                     PartitionerKind partitioner, uint32_t initial_workers,
                     uint32_t parts_per_mode = 0);

  uint32_t num_workers() const { return num_workers_; }
  /// Partitions per mode (tracks the worker count when parts_per_mode 0).
  uint32_t num_parts() const;
  const TensorPartitioning& partitioning() const { return partitioning_; }
  LoadMonitor& monitor() { return monitor_; }
  ElasticTotals& totals() { return totals_; }
  const ElasticTotals& totals() const { return totals_; }

  /// Decides this step's plan: folds the delta's per-slice counts into the
  /// decayed history (extending the maps round-robin for new slices),
  /// applies due scale events (which force a repartition), consults the
  /// monitor, and — when repartitioning — recomputes GTP/MTP on the
  /// decayed current loads. Must be called exactly once per step, in step
  /// order.
  ElasticStepPlan BeginStep(const SparseTensor& delta, uint64_t stream_step);

  /// Feeds the finished step's per-worker busy seconds to the monitor.
  void EndStep(const std::vector<double>& busy_seconds);

  /// Publishes the coordinator's activity into the registry under
  /// `dismastd_elastic_*`. Counters receive only the activity since the
  /// previous publish, so calling this once per streaming step accumulates
  /// correctly; gauges are set to current values.
  void PublishTo(obs::MetricRegistry* registry) const;

 private:
  void ExtendForDelta(const SparseTensor& delta);
  void Repartition();

  ElasticOptions options_;
  PartitionerKind partitioner_;
  uint32_t parts_per_mode_;
  uint32_t num_workers_;
  TensorPartitioning partitioning_;
  /// Exponentially decayed per-slice nnz history, per mode. Balancing the
  /// decayed counts (rather than cumulative totals) makes the recomputed
  /// partition track where the load currently is under drift.
  std::vector<std::vector<double>> decayed_nnz_;
  LoadMonitor monitor_;
  ElasticTotals totals_;
  /// Snapshot of totals_ at the last PublishTo, so counters get deltas.
  mutable ElasticTotals published_;
  bool partitioned_once_ = false;
};

}  // namespace dismastd

#endif  // DISMASTD_DIST_ELASTIC_H_
