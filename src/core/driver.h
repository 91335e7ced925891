#ifndef DISMASTD_CORE_DRIVER_H_
#define DISMASTD_CORE_DRIVER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/dismastd.h"
#include "stream/snapshot.h"

namespace dismastd {

/// Which decomposition strategy a streaming experiment runs at every step.
enum class MethodKind {
  /// DisMASTD: incremental, decomposes only X \ X̃ given previous factors.
  kDisMastd,
  /// DMS-MG: static recompute of the full snapshot from scratch.
  kDmsMg,
};

const char* MethodKindName(MethodKind kind);

/// Human-readable method label, e.g. "DisMASTD-MTP" or "DMS-MG-GTP".
std::string MethodLabel(MethodKind method, PartitionerKind partitioner);

/// Inverse of MethodKindName, case-insensitive; also accepts the CLI
/// token ("dismastd" / "dmsmg" / "dms-mg"). This is the single place
/// method names round-trip through — CLI flags and bench harness knobs
/// must parse with it rather than matching strings ad hoc.
Result<MethodKind> ParseMethodKind(const std::string& text);

/// Inverse of PartitionerKindName, case-insensitive; also accepts the
/// spelled-out aliases ("greedy" / "maxmin" / "max-min").
Result<PartitionerKind> ParsePartitionerKind(const std::string& text);

/// Called after every completed streaming step with that step's metrics
/// and the factors the method produced for it. This is the hook the
/// serving plane attaches to: publishing the factors here lets queries be
/// answered from step t's model while step t+1 is being decomposed. The
/// observer runs on the driver thread; it receives its own copy-by-ref of
/// the factors and must not retain the reference past the call.
using StreamStepObserver =
    std::function<void(const StreamStepMetrics&, const KruskalTensor&)>;

/// Runs a full streaming experiment: at every step of `stream`, decomposes
/// the snapshot with the chosen method and collects metrics.
///
/// DisMASTD chains: step t reuses step t-1's factors and touches only the
/// relative complement (step 0 is a cold start over the first snapshot).
/// DMS-MG re-decomposes every snapshot from scratch.
///
/// When `compute_fit` is true (slower), each step's factors are scored
/// against the materialized snapshot. A non-null `observer` is invoked
/// once per step, after the step's metrics are final.
std::vector<StreamStepMetrics> RunStreamingExperiment(
    const StreamingTensorSequence& stream, MethodKind method,
    const DistributedOptions& options, bool compute_fit = false,
    const StreamStepObserver& observer = nullptr);

/// One streaming step, the only path a step takes — both methods of the
/// schedule-driven experiment above, the real-time ingest pipeline and the
/// continuous window's stitch: decomposes `delta` (entries beyond
/// `old_dims`, dims == `new_dims`) chained on `*factors` (empty for a cold
/// start; DMS-MG passes the whole snapshot, all-zero old dims and empty
/// factors), replaces `*factors` with the step's result, and returns the
/// step's record. Emits the step's sim/wall trace spans,
/// applies the per-step seed/fault-plan discipline, and writes the
/// per-step checkpoint when options.checkpoint_dir is set — so a model
/// produced by replaying an event log is bit-identical to the same
/// step sequence run from a growth schedule. The caller fills
/// snapshot-dependent fields (snapshot_nnz, fit) and invokes any
/// observer.
StreamStepMetrics RunDisMastdDeltaStep(const SparseTensor& delta,
                                       const std::vector<uint64_t>& old_dims,
                                       const std::vector<uint64_t>& new_dims,
                                       KruskalTensor* factors, size_t step,
                                       const DistributedOptions& options);

/// Feeds one finished step into the attached health monitor (step
/// sim-seconds, imbalance, retransmitted bytes, plus fitness when
/// `have_fit`) and snapshots a flight-recorder frame, noting crash
/// recoveries and orphaned messages. No-op (one branch each) when neither
/// sink is attached. RunStreamingExperiment calls this itself; paths that
/// drive RunDisMastdDeltaStep directly (the ingest session) call it once
/// per step after the step's metrics are final.
void ObserveStepHealth(const DistributedOptions& options,
                       const StreamStepMetrics& sm, bool have_fit);

}  // namespace dismastd

#endif  // DISMASTD_CORE_DRIVER_H_
