#include "core/driver.h"

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/flightrec.h"
#include "obs/health.h"
#include "obs/trace.h"
#include "tensor/checkpoint.h"

namespace dismastd {

namespace {

/// Per-step durable state: what a restarted process (or crash recovery)
/// resumes from. Failures are logged, not fatal — a full disk must not
/// kill a streaming run.
void MaybeWriteStepCheckpoint(const DistributedOptions& options,
                              const KruskalTensor& factors,
                              const std::vector<uint64_t>& dims,
                              size_t step) {
  if (options.checkpoint_dir.empty()) return;
  StreamCheckpoint ckpt;
  ckpt.factors = factors;
  ckpt.dims = dims;
  ckpt.step = step;
  const std::string path =
      options.checkpoint_dir + "/step_" + std::to_string(step) + ".ckpt";
  const Status written = WriteStreamCheckpointFile(ckpt, path);
  if (!written.ok()) {
    DISMASTD_LOG(Warning) << "step " << step
                          << " checkpoint failed: " << written.message();
  }
}

}  // namespace

void ObserveStepHealth(const DistributedOptions& options,
                       const StreamStepMetrics& sm, bool have_fit) {
  obs::HealthMonitor* health = options.health;
  obs::Tracer* tracer = options.tracer;
  if (obs::Active(health)) {
    // The step's sim span is already closed and the tracer base advanced
    // to the step-end timestamp, so alert instants land exactly at the end
    // of the step span they describe.
    health->Observe(obs::HealthSignal::kStepSimSeconds, sm.step,
                    sm.sim_seconds_total, tracer);
    health->Observe(obs::HealthSignal::kImbalance, sm.step, sm.load_imbalance,
                    tracer);
    health->Observe(obs::HealthSignal::kRetransmittedBytes, sm.step,
                    static_cast<double>(sm.recovery.retransmitted_bytes),
                    tracer);
    if (have_fit) {
      health->Observe(obs::HealthSignal::kFitness, sm.step, sm.fit, tracer);
    }
  }
  obs::FlightRecorder* flight = options.flight;
  if (flight != nullptr) {
    obs::HealthFrame frame;
    frame.step = sm.step;
    frame.sim_seconds_total = sm.sim_seconds_total;
    frame.fit = sm.fit;
    frame.load_imbalance = sm.load_imbalance;
    frame.processed_nnz = sm.processed_nnz;
    frame.comm_bytes = sm.comm_bytes;
    frame.retransmitted_bytes = sm.recovery.retransmitted_bytes;
    frame.crashes = sm.recovery.crashes;
    frame.orphaned_messages = sm.orphaned_messages;
    frame.num_workers = sm.num_workers;
    frame.busy_seconds_max = sm.busy_seconds_max;
    frame.busy_seconds_avg = sm.busy_seconds_avg;
    if (obs::Active(health)) {
      frame.alerts_total = health->alerts_total();
      frame.SetLastAlert(health->last_alert_rule().c_str());
    }
    if (tracer != nullptr) {
      frame.sim_base_seconds = tracer->sim_base_seconds();
      frame.trace_events = tracer->event_count();
    }
    if (sm.recovery.crashes > 0) {
      flight->NoteEvent("crash_recovery", sm.step);
    }
    if (sm.orphaned_messages > 0) {
      flight->NoteEvent("orphaned_messages", sm.step);
    }
    flight->RecordFrame(frame);
  }
}

const char* MethodKindName(MethodKind kind) {
  switch (kind) {
    case MethodKind::kDisMastd:
      return "DisMASTD";
    case MethodKind::kDmsMg:
      return "DMS-MG";
  }
  return "?";
}

std::string MethodLabel(MethodKind method, PartitionerKind partitioner) {
  return std::string(MethodKindName(method)) + "-" +
         PartitionerKindName(partitioner);
}

Result<MethodKind> ParseMethodKind(const std::string& text) {
  static constexpr EnumToken<MethodKind> kTokens[] = {
      {"dismastd", MethodKind::kDisMastd},
      {"dmsmg", MethodKind::kDmsMg},
      {"dms-mg", MethodKind::kDmsMg}};
  return ParseEnumToken<MethodKind>(text, "method", kTokens);
}

Result<PartitionerKind> ParsePartitionerKind(const std::string& text) {
  static constexpr EnumToken<PartitionerKind> kTokens[] = {
      {"mtp", PartitionerKind::kMaxMin},
      {"maxmin", PartitionerKind::kMaxMin},
      {"max-min", PartitionerKind::kMaxMin},
      {"gtp", PartitionerKind::kGreedy},
      {"greedy", PartitionerKind::kGreedy}};
  return ParseEnumToken<PartitionerKind>(text, "partitioner", kTokens);
}

StreamStepMetrics RunDisMastdDeltaStep(const SparseTensor& delta,
                                       const std::vector<uint64_t>& old_dims,
                                       const std::vector<uint64_t>& new_dims,
                                       KruskalTensor* factors, size_t step,
                                       const DistributedOptions& options) {
  DISMASTD_CHECK(delta.dims() == new_dims);
  obs::Tracer* tracer = options.tracer;
  // Wall-clock span of the step's decompose+checkpoint; the sim-clock step
  // span is closed below once the step's simulated total is known.
  obs::ScopedWallSpan step_wall(tracer, "stream_step", "stream", "driver");
  if (obs::Active(tracer)) {
    tracer->BeginSim(obs::Tracer::kDriverLane,
                     ("step " + std::to_string(step)).c_str(), "stream", 0.0,
                     {{"step", std::to_string(step)}});
  }

  // Give every step's initialization its own seed (the paper's protocol);
  // stream_step also selects the fault injector's RNG stream and arms the
  // plan's crash when this is its target step.
  DistributedOptions step_options = options;
  step_options.als.seed = options.als.seed + step * 7919;
  step_options.stream_step = step;

  DistributedResult result =
      DisMastdDecompose(delta, old_dims, *factors, step_options);
  // Copied, not moved: the copy is allocated after the step's temporaries
  // are freed, so the factors a caller keeps do not pin the middle of the
  // heap. Moving them raised perfbench serve_live's peak RSS by ~8% and
  // cut its throughput on a 4-vCPU AVX-512 Xeon.
  *factors = result.als.factors;
  if (obs::Active(tracer)) {
    // Close the step's sim span at its simulated total, then advance the
    // timeline base so the next step's run-local clock (which restarts
    // at zero) lays out after this one.
    tracer->EndSim(obs::Tracer::kDriverLane, result.metrics.sim_seconds_total);
    tracer->AdvanceSimBase(result.metrics.sim_seconds_total);
  }
  MaybeWriteStepCheckpoint(options, *factors, new_dims, step);
  return std::move(result.metrics);
}

std::vector<StreamStepMetrics> RunStreamingExperiment(
    const StreamingTensorSequence& stream, MethodKind method,
    const DistributedOptions& options, bool compute_fit,
    const StreamStepObserver& observer) {
  DISMASTD_CHECK_OK(options.Validate());
  // DMS-MG recomputes every snapshot from scratch: all-zero old dims and
  // no previous factors, exactly DmsMgDecompose. Elastic coordination is
  // a streaming concern (persistent partition, migration of chained
  // state); a from-scratch recompute has neither.
  const bool from_scratch = method == MethodKind::kDmsMg;
  DISMASTD_CHECK(!from_scratch || options.elastic == nullptr);
  std::vector<StreamStepMetrics> metrics;
  metrics.reserve(stream.num_steps());

  obs::Tracer* tracer = options.tracer;
  if (obs::Active(tracer)) tracer->RegisterWallLane("driver");

  const std::vector<uint64_t> no_old_dims(stream.full().order(), 0);
  KruskalTensor factors;
  for (size_t step = 0; step < stream.num_steps(); ++step) {
    const SparseTensor input =
        from_scratch ? stream.SnapshotAt(step) : stream.DeltaAt(step);
    const std::vector<uint64_t>& old_dims =
        from_scratch || step == 0 ? no_old_dims : stream.DimsAt(step - 1);
    if (from_scratch) factors = KruskalTensor();
    StreamStepMetrics sm = RunDisMastdDeltaStep(
        input, old_dims, stream.DimsAt(step), &factors, step, options);
    sm.snapshot_nnz = stream.SnapshotNnz(step);
    if (compute_fit) {
      sm.fit = factors.Fit(from_scratch ? input : stream.SnapshotAt(step));
    }
    ObserveStepHealth(options, sm, compute_fit);
    if (observer) observer(sm, factors);
    metrics.push_back(std::move(sm));
  }
  return metrics;
}

}  // namespace dismastd
