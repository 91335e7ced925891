// dtd_stream: closed loop of schedule-driven DisMASTD steps on a skewed
// Zipf rating tensor, each step chained on the previous step's factors and
// decomposing only the relative complement X \ X̃ (the paper's core path).

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/driver.h"
#include "la/ops.h"
#include "la/solve.h"
#include "partition/partition.h"
#include "stream/generator.h"
#include "tensor/mttkrp.h"
#include "workloads.h"

namespace perfbench {

using namespace dismastd;

namespace {

/// Recorded fits: seeds 1-10 at the default 40 steps, and the seed the
/// smoke test runs. The determinism contract makes the fit bit-identical on
/// every machine and thread count.
struct PinnedFit {
  bool smoke;
  uint64_t seed;
  double fit;
};
constexpr PinnedFit kPinnedFits[] = {
    {true, 3, 0.073455944515071425},  {false, 1, 0.057153776783382959},
    {false, 2, 0.05719889996005878},  {false, 3, 0.057753136749655876},
    {false, 4, 0.05740898973720765},  {false, 5, 0.0576436001149776},
    {false, 6, 0.057232141192885555},  {false, 7, 0.057374798197879384},
    {false, 8, 0.057188170540706906},  {false, 9, 0.05732452641762209},
    {false, 10, 0.057589375574918944},
};

/// The step chain is timed this many times from the same cold factors, and
/// each step's time is the median of its passes: a slow stretch of a shared
/// host that covers one pass does not move the result.
constexpr size_t kPasses = 3;

struct Inputs {
  std::vector<std::vector<uint64_t>> schedule;
  SparseTensor final_snapshot;
  std::vector<SparseTensor> deltas;  // deltas[t] = X^(t) \ X^(t-1)
  KruskalTensor factors;             // after the cold step over X^(0)
  double cold_step_s = 0.0;
};

DistributedOptions StepOptions(size_t threads) {
  // The paper's setup (§V-A): R = 10, mu = 0.8, 10 ALS sweeps, 15 simulated
  // workers with MTP partitioning.
  DistributedOptions options;
  options.als.rank = 10;
  options.als.mu = 0.8;
  options.als.max_iterations = 10;
  options.num_workers = 15;
  options.partitioner = PartitionerKind::kMaxMin;
  options.execution.num_threads = threads;
  return options;
}

Inputs SetUp(const RunConfig& config, size_t steps,
             const DistributedOptions& options) {
  GeneratorOptions gen;
  gen.dims = config.smoke ? std::vector<uint64_t>{3000, 600, 40}
                          : std::vector<uint64_t>{12000, 2400, 200};
  gen.nnz = config.smoke ? 30000 : 1000000;
  gen.zipf_exponents = {1.0, 1.0, 0.5};
  // Ids in arrival order: the Zipf head is in the first snapshot and each
  // step adds tail rows, as a growing rating stream does. Every seed then
  // grows by the same share of nnz, so seeds differ in noise, not in work.
  gen.scramble_indices = false;
  gen.seed = config.seed;
  Inputs in;
  in.final_snapshot = GenerateSparseTensor(gen).tensor;
  const SparseTensor& full = in.final_snapshot;

  // 1% growth per mode per step, ending at the full tensor.
  in.schedule = MakeGrowthSchedule(
      full.dims(), 1.0 - 0.01 * static_cast<double>(steps), 0.01, steps + 1);
  in.deltas = SplitBySnapshot(full, in.schedule);

  const double start = Now();
  RunDisMastdDeltaStep(in.deltas[0],
                       std::vector<uint64_t>(full.order(), 0),
                       in.schedule[0], &in.factors, 0, options);
  in.cold_step_s = Now() - start;
  return in;
}

/// Milliseconds of each layer probe, over every probed step.
struct ProbeTimes {
  std::vector<double> partition_ms;
  std::vector<double> mttkrp_ms;
  std::vector<double> solve_rows_ms;
};

/// Layer probes (traced run only): the public layer functions timed on one
/// step's own inputs, outside the step's timing.
void ProbeLayers(const SparseTensor& delta, const KruskalTensor& factors,
                 const DistributedOptions& options, obs::Tracer* tracer,
                 ProbeTimes* times) {
  {
    obs::SpanTimer span(tracer, "PartitionTensor", "partition", "driver");
    const TensorPartitioning parts =
        PartitionTensor(options.partitioner, delta, options.num_workers);
    times->partition_ms.push_back(span.Stop() * 1e3);
    (void)parts;
  }
  std::vector<const Matrix*> ptrs;
  std::vector<Matrix> grams;
  for (const Matrix& m : factors.factors()) {
    ptrs.push_back(&m);
    grams.push_back(TransposeTimes(m, m));
  }
  for (size_t mode = 0; mode < delta.order(); ++mode) {
    obs::SpanTimer mttkrp_span(tracer, "Mttkrp", "tensor", "driver");
    const Matrix mttkrp = Mttkrp(delta, ptrs, mode);
    times->mttkrp_ms.push_back(mttkrp_span.Stop() * 1e3);
    Matrix normal;
    for (size_t m = 0; m < grams.size(); ++m) {
      if (m == mode) continue;
      normal = normal.empty() ? grams[m] : Hadamard(normal, grams[m]);
    }
    obs::SpanTimer solve_span(tracer, "SolveNormalEquationsRows", "la",
                              "driver");
    const Matrix solved = SolveNormalEquationsRows(normal, mttkrp);
    times->solve_rows_ms.push_back(solve_span.Stop() * 1e3);
    (void)solved;
  }
}

bool SameFactors(const KruskalTensor& a, const KruskalTensor& b) {
  bool same = a.order() == b.order();
  for (size_t n = 0; same && n < a.order(); ++n) {
    same = a.factor(n) == b.factor(n);
  }
  return same;
}

}  // namespace

void RunDtdStream(Report& report) {
  const RunConfig& config = report.config();
  // Four warm steps per measured second, 40 at the default 10 s, in each of
  // kPasses passes.
  const size_t steps = config.smoke
                           ? 6
                           : std::clamp<size_t>(
                                 static_cast<size_t>(4.0 * config.seconds + 0.5),
                                 4, 50);
  const DistributedOptions options = StepOptions(1);

  Inputs in =
      RepeatSetUp(report, [&] { return SetUp(config, steps, options); });
  report.Set("core.cold_step_s", in.cold_step_s);

  // Every pass runs the same step chain from the cold factors, so it must
  // end at the same factors; a step's time is the median of its passes.
  obs::Tracer* tracer = report.tracer();
  ProbeTimes probes;
  std::vector<std::vector<double>> pass_ms(steps);  // [step - 1][pass]
  std::vector<StreamStepMetrics> counters;          // first pass
  uint64_t failed = 0;
  bool passes_agree = true;
  KruskalTensor final_factors, before_last;
  const double deadline = Now() + 10.0 * config.seconds;
  size_t passes = 0;
  for (; passes < kPasses && Now() < deadline; ++passes) {
    KruskalTensor factors = in.factors;
    for (size_t t = 1; t <= steps; ++t) {
      if (t == steps) before_last = factors;
      obs::SpanTimer span(tracer, "RunDisMastdDeltaStep", "core", "driver");
      const StreamStepMetrics sm =
          RunDisMastdDeltaStep(in.deltas[t], in.schedule[t - 1],
                               in.schedule[t], &factors, t, options);
      pass_ms[t - 1].push_back(span.Stop() * 1e3);
      if (!std::isfinite(sm.final_loss) || !FactorsFinite(factors)) ++failed;
      if (passes > 0) continue;
      counters.push_back(sm);
      if (tracer != nullptr) {
        ProbeLayers(in.deltas[t], factors, options, tracer, &probes);
      }
    }
    if (passes == 0) {
      final_factors = std::move(factors);
    } else {
      passes_agree = passes_agree && SameFactors(factors, final_factors);
    }
  }

  std::vector<double> step_ms;
  double step_seconds = 0.0;
  for (const std::vector<double>& ms : pass_ms) {
    step_ms.push_back(NearestRank(Sorted(ms), 500).value);
    step_seconds += step_ms.back() * 1e-3;
  }
  uint64_t delta_nnz = 0, flops = 0, comm_bytes = 0, comm_messages = 0;
  double sim_per_iter = 0.0, imbalance = 0.0;
  for (const StreamStepMetrics& sm : counters) {
    delta_nnz += sm.processed_nnz;
    flops += sm.flops;
    comm_bytes += sm.comm_bytes;
    comm_messages += sm.comm_messages;
    sim_per_iter += sm.sim_seconds_per_iteration;
    imbalance += sm.load_imbalance;
  }
  const uint64_t attempted = passes * steps;
  report.Count(attempted, failed);
  std::printf("dtd_stream: %zu passes of %zu warm steps, %llu delta nnz per "
              "pass in %.3f s (median step times)\n",
              passes, steps, static_cast<unsigned long long>(delta_nnz),
              step_seconds);

  report.Set("throughput", static_cast<double>(delta_nnz) / step_seconds);
  report.SetLatency(step_ms);
  report.Set("success_share", 1.0 - static_cast<double>(failed) /
                                        static_cast<double>(attempted));
  report.SetP50Max("core.step_ms", step_ms);
  report.Set("core.sim_s_per_iter",
             sim_per_iter / static_cast<double>(counters.size()));
  report.Set("core.flops", static_cast<double>(flops));
  report.Set("dist.comm_bytes", static_cast<double>(comm_bytes));
  report.Set("dist.comm_messages", static_cast<double>(comm_messages));
  report.Set("dist.load_imbalance",
             imbalance / static_cast<double>(counters.size()));
  report.Set("partition.ms_p50",
             NearestRank(Sorted(probes.partition_ms), 500).value);
  report.Set("tensor.mttkrp_ms_p50",
             NearestRank(Sorted(probes.mttkrp_ms), 500).value);
  report.Set("la.solve_rows_ms_p50",
             NearestRank(Sorted(probes.solve_rows_ms), 500).value);

  // Outside the timed phase: fit against the final snapshot, and the last
  // step replayed on two threads must reproduce the factors bit for bit.
  const double fit = final_factors.Fit(in.final_snapshot);
  report.Set("fit", fit);
  report.Pin("dtd_stream.fit", Exact(fit));
  report.Check("dtd_stream factors finite", FactorsFinite(final_factors));
  report.Check("dtd_stream every pass ran", passes == kPasses);
  report.Check("dtd_stream every pass ends at the same factors", passes_agree);
  KruskalTensor replay = before_last;
  RunDisMastdDeltaStep(in.deltas[steps], in.schedule[steps - 1],
                       in.schedule[steps], &replay, steps, StepOptions(2));
  report.Check("dtd_stream last step bit-identical on 2 threads",
               SameFactors(replay, final_factors));
  for (const PinnedFit& pinned : kPinnedFits) {
    if (pinned.seed == config.seed && pinned.smoke == config.smoke &&
        (config.smoke || steps == 40)) {
      report.Check("dtd_stream fit matches recorded " + Exact(pinned.fit),
                   fit == pinned.fit);
    }
  }
}

}  // namespace perfbench
