// Prices elasticity under load-skew drift: a streaming tensor whose hot
// slices jump to freshly appended (round-robin-assigned) slices at every
// regime shift, run once with a frozen partition ("static": the
// coordinator computes the initial split and never rebalances) and once
// with the elastic coordinator (monitor-triggered online repartitioning
// plus live state migration). A third pair of runs re-executes the elastic
// series under an injected drop+delay fault plan and a mid-stream worker
// add/drain schedule, asserting the migration path survives faults
// bit-exactly.
//
// Expected shape: the static partition degrades to >= 2x max/avg busy-time
// imbalance after the first regime shift and never recovers; the elastic
// run pays one bad step per shift, repartitions, and holds a median
// imbalance <= 1.2x. The CSV prices the trade: migration bytes and
// simulated migration/repartition seconds against the imbalance gain.
//
// DISMASTD_BENCH_SCALE scales per-step nnz, DISMASTD_BENCH_THREADS the
// execution engine (results are bit-identical across thread counts, which
// the harness also asserts).

#include <algorithm>
#include <cstdio>
#include <random>

#include "bench_util.h"

namespace dismastd {
namespace {

constexpr uint32_t kWorkers = 8;
constexpr size_t kSteps = 18;
/// A new hot-slice regime starts every kRegimeSteps steps.
constexpr size_t kRegimeSteps = 6;
/// Mode-0 slices appended at each regime start (multiple of kWorkers, so
/// the round-robin extension assigns every stride-kWorkers hot slice of
/// the new block to the same part).
constexpr uint64_t kBlockSlices = 64;
/// Hot slices per regime: block positions {0, W, 2W, ...} — all congruent
/// mod kWorkers, i.e. all land on ONE part until a repartition spreads
/// them.
constexpr uint64_t kHotSlices = kBlockSlices / kWorkers;
constexpr double kHotFraction = 0.85;
constexpr uint64_t kModeOneDim = 48;
constexpr uint64_t kTimeSlicesPerStep = 8;

struct StepDelta {
  SparseTensor delta;
  std::vector<uint64_t> old_dims;
  std::vector<uint64_t> new_dims;
};

/// Builds the drifting-skew delta schedule once; every series replays the
/// same deltas.
std::vector<StepDelta> BuildSchedule(uint64_t nnz_per_step) {
  std::vector<StepDelta> schedule;
  uint64_t mode0 = 0, time_slices = 0;
  for (size_t step = 0; step < kSteps; ++step) {
    const std::vector<uint64_t> old_dims =
        step == 0 ? std::vector<uint64_t>{0, 0, 0}
                  : std::vector<uint64_t>{mode0, kModeOneDim, time_slices};
    const uint64_t regime = step / kRegimeSteps;
    const uint64_t hot_base = regime * kBlockSlices;
    if (step % kRegimeSteps == 0) mode0 += kBlockSlices;
    time_slices += kTimeSlicesPerStep;
    const std::vector<uint64_t> new_dims = {mode0, kModeOneDim, time_slices};

    SparseTensor delta({mode0, kModeOneDim, time_slices});
    std::mt19937_64 rng(0xD15C0 + step * 7919);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    for (uint64_t e = 0; e < nnz_per_step; ++e) {
      uint64_t i;
      if (unit(rng) < kHotFraction) {
        // The regime's hot set: stride-kWorkers positions of the newest
        // block, all assigned round-robin to one part.
        i = hot_base + kWorkers * (rng() % kHotSlices);
      } else {
        i = rng() % mode0;
      }
      const uint64_t j = rng() % kModeOneDim;
      // Every delta entry lives in the step's fresh time slices, so the
      // delta is exactly the relative complement X \ X̃.
      const uint64_t k =
          time_slices - kTimeSlicesPerStep + rng() % kTimeSlicesPerStep;
      delta.Add({i, j, k}, unit(rng));
    }
    schedule.push_back({std::move(delta), old_dims, new_dims});
  }
  return schedule;
}

struct SeriesResult {
  std::string label;
  std::vector<StreamStepMetrics> steps;
  KruskalTensor factors;
  ElasticTotals totals;
};

SeriesResult RunSeries(const std::string& label,
                       const std::vector<StepDelta>& schedule,
                       bool rebalance, const std::string& scale_plan,
                       const FaultPlan& fault_plan, size_t threads) {
  ElasticOptions elastic_options;
  elastic_options.rebalance_enabled = rebalance;
  if (!scale_plan.empty()) {
    Result<ScalePlan> plan = ParseScalePlan(scale_plan);
    DISMASTD_CHECK_OK(plan.status());
    elastic_options.scale_plan = plan.value();
  }
  ElasticCoordinator coordinator(elastic_options, PartitionerKind::kMaxMin,
                                 kWorkers);

  DistributedOptions options;
  options.als.rank = 10;
  options.als.mu = 0.8;
  options.als.max_iterations = 5;
  options.num_workers = kWorkers;
  options.partitioner = PartitionerKind::kMaxMin;
  options.execution.num_threads = threads;
  options.fault_plan = fault_plan;
  options.elastic = &coordinator;
  // MPI-style runtime constants: with the default (Spark-like) 1 ms task
  // launch and 50 us message latency, per-worker busy time is dominated by
  // perfectly balanced per-task/per-message taxes that hide the data skew
  // this bench is about. Microsecond launches and latency make busy time
  // track where the non-zeros actually sit, at every DISMASTD_BENCH_SCALE.
  options.cost_model.task_startup_seconds = 2.0e-5;
  options.cost_model.latency_seconds = 1.0e-6;

  SeriesResult result;
  result.label = label;
  for (size_t step = 0; step < schedule.size(); ++step) {
    const StepDelta& sd = schedule[step];
    result.steps.push_back(RunDisMastdDeltaStep(sd.delta, sd.old_dims,
                                                sd.new_dims, &result.factors,
                                                step, options));
  }
  result.totals = coordinator.totals();
  return result;
}

bool SameFactors(const KruskalTensor& a, const KruskalTensor& b) {
  if (a.order() != b.order()) return false;
  for (size_t n = 0; n < a.order(); ++n) {
    if (!(a.factor(n) == b.factor(n))) return false;
  }
  return true;
}

double MedianImbalance(const SeriesResult& series) {
  std::vector<double> values;
  for (const StreamStepMetrics& m : series.steps) {
    values.push_back(m.load_imbalance);
  }
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

double MeanImbalance(const SeriesResult& series) {
  double sum = 0.0;
  for (const StreamStepMetrics& m : series.steps) sum += m.load_imbalance;
  return sum / static_cast<double>(series.steps.size());
}

double PeakImbalance(const SeriesResult& series) {
  double peak = 0.0;
  for (const StreamStepMetrics& m : series.steps) {
    peak = std::max(peak, m.load_imbalance);
  }
  return peak;
}

void PrintSeries(const SeriesResult& series, bench::CsvWriter* csv) {
  std::printf("\n%s\n", series.label.c_str());
  std::printf("%4s %7s %9s %9s %6s %6s %9s %12s %9s %9s %9s\n", "step",
              "workers", "busy_max", "busy_avg", "imb", "repart", "rows",
              "mig_bytes", "mig_s", "repart_s", "total_s");
  bench::PrintRule();
  for (const StreamStepMetrics& m : series.steps) {
    std::printf(
        "%4zu %7u %9.4f %9.4f %6.2f %6s %9llu %12llu %9.5f %9.5f %9.4f\n",
        m.step, m.num_workers, m.busy_seconds_max, m.busy_seconds_avg,
        m.load_imbalance, m.elastic_repartitioned ? "yes" : "-",
        static_cast<unsigned long long>(m.migrated_rows),
        static_cast<unsigned long long>(m.migration_bytes),
        m.phase_seconds[StepPhase::kMigrate].sim,
        m.phase_seconds[StepPhase::kRepartition].sim, m.sim_seconds_total);
    csv->Row(m.step, series.label, m.num_workers, m.busy_seconds_max,
             m.busy_seconds_avg, m.load_imbalance,
             m.elastic_repartitioned ? 1 : 0, m.migrated_rows,
             m.migration_bytes, m.phase_seconds[StepPhase::kMigrate].sim,
             m.phase_seconds[StepPhase::kRepartition].sim,
             m.sim_seconds_total);
  }
}

}  // namespace
}  // namespace dismastd

int main() {
  using namespace dismastd;
  bench::PrintHeader("Skew drift — static partitioning vs elastic cluster");
  const uint64_t nnz_per_step = std::max<uint64_t>(
      1500, static_cast<uint64_t>(20000.0 * bench::BenchScale()));
  std::printf("Setup: R=10, mu=0.8, 5 iterations, %u workers, %zu steps, "
              "regime shift every %zu steps, %llu nnz/step (%.0f%% on %llu "
              "hot slices)\n",
              kWorkers, kSteps, kRegimeSteps,
              static_cast<unsigned long long>(nnz_per_step),
              kHotFraction * 100.0,
              static_cast<unsigned long long>(kHotSlices));
  const std::vector<StepDelta> schedule = BuildSchedule(nnz_per_step);
  const size_t threads = bench::BenchThreads();
  const FaultPlan no_faults;

  const SeriesResult fixed =
      RunSeries("static", schedule, /*rebalance=*/false, "", no_faults,
                threads);
  const SeriesResult elastic =
      RunSeries("elastic", schedule, /*rebalance=*/true, "", no_faults,
                threads);

  bench::CsvWriter csv("skew_drift.csv");
  csv.Row("step", "series", "workers", "busy_max", "busy_avg", "imbalance",
          "repartitioned", "migrated_rows", "migration_bytes",
          "migration_sim_s", "repartition_sim_s", "sim_seconds_total");
  PrintSeries(fixed, &csv);
  PrintSeries(elastic, &csv);

  // The trade: what migration cost, what rebalancing bought.
  double static_total = 0.0, elastic_total = 0.0;
  for (const StreamStepMetrics& m : fixed.steps) {
    static_total += m.sim_seconds_total;
  }
  for (const StreamStepMetrics& m : elastic.steps) {
    elastic_total += m.sim_seconds_total;
  }
  std::printf("\nstatic : peak imbalance %.2f, mean %.2f, stream total "
              "%.4f sim s\n",
              PeakImbalance(fixed), MeanImbalance(fixed), static_total);
  std::printf("elastic: peak imbalance %.2f, median %.2f, mean %.2f, "
              "stream total %.4f sim s\n",
              PeakImbalance(elastic), MedianImbalance(elastic),
              MeanImbalance(elastic), elastic_total);
  std::printf("elastic cost: %s, migrate %.5f + repartition %.5f sim s; "
              "gain %.4f sim s (%.1f%%)\n",
              elastic.totals.ToString().c_str(),
              elastic.totals.migration_sim_seconds,
              elastic.totals.repartition_sim_seconds,
              static_total - elastic_total,
              static_total > 0.0
                  ? 100.0 * (static_total - elastic_total) / static_total
                  : 0.0);
  csv.Row("summary", "static", kWorkers, PeakImbalance(fixed),
          MeanImbalance(fixed), MedianImbalance(fixed), 0, 0, 0, 0.0, 0.0,
          static_total);
  csv.Row("summary", "elastic", kWorkers, PeakImbalance(elastic),
          MeanImbalance(elastic), MedianImbalance(elastic),
          elastic.totals.repartitions, elastic.totals.migrated_rows,
          elastic.totals.migration_bytes,
          elastic.totals.migration_sim_seconds,
          elastic.totals.repartition_sim_seconds, elastic_total);

  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    std::printf("%s: %s\n", ok ? "PASS" : "FAIL", what);
    if (!ok) ++failures;
  };

  // Acceptance: the static split degrades hard; elastic holds the line.
  expect(PeakImbalance(fixed) >= 2.0,
         "static partition degrades to >= 2.0x max/avg busy imbalance");
  expect(MedianImbalance(elastic) <= 1.2,
         "elastic median imbalance stays <= 1.2x");
  expect(MeanImbalance(elastic) < MeanImbalance(fixed),
         "elastic mean imbalance beats static");
  expect(elastic.totals.repartitions >= 1 &&
             elastic.totals.migrated_rows > 0,
         "elastic actually repartitioned and migrated state");

  // Determinism: the same elastic schedule on 1 and 4 execution threads
  // must produce bit-identical factors (and therefore identical monitor
  // decisions).
  const SeriesResult one_thread =
      RunSeries("elastic/t1", schedule, true, "", no_faults, 1);
  const SeriesResult four_threads =
      RunSeries("elastic/t4", schedule, true, "", no_faults, 4);
  expect(SameFactors(one_thread.factors, four_threads.factors),
         "elastic factors bit-identical across execution thread counts");

  // Robustness: migration survives injected drops and straggler delays
  // plus a mid-stream scale-out and drain; message faults are a pure time
  // tax, so the factors match the fault-free run of the same schedule.
  FaultPlan faults;
  faults.drop_prob = 0.02;
  faults.delay_prob = 0.02;
  const std::string scale_plan = "add=2@4,drain=2@9";
  const SeriesResult scaled_clean =
      RunSeries("elastic/scale", schedule, true, scale_plan, no_faults,
                threads);
  const SeriesResult scaled_faulty =
      RunSeries("elastic/scale+faults", schedule, true, scale_plan, faults,
                threads);
  PrintSeries(scaled_clean, &csv);
  PrintSeries(scaled_faulty, &csv);
  uint64_t retransmissions = 0;
  for (const StreamStepMetrics& m : scaled_faulty.steps) {
    retransmissions += m.recovery.retransmissions;
  }
  expect(scaled_clean.totals.workers_added == 2 &&
             scaled_clean.totals.workers_drained == 2,
         "scale plan executed (2 workers joined, 2 drained)");
  expect(retransmissions > 0,
         "fault plan actually exercised the retransmission path");
  expect(SameFactors(scaled_faulty.factors, scaled_clean.factors),
         "migration under drop+delay faults is bit-exact vs fault-free");

  std::printf("\n(series also written to skew_drift.csv)\n");
  return failures == 0 ? 0 : 1;
}
