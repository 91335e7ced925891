// Reproduces Fig. 5: average running time per iteration versus the
// multi-aspect streaming tensor growing from 75% to 100% of the dataset in
// 5% steps, for DisMASTD-GTP, DisMASTD-MTP, DMS-MG-GTP and DMS-MG-MTP on
// all four datasets.
//
// Expected shape (paper): DisMASTD's per-iteration time stays low and
// nearly flat (its cost follows nnz(X \ X̃)); DMS-MG grows with the full
// snapshot's nnz and is one to two orders of magnitude slower; MTP edges
// out GTP.

#include <cstdio>

#include "bench_util.h"

namespace dismastd {
namespace {

void RunDataset(const DatasetSpec& spec, const bench::BenchObs& obs_sinks,
                bench::CsvWriter* csv) {
  std::printf("\nFig. 5 (%s): time per iteration [simulated s] vs snapshot\n",
              spec.name.c_str());
  // The stream starts at 70% so the incremental method enters the measured
  // 75%..100% window warm (the paper's curves assume prior snapshots
  // existed before 75%); the cold start at 70% is not reported.
  const StreamingTensorSequence stream =
      MakeDatasetStream(spec, 0.70, 0.05, 7);
  const size_t first_reported = 1;

  struct Series {
    MethodKind method;
    PartitionerKind partitioner;
    std::vector<StreamStepMetrics> metrics;
  };
  std::vector<Series> series = {
      {MethodKind::kDisMastd, PartitionerKind::kGreedy, {}},
      {MethodKind::kDisMastd, PartitionerKind::kMaxMin, {}},
      {MethodKind::kDmsMg, PartitionerKind::kGreedy, {}},
      {MethodKind::kDmsMg, PartitionerKind::kMaxMin, {}},
  };
  for (Series& s : series) {
    DistributedOptions options = bench::PaperOptions();
    options.partitioner = s.partitioner;
    options.tracer = obs_sinks.tracer();
    options.metrics = obs_sinks.metrics();
    s.metrics = RunStreamingExperiment(stream, s.method, options);
  }

  std::printf("%-14s", "snapshot");
  for (size_t t = first_reported; t < stream.num_steps(); ++t) {
    std::printf("%10zu%%", 70 + 5 * t);
  }
  std::printf("\n");
  std::printf("%-14s", "nnz");
  for (size_t t = first_reported; t < stream.num_steps(); ++t) {
    std::printf("%11llu", static_cast<unsigned long long>(
                              series[0].metrics[t].snapshot_nnz));
  }
  std::printf("\n");
  bench::PrintRule();
  for (const Series& s : series) {
    std::printf("%-14s", MethodLabel(s.method, s.partitioner).c_str());
    for (size_t t = first_reported; t < stream.num_steps(); ++t) {
      std::printf("%11.4f", s.metrics[t].sim_seconds_per_iteration);
      csv->Row(spec.name, MethodLabel(s.method, s.partitioner), 70 + 5 * t,
               s.metrics[t].snapshot_nnz,
               s.metrics[t].sim_seconds_per_iteration);
    }
    std::printf("\n");
  }
}

}  // namespace
}  // namespace dismastd

int main(int argc, char** argv) {
  dismastd::bench::PrintHeader(
      "Fig. 5 — running time per iteration vs multi-aspect streaming tensor");
  std::printf("Setup: R=10, mu=0.8, 10 iterations, 15 workers, p=15/mode\n");
  const dismastd::bench::BenchObs obs_sinks(argc, argv);
  dismastd::bench::CsvWriter csv("fig5_streaming.csv");
  csv.Row("dataset", "method", "snapshot_pct", "snapshot_nnz",
          "sim_seconds_per_iteration");
  for (const auto& spec : dismastd::bench::ScaledPaperDatasets()) {
    dismastd::RunDataset(spec, obs_sinks, &csv);
  }
  std::printf("\n(series also written to fig5_streaming.csv)\n");
  obs_sinks.Finish();
  return 0;
}
