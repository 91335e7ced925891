// Empirical check of Theorem 4: DisMASTD's network communication is
// O(nnz(X \ X̃) + M·N·R² + N·I·R + N·d·R). This harness sweeps the worker
// count M and the rank R and prints measured payload bytes next to the
// dominant model terms, so the scaling of each term is visible:
//   - the M² R² all-to-all Gram reduction grows quadratically in M,
//   - the row-fetch and factor-distribution terms grow linearly in R,
//   - the one-off nnz term is constant across M.

#include <cstdio>

#include "bench_util.h"
#include "core/dtd.h"
#include "stream/snapshot.h"

namespace dismastd {
namespace {

void Run(const DatasetSpec& spec) {
  const StreamingTensorSequence stream = MakeDatasetStream(spec);
  // Warm factors for the final step.
  DistributedOptions warm = bench::PaperOptions();
  warm.als.max_iterations = 2;
  KruskalTensor prev;
  std::vector<uint64_t> prev_dims(spec.dims.size(), 0);
  for (size_t t = 0; t + 1 < stream.num_steps(); ++t) {
    prev = DisMastdDecompose(stream.DeltaAt(t), prev_dims, prev, warm)
               .als.factors;
    prev_dims = stream.DimsAt(t);
  }
  const SparseTensor delta = stream.DeltaAt(stream.num_steps() - 1);

  std::printf("\n%s: final-step delta nnz = %zu\n", spec.name.c_str(),
              delta.nnz());
  std::printf("%-8s %-5s %14s %16s %16s\n", "workers", "R", "measured MB",
              "gram term MB", "row terms MB");
  for (uint32_t workers : {3u, 6u, 9u, 12u, 15u}) {
    DistributedOptions options = bench::PaperOptions();
    options.num_workers = workers;
    options.parts_per_mode = workers;
    options.als.max_iterations = 10;
    const DistributedResult result =
        DisMastdDecompose(delta, prev_dims, prev, options);

    const double r = static_cast<double>(options.als.rank);
    const double n = static_cast<double>(delta.order());
    const double m = workers;
    const double iters = static_cast<double>(result.als.iterations);
    double dim_sum = 0.0;
    for (uint64_t d : delta.dims()) dim_sum += static_cast<double>(d);
    // 3 reduced R x R matrices per mode per iteration, M(M-1) messages each.
    const double gram_term =
        iters * 3.0 * n * m * (m - 1.0) * r * r * 8.0 / 1e6;
    // Factor distribution (N·I·R once) plus per-iteration row fetches:
    // for each mode, each of the p partitions can need up to all rows of
    // every other factor, so the fetch volume is bounded by
    // (N-1)·p·ΣI·(8 + 8R) per mode sweep — the duplication across
    // partitions is what medium-grain partitioners (CartHP) attack.
    const double row_terms =
        (n * dim_sum * (8.0 + r * 8.0) +
         iters * n * (n - 1.0) * m * dim_sum * (8.0 + r * 8.0)) /
        1e6;
    std::printf("%-8u %-5zu %14.2f %16.2f %16.2f\n", workers,
                options.als.rank,
                static_cast<double>(result.metrics.comm_bytes) / 1e6,
                gram_term, row_terms);
  }
}

}  // namespace
}  // namespace dismastd

int main() {
  dismastd::bench::PrintHeader(
      "Theorem 4 — communication volume vs model terms "
      "(O(nnz + M N R^2 + N I R + N d R))");
  // One skewed and one uniform dataset are enough to see the scaling.
  const auto specs = dismastd::bench::ScaledPaperDatasets();
  dismastd::Run(specs[0]);  // Clothing
  dismastd::Run(specs[3]);  // Synthetic
  return 0;
}
