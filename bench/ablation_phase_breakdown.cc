// Phase breakdown of DisMASTD's per-iteration simulated time: the
// fetch+MTTKRP+row-update supersteps, the all-to-all Gram reductions
// (§IV-B3), and the loss computation (§IV-B4). Shows where the time goes
// per dataset and how the composition shifts with the worker count (the
// reduction term grows with M², everything else shrinks).

#include <cstdio>

#include "bench_util.h"
#include "core/dtd.h"

namespace dismastd {
namespace {

void Run(const DatasetSpec& spec) {
  const StreamingTensorSequence stream = MakeDatasetStream(spec);
  // Warm to the final step, then break down one full decomposition.
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

  for (uint32_t workers : {3u, 15u}) {
    DistributedOptions options = bench::PaperOptions();
    options.num_workers = workers;
    options.parts_per_mode = workers;
    const DistributedResult result =
        DisMastdDecompose(delta, prev_dims, prev, options);
    const StreamStepMetrics& m = result.metrics;
    const double iters = static_cast<double>(result.als.iterations);
    std::printf("%-10s %7u %12.4f %12.4f %12.4f %12.4f %12.4f\n",
                spec.name.c_str(), workers, m.sim_seconds_partitioning,
                m.sim_seconds_mttkrp_update / iters,
                m.sim_seconds_gram_reduce / iters,
                m.sim_seconds_loss / iters, m.sim_seconds_per_iteration);
  }
}

}  // namespace
}  // namespace dismastd

int main() {
  dismastd::bench::PrintHeader(
      "Phase breakdown — where DisMASTD's simulated time goes");
  std::printf("%-10s %7s %12s %12s %12s %12s %12s\n", "Dataset", "workers",
              "partition s", "mttkrp+upd/i", "gram red./i", "loss/i",
              "total/iter");
  dismastd::bench::PrintRule();
  for (const auto& spec : dismastd::bench::ScaledPaperDatasets()) {
    dismastd::Run(spec);
  }
  return 0;
}
