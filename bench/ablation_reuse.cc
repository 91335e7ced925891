// Ablation for the design choice of §IV-B4: maintaining and reusing the
// MTTKRP result and the cached Gram products when computing the loss, versus
// recomputing the inner product ⟨X\X̃, Y⟩ from scratch every iteration.
// The reuse path reads the inner product off Â in O(I·R); the recompute path
// streams all non-zeros again (O(nnz·N·R)) and pays an extra reduction.

#include <cstdio>

#include "bench_util.h"
#include "core/dtd.h"

namespace dismastd {
namespace {

void RunDataset(const DatasetSpec& spec) {
  const StreamingTensorSequence stream = MakeDatasetStream(spec);
  // Warm up to the last streaming step, then measure one step both ways.
  DistributedOptions warm = bench::PaperOptions();
  KruskalTensor prev;
  std::vector<uint64_t> prev_dims(spec.dims.size(), 0);
  for (size_t t = 0; t + 1 < stream.num_steps(); ++t) {
    const SparseTensor delta = stream.DeltaAt(t);
    prev = DisMastdDecompose(delta, prev_dims, prev, warm).als.factors;
    prev_dims = stream.DimsAt(t);
  }
  const SparseTensor delta = stream.DeltaAt(stream.num_steps() - 1);

  for (bool reuse : {true, false}) {
    DistributedOptions options = bench::PaperOptions();
    options.als.reuse_intermediates = reuse;
    const DistributedResult result =
        DisMastdDecompose(delta, prev_dims, prev, options);
    std::printf("%-10s %-9s %12.4f %14.3f %12.3f\n", spec.name.c_str(),
                reuse ? "reuse" : "recompute",
                result.metrics.sim_seconds_per_iteration,
                static_cast<double>(result.metrics.flops) / 1e6,
                static_cast<double>(result.metrics.comm_bytes) /
                    1e6);
  }
}

}  // namespace
}  // namespace dismastd

int main() {
  dismastd::bench::PrintHeader(
      "Ablation — reuse of MTTKRP/Gram intermediates in the loss (§IV-B4)");
  std::printf("%-10s %-9s %12s %14s %12s\n", "Dataset", "loss", "s/iter",
              "Mflops total", "comm MB");
  dismastd::bench::PrintRule();
  for (const auto& spec : dismastd::bench::ScaledPaperDatasets()) {
    dismastd::RunDataset(spec);
  }
  return 0;
}
