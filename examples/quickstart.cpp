// Quickstart: the 60-second tour of the DisMASTD public API.
//
//   1. Build a sparse tensor.
//   2. Decompose it with centralized CP-ALS.
//   3. Grow the tensor in every mode (multi-aspect streaming) and update
//      the decomposition incrementally with DisMASTD on a simulated
//      cluster — without recomputing from scratch.
//
// Build & run:  cmake --build build && ./build/examples/quickstart

#include <cstdio>

#include "core/dismastd.h"
#include "core/dtd.h"
#include "stream/generator.h"
#include "stream/snapshot.h"

using namespace dismastd;

int main() {
  // --- 1. A 3-order data tensor (e.g. user x item x time engagement). ---
  // Fully observed low-rank box so the decomposition quality is visible;
  // the library handles sparse COO tensors of any fill identically.
  const SparseTensor full =
      GenerateDenseLowRankTensor({60, 45, 24}, /*rank=*/4,
                                 /*noise_stddev=*/0.05, /*seed=*/2021)
          .tensor;

  // The "previous" snapshot is the 80% prefix box in every mode.
  const std::vector<uint64_t> old_dims = {48, 36, 19};
  const SparseTensor first = RestrictToBox(full, old_dims);
  std::printf("snapshot t-1: %zux%zux%zu, %zu non-zeros\n",
              (size_t)first.dim(0), (size_t)first.dim(1),
              (size_t)first.dim(2), first.nnz());

  // --- 2. Static CP decomposition of the first snapshot. ---------------
  DecompositionOptions als;
  als.rank = 10;
  als.max_iterations = 15;
  const AlsResult base = CpAls(first, als);
  std::printf("CP-ALS: %zu iterations, final loss %.4f, fit %.4f\n",
              base.iterations, base.loss_history.back(),
              base.factors.Fit(first));

  // --- 3. The tensor grows in all three modes: update incrementally. ---
  const SparseTensor delta = RelativeComplement(full, old_dims);
  std::printf("snapshot t: %zux%zux%zu (+%zu new non-zeros)\n",
              (size_t)full.dim(0), (size_t)full.dim(1), (size_t)full.dim(2),
              delta.nnz());

  DistributedOptions options;
  options.als = als;
  options.als.mu = 0.8;             // forgetting factor
  options.num_workers = 8;          // simulated cluster size
  options.partitioner = PartitionerKind::kMaxMin;

  const DistributedResult updated =
      DisMastdDecompose(delta, old_dims, base.factors, options);

  std::printf("DisMASTD: %zu iterations on %u workers\n",
              updated.als.iterations, options.num_workers);
  std::printf("  fit on the full grown tensor : %.4f\n",
              updated.als.factors.Fit(full));
  std::printf("  simulated time               : %.4f s "
              "(%.4f s/iteration)\n",
              updated.metrics.sim_seconds_total,
              updated.metrics.sim_seconds_per_iteration);
  std::printf("  network traffic              : %.2f MB in %llu messages\n",
              static_cast<double>(updated.metrics.comm_bytes) / 1e6,
              static_cast<unsigned long long>(updated.metrics.comm_messages));
  std::printf("  work touched                 : only the %zu delta "
              "non-zeros, not all %zu\n",
              delta.nnz(), full.nnz());
  return 0;
}
