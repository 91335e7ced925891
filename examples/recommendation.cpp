// Recommendation system over a growing rating tensor — the paper's §I
// motivating application.
//
// A user x product x time rating tensor grows in all three modes as new
// users sign up, new products launch and time advances. DisMASTD keeps the
// CP factors current at every step; missing ratings are predicted from the
// latent representations, and per-user top-k recommendations are read off
// the model.
//
// Build & run: cmake --build build && ./build/examples/recommendation

#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/driver.h"
#include "stream/generator.h"

using namespace dismastd;

namespace {

/// Predicted rating of (user, product) at time `t` under the CP model.
double PredictRating(const KruskalTensor& model, uint64_t user,
                     uint64_t product, uint64_t t) {
  const uint64_t index[] = {user, product, t};
  return model.ValueAt(index);
}

}  // namespace

int main() {
  // Synthetic engagement stream with a hidden rank-4 taste structure and
  // 5-step multi-aspect growth: new users, new products and new weeks all
  // arrive together. (Fully observed so the model quality is visible; the
  // engine processes sparse rating tensors identically.)
  SparseTensor ratings =
      GenerateDenseLowRankTensor({150, 90, 16}, /*rank=*/4,
                                 /*noise_stddev=*/0.1, /*seed=*/7)
          .tensor;
  auto schedule = MakeGrowthSchedule(ratings.dims(), 0.6, 0.1, 5);
  const StreamingTensorSequence stream(std::move(ratings),
                                       std::move(schedule));

  DistributedOptions options;
  options.als.rank = 8;
  options.als.mu = 0.8;
  options.als.max_iterations = 10;
  options.num_workers = 6;
  options.partitioner = PartitionerKind::kMaxMin;

  std::printf("Streaming recommendation model (users x products x weeks)\n");
  std::printf("%-5s %-16s %-12s %-10s %-12s\n", "step", "dims", "new nnz",
              "fit", "s/iter(sim)");

  KruskalTensor model;
  std::vector<uint64_t> prev_dims(3, 0);
  for (size_t t = 0; t < stream.num_steps(); ++t) {
    const SparseTensor delta = stream.DeltaAt(t);
    const DistributedResult result =
        DisMastdDecompose(delta, prev_dims, model, options);
    model = result.als.factors;
    prev_dims = stream.DimsAt(t);

    const SparseTensor snapshot = stream.SnapshotAt(t);
    char dims_buf[32];
    std::snprintf(dims_buf, sizeof(dims_buf), "%zux%zux%zu",
                  (size_t)prev_dims[0], (size_t)prev_dims[1],
                  (size_t)prev_dims[2]);
    std::printf("%-5zu %-16s %-12zu %-10.4f %-12.4f\n", t, dims_buf,
                delta.nnz(), model.Fit(snapshot),
                result.metrics.sim_seconds_per_iteration);
  }

  // Top-5 product recommendations for a few users at the latest week.
  const uint64_t latest_week = prev_dims[2] - 1;
  std::printf("\nTop-5 recommendations at week %zu:\n", (size_t)latest_week);
  for (uint64_t user : {0ull, 42ull, 137ull}) {
    std::vector<std::pair<double, uint64_t>> scored;
    for (uint64_t product = 0; product < prev_dims[1]; ++product) {
      scored.emplace_back(PredictRating(model, user, product, latest_week),
                          product);
    }
    std::partial_sort(scored.begin(), scored.begin() + 5, scored.end(),
                      std::greater<>());
    std::printf("  user %-4zu ->", (size_t)user);
    for (int k = 0; k < 5; ++k) {
      std::printf(" p%zu(%.2f)", (size_t)scored[k].second, scored[k].first);
    }
    std::printf("\n");
  }
  return 0;
}
