// Trend monitoring over a streaming interaction tensor.
//
// A source x topic x time activity tensor grows as events arrive. The CP
// factors' time mode exposes each latent component's temporal profile;
// monitoring the latest time-factor row reveals which latent "trends" are
// heating up or cooling down, and the drift of the non-temporal factors
// between consecutive snapshots quantifies concept drift — all maintained
// incrementally by DisMASTD instead of re-decomposing each snapshot.
//
// Build & run: cmake --build build && ./build/examples/trend_monitor

#include <cmath>
#include <cstdio>
#include <vector>

#include "core/dismastd.h"
#include "stream/generator.h"
#include "stream/snapshot.h"

using namespace dismastd;

namespace {

/// Column energies of the latest time-factor row: component f's current
/// activity level.
std::vector<double> CurrentTrendStrengths(const KruskalTensor& model) {
  const Matrix& time_factor = model.factor(2);
  const size_t last = time_factor.rows() - 1;
  std::vector<double> strengths(time_factor.cols());
  for (size_t f = 0; f < time_factor.cols(); ++f) {
    strengths[f] = time_factor(last, f);
  }
  return strengths;
}

/// Relative Frobenius drift of the overlapping rows of factor `mode`.
double FactorDrift(const KruskalTensor& before, const KruskalTensor& after,
                   size_t mode) {
  const Matrix& old_factor = before.factor(mode);
  const Matrix& new_factor = after.factor(mode);
  double num = 0.0, den = 0.0;
  for (size_t r = 0; r < old_factor.rows(); ++r) {
    for (size_t c = 0; c < old_factor.cols(); ++c) {
      const double d = new_factor(r, c) - old_factor(r, c);
      num += d * d;
      den += old_factor(r, c) * old_factor(r, c);
    }
  }
  return den > 0.0 ? std::sqrt(num / den) : 0.0;
}

}  // namespace

int main() {
  // sources x topics x hours activity counts with 3 latent trends.
  SparseTensor activity =
      GenerateDenseLowRankTensor({100, 40, 30}, /*rank=*/3,
                                 /*noise_stddev=*/0.1, /*seed=*/99)
          .tensor;
  auto schedule = MakeGrowthSchedule(activity.dims(), 0.5, 0.125, 5);
  const StreamingTensorSequence stream(std::move(activity),
                                       std::move(schedule));

  DistributedOptions options;
  options.als.rank = 6;
  options.als.mu = 0.7;  // forget faster: trends move quickly
  options.als.max_iterations = 10;
  options.num_workers = 6;

  std::printf("Streaming trend monitor (sources x topics x hours)\n\n");

  KruskalTensor model;
  std::vector<uint64_t> prev_dims(3, 0);
  for (size_t t = 0; t < stream.num_steps(); ++t) {
    const SparseTensor delta = stream.DeltaAt(t);
    const KruskalTensor before = model;
    const DistributedResult result =
        DisMastdDecompose(delta, prev_dims, model, options);
    model = result.als.factors;

    std::printf("step %zu: +%zu events, hours 0..%zu, sim %.4f s/iter\n", t,
                delta.nnz(), (size_t)stream.DimsAt(t)[2] - 1,
                result.metrics.sim_seconds_per_iteration);

    const std::vector<double> strengths = CurrentTrendStrengths(model);
    std::printf("  trend strengths now :");
    for (double s : strengths) std::printf(" %7.3f", s);
    std::printf("\n");

    if (t > 0) {
      std::printf("  concept drift       : sources %.3f | topics %.3f\n",
                  FactorDrift(before, model, 0),
                  FactorDrift(before, model, 1));
    }
    prev_dims = stream.DimsAt(t);
  }

  std::printf("\nFinal model fit on the full tensor: %.4f\n",
              model.Fit(stream.SnapshotAt(stream.num_steps() - 1)));
  return 0;
}
