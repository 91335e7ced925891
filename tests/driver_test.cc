#include "core/driver.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>

#include "common/string_util.h"
#include "core/dms_mg.h"
#include "cwin/continuous_session.h"
#include "cwin/sliding_window.h"
#include "ingest/event_queue.h"
#include "kernels/kernels.h"
#include "obs/health.h"
#include "obs/trace.h"
#include "serve/servable_model.h"
#include "stream/generator.h"
#include "test_util.h"

namespace dismastd {
namespace {

StreamingTensorSequence MakeStream(uint64_t seed) {
  // Fully observed low-rank box so fit assertions are meaningful.
  SparseTensor full = test::MakeDenseLowRank({18, 15, 12}, 2, seed, 0.05).tensor;
  auto schedule = MakeGrowthSchedule(full.dims(), 0.75, 0.05, 6);
  return StreamingTensorSequence(std::move(full), std::move(schedule));
}

DistributedOptions Opts() {
  DistributedOptions o;
  o.als.rank = 3;
  o.als.max_iterations = 4;
  o.num_workers = 4;
  o.partitioner = PartitionerKind::kMaxMin;
  return o;
}

TEST(DriverTest, MethodLabels) {
  EXPECT_EQ(MethodLabel(MethodKind::kDisMastd, PartitionerKind::kGreedy),
            "DisMASTD-GTP");
  EXPECT_EQ(MethodLabel(MethodKind::kDmsMg, PartitionerKind::kMaxMin),
            "DMS-MG-MTP");
}

TEST(DriverTest, ParseMethodKindRoundTrips) {
  EXPECT_EQ(ParseMethodKind("dismastd").value(), MethodKind::kDisMastd);
  EXPECT_EQ(ParseMethodKind("DisMASTD").value(), MethodKind::kDisMastd);
  EXPECT_EQ(ParseMethodKind("dmsmg").value(), MethodKind::kDmsMg);
  EXPECT_EQ(ParseMethodKind("DMS-MG").value(), MethodKind::kDmsMg);
  const auto bad = ParseMethodKind("spark");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("spark"), std::string::npos);
}

TEST(DriverTest, ParsePartitionerKindRoundTrips) {
  EXPECT_EQ(ParsePartitionerKind("gtp").value(), PartitionerKind::kGreedy);
  EXPECT_EQ(ParsePartitionerKind("GTP").value(), PartitionerKind::kGreedy);
  EXPECT_EQ(ParsePartitionerKind("greedy").value(), PartitionerKind::kGreedy);
  EXPECT_EQ(ParsePartitionerKind("mtp").value(), PartitionerKind::kMaxMin);
  EXPECT_EQ(ParsePartitionerKind("max-min").value(), PartitionerKind::kMaxMin);
  EXPECT_FALSE(ParsePartitionerKind("random").ok());
}

/// Every value's canonical name must parse back, in lower, upper and
/// mixed case — the round-trip keeps CLI output reusable as CLI input.
template <typename E>
void ExpectNamesParse(const std::vector<E>& values, const char* (*name)(E),
                      Result<E> (*parse)(const std::string&)) {
  for (E value : values) {
    const std::string lower = AsciiLower(name(value));
    std::string upper = lower;
    std::string mixed = lower;
    for (size_t i = 0; i < lower.size(); ++i) {
      const char up = static_cast<char>(
          std::toupper(static_cast<unsigned char>(lower[i])));
      upper[i] = up;
      if (i % 2 == 0) mixed[i] = up;
    }
    for (const std::string& text : {lower, upper, mixed}) {
      const Result<E> parsed = parse(text);
      ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().message();
      EXPECT_EQ(parsed.value(), value) << text;
    }
  }
}

TEST(DriverTest, ParseAcceptsKindNameOutput) {
  ExpectNamesParse({PartitionerKind::kGreedy, PartitionerKind::kMaxMin},
                   PartitionerKindName, ParsePartitionerKind);
  ExpectNamesParse({MethodKind::kDisMastd, MethodKind::kDmsMg},
                   MethodKindName, ParseMethodKind);
  ExpectNamesParse({RecoveryMode::kCheckpoint, RecoveryMode::kDegraded},
                   RecoveryModeName, ParseRecoveryMode);
  ExpectNamesParse({kernels::Backend::kScalar, kernels::Backend::kAvx2,
                    kernels::Backend::kAvx512},
                   kernels::BackendName, kernels::ParseBackend);
  ExpectNamesParse({obs::TraceDetail::kSteps, obs::TraceDetail::kPhases,
                    obs::TraceDetail::kWorkers},
                   obs::TraceDetailName, obs::ParseTraceDetail);
  std::vector<obs::HealthSignal> signals;
  for (size_t i = 0; i < obs::kNumHealthSignals; ++i) {
    signals.push_back(static_cast<obs::HealthSignal>(i));
  }
  ExpectNamesParse(signals, obs::HealthSignalName, obs::ParseHealthSignal);
  ExpectNamesParse({serve::SearchMode::kExact, serve::SearchMode::kAnn,
                    serve::SearchMode::kAnnCached},
                   serve::SearchModeName, serve::ParseSearchMode);
  ExpectNamesParse({cwin::DecayKind::kSliding, cwin::DecayKind::kExponential},
                   cwin::DecayKindName, cwin::ParseDecayKind);
  ExpectNamesParse({ingest::BackpressurePolicy::kBlock,
                    ingest::BackpressurePolicy::kDropOldest,
                    ingest::BackpressurePolicy::kReject},
                   ingest::BackpressurePolicyName,
                   ingest::ParseBackpressurePolicy);
  ExpectNamesParse({cwin::IngestMode::kBatch, cwin::IngestMode::kContinuous},
                   cwin::IngestModeName, cwin::ParseIngestMode);
}

TEST(DriverTest, DisMastdProcessesOnlyDeltas) {
  const StreamingTensorSequence stream = MakeStream(1);
  const auto metrics =
      RunStreamingExperiment(stream, MethodKind::kDisMastd, Opts());
  ASSERT_EQ(metrics.size(), 6u);
  uint64_t cumulative = 0;
  for (size_t t = 0; t < metrics.size(); ++t) {
    EXPECT_EQ(metrics[t].step, t);
    EXPECT_EQ(metrics[t].processed_nnz, stream.DeltaAt(t).nnz());
    cumulative += metrics[t].processed_nnz;
    EXPECT_EQ(metrics[t].snapshot_nnz, cumulative);
  }
  // After the first (cold) step, DisMASTD touches only a fraction of the
  // snapshot.
  for (size_t t = 1; t < metrics.size(); ++t) {
    EXPECT_LT(metrics[t].processed_nnz, metrics[t].snapshot_nnz / 2);
  }
}

TEST(DriverTest, DmsMgProcessesFullSnapshots) {
  const StreamingTensorSequence stream = MakeStream(2);
  const auto metrics =
      RunStreamingExperiment(stream, MethodKind::kDmsMg, Opts());
  for (size_t t = 0; t < metrics.size(); ++t) {
    EXPECT_EQ(metrics[t].processed_nnz, metrics[t].snapshot_nnz);
  }
}

TEST(DriverTest, DmsMgStepIsDmsMgDecomposeOfItsSnapshot) {
  // Both methods share one step path. A DMS-MG step must still be the
  // from-scratch baseline over the step's snapshot, under the per-step
  // seed rule and with stream_step set — factors and record alike.
  const StreamingTensorSequence stream = MakeStream(5);
  const DistributedOptions options = Opts();
  std::vector<KruskalTensor> factors;
  const auto metrics = RunStreamingExperiment(
      stream, MethodKind::kDmsMg, options, /*compute_fit=*/false,
      [&factors](const StreamStepMetrics&, const KruskalTensor& f) {
        factors.push_back(f);
      });
  ASSERT_EQ(metrics.size(), stream.num_steps());
  ASSERT_EQ(factors.size(), stream.num_steps());
  for (size_t t = 0; t < stream.num_steps(); ++t) {
    DistributedOptions step_options = options;
    step_options.als.seed = options.als.seed + 7919 * t;
    step_options.stream_step = t;
    const DistributedResult want =
        DmsMgDecompose(stream.SnapshotAt(t), step_options);
    for (size_t n = 0; n < want.als.factors.order(); ++n) {
      EXPECT_TRUE(factors[t].factor(n) == want.als.factors.factor(n))
          << "step " << t << " mode " << n;
    }
    const StreamStepMetrics& got = metrics[t];
    EXPECT_EQ(got.step, t);
    EXPECT_EQ(got.step, want.metrics.step);
    EXPECT_EQ(got.dims, want.metrics.dims);
    EXPECT_EQ(got.processed_nnz, want.metrics.processed_nnz);
    EXPECT_EQ(got.iterations, want.metrics.iterations);
    EXPECT_EQ(got.final_loss, want.metrics.final_loss);
    EXPECT_EQ(got.sim_seconds_total, want.metrics.sim_seconds_total);
    EXPECT_EQ(got.sim_seconds_per_sweep, want.metrics.sim_seconds_per_sweep);
    EXPECT_EQ(got.comm_bytes, want.metrics.comm_bytes);
    EXPECT_EQ(got.comm_messages, want.metrics.comm_messages);
    EXPECT_EQ(got.flops, want.metrics.flops);
    EXPECT_EQ(got.load_imbalance, want.metrics.load_imbalance);
  }
}

TEST(DriverTest, DisMastdIsCheaperThanDmsMgAfterColdStart) {
  const StreamingTensorSequence stream = MakeStream(3);
  const auto dis =
      RunStreamingExperiment(stream, MethodKind::kDisMastd, Opts());
  const auto dms = RunStreamingExperiment(stream, MethodKind::kDmsMg, Opts());
  for (size_t t = 1; t < dis.size(); ++t) {
    EXPECT_LT(dis[t].flops, dms[t].flops) << "step " << t;
    EXPECT_LT(dis[t].sim_seconds_per_iteration,
              dms[t].sim_seconds_per_iteration)
        << "step " << t;
  }
}

TEST(DriverTest, FitComputedOnRequestAndHigh) {
  const StreamingTensorSequence stream = MakeStream(4);
  DistributedOptions options = Opts();
  options.als.max_iterations = 10;
  const auto metrics = RunStreamingExperiment(stream, MethodKind::kDisMastd,
                                              options, /*compute_fit=*/true);
  for (const StreamStepMetrics& m : metrics) {
    EXPECT_GT(m.fit, 0.5) << "step " << m.step;
  }
  // Without the flag, fit defaults to 0.
  const auto no_fit =
      RunStreamingExperiment(stream, MethodKind::kDisMastd, options);
  EXPECT_EQ(no_fit[0].fit, 0.0);
}

TEST(DriverTest, MetricsFieldsPopulated) {
  const StreamingTensorSequence stream = MakeStream(5);
  const auto metrics =
      RunStreamingExperiment(stream, MethodKind::kDisMastd, Opts());
  for (const StreamStepMetrics& m : metrics) {
    EXPECT_EQ(m.dims.size(), 3u);
    EXPECT_EQ(m.iterations, 4u);
    EXPECT_GT(m.sim_seconds_per_iteration, 0.0);
    EXPECT_GT(m.sim_seconds_total, 0.0);
    EXPECT_GT(m.flops, 0u);
    EXPECT_GT(m.comm_bytes, 0u);
    EXPECT_TRUE(std::isfinite(m.final_loss));
  }
}

}  // namespace
}  // namespace dismastd
