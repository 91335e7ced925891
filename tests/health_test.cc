// Health monitoring and the crash flight recorder: online detectors
// (EWMA z-score, monotone trend), declarative SLO rules with named parse
// errors, the lock-free alert ring, deterministic alerting across
// execution thread counts on a seeded latency spike, flight-recorder
// frames under a crash+drop fault run, the crash-dump hook, and the
// zero-allocation discipline when the monitor is off.
#include <gtest/gtest.h>

#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/dismastd.h"
#include "core/driver.h"
#include "counting_new.h"
#include "obs/flightrec.h"
#include "obs/health.h"
#include "stream/snapshot.h"
#include "test_util.h"

namespace dismastd {
namespace {

using obs::AlertEvent;
using obs::AlertKind;
using obs::AlertRing;
using obs::EwmaDetector;
using obs::FlightRecorder;
using obs::HealthFrame;
using obs::HealthMonitor;
using obs::HealthOptions;
using obs::HealthSignal;
using obs::ParseSloSpec;
using obs::SloRule;
using obs::TrendDetector;

// --- Detectors ----------------------------------------------------------

TEST(EwmaDetectorTest, WarmupSuppressesThenSpikeFires) {
  EwmaDetector detector(/*alpha=*/0.3, /*z_threshold=*/4.0, /*warmup=*/8);
  double z = 0.0;
  // A 5x outlier during warmup must not fire: the baseline is not yet
  // trustworthy.
  EXPECT_FALSE(detector.Observe(1.0, &z));
  EXPECT_FALSE(detector.Observe(5.0, &z));
  for (int i = 0; i < 6; ++i) {
    EXPECT_FALSE(detector.Observe(1.0, &z)) << "warmup sample " << i;
  }
  ASSERT_EQ(detector.samples(), 8u);
  // Settle the post-warmup baseline (no spike on constant input): the
  // outlier's contribution to the decayed mean/variance dies off.
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(detector.Observe(1.0, &z)) << "baseline sample " << i;
  }
  // 10x the settled baseline is a spike with a large one-sided z.
  EXPECT_TRUE(detector.Observe(10.0, &z));
  EXPECT_GT(z, 4.0);
}

TEST(EwmaDetectorTest, SustainedShiftRearmsInsteadOfAlertingForever) {
  EwmaDetector detector(0.3, 4.0, 8);
  double z = 0.0;
  for (int i = 0; i < 16; ++i) detector.Observe(1.0, &z);
  EXPECT_TRUE(detector.Observe(10.0, &z));
  // The observation folds into the baseline either way, so a sustained
  // shift converges: the new level stops looking anomalous and the mean
  // tracks it.
  bool fired_last = true;
  for (int i = 0; i < 20; ++i) {
    fired_last = detector.Observe(10.0, &z);
  }
  EXPECT_FALSE(fired_last);
  EXPECT_NEAR(detector.mean(), 10.0, 1.0);
}

TEST(EwmaDetectorTest, DownwardMovesNeverFire) {
  EwmaDetector detector(0.3, 4.0, 4);
  double z = 0.0;
  for (int i = 0; i < 8; ++i) detector.Observe(100.0, &z);
  EXPECT_FALSE(detector.Observe(0.001, &z));  // one-sided test
  EXPECT_LT(z, 0.0);
}

TEST(TrendDetectorTest, FiresAtWindowOncePerEpisodeAndRearms) {
  TrendDetector trend(/*window=*/3);
  EXPECT_FALSE(trend.Observe(5.0));  // first sample: no previous
  EXPECT_FALSE(trend.Observe(4.0));
  EXPECT_FALSE(trend.Observe(3.0));
  EXPECT_TRUE(trend.Observe(2.0));  // third consecutive strict decrease
  // Continuing the same decay episode stays silent.
  EXPECT_FALSE(trend.Observe(1.0));
  EXPECT_FALSE(trend.Observe(0.5));
  // A non-decrease re-arms...
  EXPECT_FALSE(trend.Observe(0.5));
  EXPECT_EQ(trend.streak(), 0u);
  // ...and a fresh window-length decay fires again.
  EXPECT_FALSE(trend.Observe(0.4));
  EXPECT_FALSE(trend.Observe(0.3));
  EXPECT_TRUE(trend.Observe(0.2));
}

// --- SLO spec parsing ---------------------------------------------------

TEST(SloSpecTest, ParsesAllOperatorsAndSignals) {
  const auto rules = ParseSloSpec(
      "serve_p99_ms<5,imbalance<=1.5,retransmitted_bytes>10,fit>=0.9");
  ASSERT_TRUE(rules.ok()) << rules.status().message();
  ASSERT_EQ(rules.value().size(), 4u);

  const SloRule& p99 = rules.value()[0];
  EXPECT_EQ(p99.signal, HealthSignal::kServeP99Ms);
  EXPECT_EQ(p99.op, SloRule::Op::kLt);
  EXPECT_DOUBLE_EQ(p99.bound, 5.0);
  EXPECT_STREQ(p99.text, "serve_p99_ms<5");
  EXPECT_TRUE(p99.Holds(4.9));
  EXPECT_FALSE(p99.Holds(5.0));

  const SloRule& imbalance = rules.value()[1];
  EXPECT_EQ(imbalance.op, SloRule::Op::kLe);
  EXPECT_TRUE(imbalance.Holds(1.5));
  EXPECT_FALSE(imbalance.Holds(1.51));

  const SloRule& bytes = rules.value()[2];
  EXPECT_EQ(bytes.op, SloRule::Op::kGt);
  EXPECT_TRUE(bytes.Holds(11.0));
  EXPECT_FALSE(bytes.Holds(10.0));

  const SloRule& fit = rules.value()[3];
  EXPECT_EQ(fit.signal, HealthSignal::kFitness);
  EXPECT_EQ(fit.op, SloRule::Op::kGe);
  EXPECT_TRUE(fit.Holds(0.9));
  EXPECT_FALSE(fit.Holds(0.89));
}

TEST(SloSpecTest, EmptyTokensAndEmptySpecAreFine) {
  EXPECT_TRUE(ParseSloSpec("").ok());
  EXPECT_TRUE(ParseSloSpec("").value().empty());
  const auto rules = ParseSloSpec(",imbalance<1.5,");
  ASSERT_TRUE(rules.ok());
  EXPECT_EQ(rules.value().size(), 1u);
}

TEST(SloSpecTest, ErrorsNameTheTokenAndItsPosition) {
  // Unknown signal: the message carries the 1-based token position, the
  // token itself, and the list of known signals.
  const auto unknown = ParseSloSpec("serve_p99_ms<5,bogus<1");
  ASSERT_FALSE(unknown.ok());
  EXPECT_NE(unknown.status().message().find("token 2"), std::string::npos)
      << unknown.status().message();
  EXPECT_NE(unknown.status().message().find("'bogus<1'"), std::string::npos)
      << unknown.status().message();
  EXPECT_NE(unknown.status().message().find("step_sim_seconds"),
            std::string::npos)
      << unknown.status().message();

  const auto no_op = ParseSloSpec("imbalance");
  ASSERT_FALSE(no_op.ok());
  EXPECT_NE(no_op.status().message().find("token 1"), std::string::npos);
  EXPECT_NE(no_op.status().message().find("SIGNAL<BOUND"), std::string::npos);

  const auto bad_bound = ParseSloSpec("imbalance<abc");
  ASSERT_FALSE(bad_bound.ok());
  EXPECT_NE(bad_bound.status().message().find("not a finite number"),
            std::string::npos)
      << bad_bound.status().message();

  const auto trailing = ParseSloSpec("imbalance<1.5x");
  ASSERT_FALSE(trailing.ok());
}

// --- Alert ring ---------------------------------------------------------

TEST(AlertRingTest, WrapsKeepingTrueTotalAndOldestFirstOrder) {
  AlertRing ring;
  const uint64_t pushes = AlertRing::kCapacity + 44;
  for (uint64_t i = 0; i < pushes; ++i) {
    AlertEvent event;
    event.sequence = i;
    event.step = i * 3;
    event.value = static_cast<double>(i);
    event.SetRule("zscore:step_sim_seconds");
    ring.Push(event);
  }
  EXPECT_EQ(ring.total(), pushes);
  const std::vector<AlertEvent> retained = ring.Snapshot();
  ASSERT_EQ(retained.size(), AlertRing::kCapacity);
  // Oldest retained alert is the first not yet overwritten.
  EXPECT_EQ(retained.front().sequence, pushes - AlertRing::kCapacity);
  EXPECT_EQ(retained.back().sequence, pushes - 1);
  for (size_t i = 1; i < retained.size(); ++i) {
    EXPECT_EQ(retained[i].sequence, retained[i - 1].sequence + 1);
  }
  EXPECT_STREQ(retained.back().rule, "zscore:step_sim_seconds");
  EXPECT_EQ(retained.back().step, (pushes - 1) * 3);
}

TEST(AlertRingTest, RuleLongerThanInlineArrayIsTruncatedNotOverrun) {
  AlertEvent event;
  const std::string long_rule(200, 'x');
  event.SetRule(long_rule.c_str());
  EXPECT_EQ(std::string(event.rule).size(), sizeof(event.rule) - 1);
}

// --- Monitor: detector routing and SLO edge triggering ------------------

TEST(HealthMonitorTest, ZScoreSpikeEmitsOneStructuredAlert) {
  HealthMonitor monitor;
  for (uint64_t step = 0; step < 16; ++step) {
    monitor.Observe(HealthSignal::kStepSimSeconds, step, 1.0);
  }
  EXPECT_EQ(monitor.alerts_total(), 0u);
  monitor.Observe(HealthSignal::kStepSimSeconds, 16, 10.0);
  ASSERT_EQ(monitor.alerts_total(), 1u);
  const std::vector<AlertEvent> alerts = monitor.alerts().Snapshot();
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].kind, AlertKind::kZScore);
  EXPECT_EQ(alerts[0].signal, HealthSignal::kStepSimSeconds);
  EXPECT_EQ(alerts[0].step, 16u);
  EXPECT_STREQ(alerts[0].rule, "zscore:step_sim_seconds");
  EXPECT_GT(alerts[0].value, 4.0);  // the z-score, not the raw sample
  EXPECT_DOUBLE_EQ(alerts[0].threshold, 4.0);
  EXPECT_EQ(monitor.last_alert_rule(), "zscore:step_sim_seconds");
  EXPECT_DOUBLE_EQ(monitor.last_value(HealthSignal::kStepSimSeconds), 10.0);
}

TEST(HealthMonitorTest, SloAlertsAreEdgeTriggered) {
  HealthOptions options;
  options.z_threshold = 1e18;  // silence the spike detector for this test
  const auto rules = ParseSloSpec("imbalance<1.5");
  ASSERT_TRUE(rules.ok());
  options.slo = rules.value();
  HealthMonitor monitor(options);

  monitor.Observe(HealthSignal::kImbalance, 0, 1.0);
  EXPECT_EQ(monitor.alerts_total(), 0u);
  // ok -> violated: one alert.
  monitor.Observe(HealthSignal::kImbalance, 1, 1.6);
  EXPECT_EQ(monitor.alerts_total(), 1u);
  // Sustained breach: still one alert.
  monitor.Observe(HealthSignal::kImbalance, 2, 1.7);
  monitor.Observe(HealthSignal::kImbalance, 3, 1.7);
  EXPECT_EQ(monitor.alerts_total(), 1u);
  // Recovery re-arms; the next breach alerts again.
  monitor.Observe(HealthSignal::kImbalance, 4, 1.2);
  monitor.Observe(HealthSignal::kImbalance, 5, 1.8);
  ASSERT_EQ(monitor.alerts_total(), 2u);
  const std::vector<AlertEvent> alerts = monitor.alerts().Snapshot();
  ASSERT_EQ(alerts.size(), 2u);
  EXPECT_EQ(alerts[0].kind, AlertKind::kSlo);
  EXPECT_EQ(alerts[0].step, 1u);
  EXPECT_STREQ(alerts[0].rule, "imbalance<1.5");
  EXPECT_DOUBLE_EQ(alerts[0].value, 1.6);
  EXPECT_DOUBLE_EQ(alerts[0].threshold, 1.5);
  EXPECT_EQ(alerts[1].step, 5u);
  // A rule bound to one signal never fires from another signal's values.
  monitor.Observe(HealthSignal::kServeP99Ms, 6, 100.0);
  EXPECT_EQ(monitor.alerts_total(), 2u);
}

TEST(HealthMonitorTest, FitnessDecayUsesTheTrendDetector) {
  HealthOptions options;
  options.trend_window = 4;
  HealthMonitor monitor(options);
  monitor.Observe(HealthSignal::kFitness, 0, 0.95);
  for (uint64_t step = 1; step <= 3; ++step) {
    monitor.Observe(HealthSignal::kFitness, step,
                    0.95 - 0.01 * static_cast<double>(step));
    EXPECT_EQ(monitor.alerts_total(), 0u) << "step " << step;
  }
  monitor.Observe(HealthSignal::kFitness, 4, 0.90);  // 4th strict decrease
  ASSERT_EQ(monitor.alerts_total(), 1u);
  const std::vector<AlertEvent> alerts = monitor.alerts().Snapshot();
  EXPECT_EQ(alerts[0].kind, AlertKind::kTrend);
  EXPECT_EQ(alerts[0].signal, HealthSignal::kFitness);
  EXPECT_STREQ(alerts[0].rule, "trend:fit");
  EXPECT_EQ(alerts[0].step, 4u);
}

TEST(HealthMonitorTest, AlertsToStringListsRetainedAlerts) {
  HealthMonitor quiet;
  EXPECT_EQ(quiet.AlertsToString(), "");

  HealthOptions options;
  options.z_threshold = 1e18;
  const auto rules = ParseSloSpec("serve_p99_ms<5");
  ASSERT_TRUE(rules.ok());
  options.slo = rules.value();
  HealthMonitor monitor(options);
  monitor.Observe(HealthSignal::kServeP99Ms, 3, 9.5);
  const std::string text = monitor.AlertsToString();
  EXPECT_NE(text.find("health alerts: 1"), std::string::npos) << text;
  EXPECT_NE(text.find("serve_p99_ms<5"), std::string::npos) << text;
  EXPECT_NE(text.find("step 3"), std::string::npos) << text;
}

// --- Deterministic alerting on a seeded latency spike -------------------

// A stream whose per-step cost is flat for sixteen steps (one new mode-0
// row per step), then one step that ingests a 21-row slab: a large
// sim-time spike at step 16. The flat stretch is twice the z-score
// warmup (8) so the expensive cold-start step's contribution to the
// decayed variance has died off by the spike; the non-growing modes are
// wide enough (a 1,200-nnz row) that the slab nnz dominates the per-step
// fixed costs.
StreamingTensorSequence MakeSpikeStream(uint64_t seed) {
  SparseTensor full =
      test::MakeDenseLowRank({52, 40, 30}, 2, seed, 0.05).tensor;
  std::vector<std::vector<uint64_t>> schedule;
  for (uint64_t t = 0; t < 16; ++t) {
    schedule.push_back({16 + t, 40, 30});
  }
  schedule.push_back({52, 40, 30});
  return StreamingTensorSequence(std::move(full), std::move(schedule));
}

constexpr uint64_t kSpikeStep = 16;

std::vector<AlertEvent> RunSpikeScenario(size_t num_threads) {
  const StreamingTensorSequence stream = MakeSpikeStream(11);
  HealthMonitor monitor;
  DistributedOptions options;
  options.als.rank = 3;
  options.als.max_iterations = 2;
  options.num_workers = 4;
  options.partitioner = PartitionerKind::kMaxMin;
  options.execution.num_threads = num_threads;
  options.health = &monitor;
  const auto metrics = RunStreamingExperiment(
      stream, MethodKind::kDisMastd, options, /*compute_fit=*/false);
  EXPECT_EQ(metrics.size(), kSpikeStep + 1);
  // The spike step really is several times heavier than the baseline.
  EXPECT_GT(metrics[kSpikeStep].sim_seconds_total,
            3.0 * metrics[kSpikeStep - 1].sim_seconds_total);
  return monitor.alerts().Snapshot();
}

TEST(HealthMonitorTest, SeededLatencySpikeFiresDeterministicallyAcrossThreads) {
  const std::vector<AlertEvent> single = RunSpikeScenario(1);
  const std::vector<AlertEvent> threaded = RunSpikeScenario(4);

  // Exactly one step-time spike alert, at the seeded spike step. Other
  // signals (imbalance, retransmitted bytes) may or may not alert, but
  // whatever they do is deterministic — checked below.
  std::vector<AlertEvent> spikes;
  for (const AlertEvent& event : single) {
    if (std::string(event.rule) == "zscore:step_sim_seconds") {
      spikes.push_back(event);
    }
  }
  ASSERT_EQ(spikes.size(), 1u);
  EXPECT_EQ(spikes[0].step, kSpikeStep);
  EXPECT_EQ(spikes[0].kind, AlertKind::kZScore);
  EXPECT_GT(spikes[0].value, 4.0);

  // The full alert sequence — every field — is identical across thread
  // counts: all watched signals here are simulated metrics, and the
  // detectors are pure functions of the observation sequence.
  ASSERT_EQ(single.size(), threaded.size());
  for (size_t i = 0; i < single.size(); ++i) {
    EXPECT_EQ(single[i].sequence, threaded[i].sequence) << "alert " << i;
    EXPECT_EQ(single[i].step, threaded[i].step) << "alert " << i;
    EXPECT_EQ(single[i].kind, threaded[i].kind) << "alert " << i;
    EXPECT_EQ(single[i].signal, threaded[i].signal) << "alert " << i;
    EXPECT_EQ(single[i].value, threaded[i].value) << "alert " << i;
    EXPECT_EQ(single[i].threshold, threaded[i].threshold) << "alert " << i;
    EXPECT_STREQ(single[i].rule, threaded[i].rule) << "alert " << i;
  }
}

// --- Flight recorder ----------------------------------------------------

TEST(FlightRecorderTest, FramesWrapKeepingTrueTotal) {
  FlightRecorder recorder;
  const uint64_t frames = FlightRecorder::kCapacity + 17;
  for (uint64_t i = 0; i < frames; ++i) {
    HealthFrame frame;
    frame.step = i;
    frame.sim_seconds_total = static_cast<double>(i) * 0.5;
    recorder.RecordFrame(frame);
  }
  EXPECT_EQ(recorder.frames_total(), frames);
  const std::vector<HealthFrame> retained = recorder.Frames();
  ASSERT_EQ(retained.size(), FlightRecorder::kCapacity);
  EXPECT_EQ(retained.front().step, frames - FlightRecorder::kCapacity);
  EXPECT_EQ(retained.back().step, frames - 1);
}

TEST(FlightRecorderTest, NotesAggregateByKind) {
  FlightRecorder recorder;
  recorder.NoteEvent("crash_recovery", 2);
  recorder.NoteEvent("orphaned_messages", 3);
  recorder.NoteEvent("crash_recovery", 5);
  EXPECT_EQ(recorder.notes_total(), 3u);
  const std::string json = recorder.ToJson("test");
  // Same-kind notes fold into one entry with a count and the latest step.
  EXPECT_NE(json.find("\"what\":\"crash_recovery\",\"step\":5,\"count\":2"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"what\":\"orphaned_messages\",\"step\":3,\"count\":1"),
            std::string::npos)
      << json;
}

TEST(FlightRecorderTest, DumpFileWritesSchemaTaggedJson) {
  FlightRecorder recorder;
  HealthFrame frame;
  frame.step = 7;
  frame.fit = 0.875;
  frame.SetLastAlert("zscore:imbalance");
  recorder.RecordFrame(frame);
  const std::string path =
      std::string(::testing::TempDir()) + "/flight_dump_test.json";
  const Status status = recorder.DumpFile(path, "exit");
  ASSERT_TRUE(status.ok()) << status.message();
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream content;
  content << in.rdbuf();
  const std::string json = content.str();
  EXPECT_NE(json.find("\"schema\":\"dismastd-flight-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"reason\":\"exit\""), std::string::npos);
  EXPECT_NE(json.find("\"step\":7"), std::string::npos);
  EXPECT_NE(json.find("\"fit\":0.875"), std::string::npos);
  EXPECT_NE(json.find("\"last_alert\":\"zscore:imbalance\""),
            std::string::npos);
  std::remove(path.c_str());

  EXPECT_FALSE(
      recorder.DumpFile("/nonexistent-dir/flight.json", "exit").ok());
}

TEST(FlightRecorderTest, CrashAndDropRunRecordsTheCrashStep) {
  // The acceptance-criteria scenario: a streaming run with drops and a
  // seeded worker crash, flight recorder and health monitor attached. The
  // black box must hold one frame per step, the crash step's frame must
  // carry the crash, and the notes must name the recovery.
  SparseTensor full =
      test::MakeDenseLowRank({18, 15, 12}, 2, /*seed=*/1, 0.05).tensor;
  auto schedule = MakeGrowthSchedule(full.dims(), 0.75, 0.05, 6);
  const StreamingTensorSequence stream(std::move(full), std::move(schedule));

  HealthMonitor monitor;
  FlightRecorder recorder;
  DistributedOptions options;
  options.als.rank = 3;
  options.als.max_iterations = 8;
  options.num_workers = 4;
  options.partitioner = PartitionerKind::kMaxMin;
  options.recovery = RecoveryMode::kDegraded;
  options.fault_plan.seed = 17;
  options.fault_plan.drop_prob = 0.05;
  options.fault_plan.crash_worker = 1;
  options.fault_plan.crash_stream_step = 2;
  options.fault_plan.crash_superstep = 10;
  options.health = &monitor;
  options.flight = &recorder;
  const auto metrics = RunStreamingExperiment(
      stream, MethodKind::kDisMastd, options, /*compute_fit=*/true);
  ASSERT_EQ(metrics.size(), 6u);

  EXPECT_EQ(recorder.frames_total(), 6u);
  const std::vector<HealthFrame> frames = recorder.Frames();
  ASSERT_EQ(frames.size(), 6u);
  for (size_t t = 0; t < frames.size(); ++t) {
    EXPECT_EQ(frames[t].step, t);
    EXPECT_GT(frames[t].sim_seconds_total, 0.0) << "step " << t;
    EXPECT_EQ(frames[t].num_workers, 4u) << "step " << t;
  }
  EXPECT_EQ(frames[2].crashes, 1u);
  // Drops force retransmissions; the frame carries the byte count.
  uint64_t retransmitted = 0;
  for (const HealthFrame& frame : frames) {
    retransmitted += frame.retransmitted_bytes;
  }
  EXPECT_GT(retransmitted, 0u);
  EXPECT_GE(recorder.notes_total(), 1u);
  const std::string json = recorder.ToJson("test");
  EXPECT_NE(json.find("\"what\":\"crash_recovery\",\"step\":2"),
            std::string::npos)
      << json;
}

TEST(FlightRecorderDeathTest, FailedCheckDumpsTheBlackBoxBeforeAborting) {
  const std::string path =
      std::string(::testing::TempDir()) + "/flight_check_crash.json";
  std::remove(path.c_str());
  EXPECT_EXIT(
      {
        // Child process: arm the global hooks, record a frame, then trip
        // an invariant check. The hook must write the dump before abort.
        static FlightRecorder recorder;
        HealthFrame frame;
        frame.step = 41;
        recorder.RecordFrame(frame);
        FlightRecorder::InstallGlobal(&recorder, path);
        DISMASTD_CHECK(1 + 1 == 3);
      },
      ::testing::KilledBySignal(SIGABRT), "1 \\+ 1 == 3");
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "crash hook did not write " << path;
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("\"reason\":\"check_failed\""),
            std::string::npos)
      << content.str();
  EXPECT_NE(content.str().find("\"step\":41"), std::string::npos);
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, InstallGlobalNullDisarms) {
  FlightRecorder recorder;
  FlightRecorder::InstallGlobal(&recorder, "/tmp/unused.json");
  EXPECT_EQ(FlightRecorder::Global(), &recorder);
  FlightRecorder::InstallGlobal(nullptr, "");
  EXPECT_EQ(FlightRecorder::Global(), nullptr);
}

// --- Overhead discipline ------------------------------------------------

TEST(HealthOverheadTest, DisabledMonitorRecordsAndAllocatesNothing) {
  HealthMonitor monitor;
  monitor.set_enabled(false);
  HealthMonitor* null_monitor = nullptr;
  EXPECT_FALSE(obs::Active(&monitor));
  EXPECT_FALSE(obs::Active(null_monitor));

  const uint64_t before = g_new_calls.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    if (obs::Active(&monitor)) {
      monitor.Observe(HealthSignal::kStepSimSeconds, i, 1.0);
    }
    monitor.Observe(HealthSignal::kImbalance, i, 2.0);  // early-returns
  }
  const uint64_t after = g_new_calls.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);
  EXPECT_EQ(monitor.alerts_total(), 0u);
  EXPECT_EQ(monitor.last_value(HealthSignal::kImbalance), 0.0);

  // Re-enabling makes the same hooks observe.
  monitor.set_enabled(true);
  monitor.Observe(HealthSignal::kImbalance, 0, 2.0);
  EXPECT_EQ(monitor.last_value(HealthSignal::kImbalance), 2.0);
}

TEST(HealthOverheadTest, QuietObservationsAllocateNothing) {
  // Even enabled, the steady-state path (observe, no alert) is
  // allocation-free: detectors are inline state machines and the ring
  // only takes writes on alerts.
  HealthMonitor monitor;
  for (int i = 0; i < 32; ++i) {
    monitor.Observe(HealthSignal::kStepSimSeconds, i, 1.0);
  }
  const uint64_t before = g_new_calls.load(std::memory_order_relaxed);
  for (int i = 32; i < 1032; ++i) {
    monitor.Observe(HealthSignal::kStepSimSeconds, i, 1.0);
  }
  const uint64_t after = g_new_calls.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);
  EXPECT_EQ(monitor.alerts_total(), 0u);
}

TEST(HealthOverheadTest, FlightRecordingAllocatesNothing) {
  static FlightRecorder recorder;  // too large for the stack
  HealthFrame frame;
  frame.step = 1;
  const uint64_t before = g_new_calls.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    frame.step = static_cast<uint64_t>(i);
    recorder.RecordFrame(frame);
  }
  const uint64_t after = g_new_calls.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);
  EXPECT_EQ(recorder.frames_total(), 1000u);
}

}  // namespace
}  // namespace dismastd
