#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/driver.h"
#include "counting_new.h"
#include "stream/generator.h"
#include "test_util.h"

namespace dismastd {
namespace {

using obs::ParseTraceDetail;
using obs::TraceDetail;
using obs::TraceDetailName;
using obs::Tracer;

// --- Minimal line-oriented reader for the sim ("pid":1) B/E events of the
// tracer's Chrome-trace export (one event per line by construction). ------

struct SimEvent {
  char ph = '?';
  int tid = -1;
  double ts_us = 0.0;
  std::string name;  // empty for 'E'
  std::string cat;
};

double NumberAfter(const std::string& line, const std::string& key) {
  const size_t pos = line.find(key);
  EXPECT_NE(pos, std::string::npos) << key << " missing in: " << line;
  return std::strtod(line.c_str() + pos + key.size(), nullptr);
}

std::string StringAfter(const std::string& line, const std::string& key) {
  const size_t pos = line.find(key);
  if (pos == std::string::npos) return "";
  const size_t begin = pos + key.size();
  const size_t end = line.find('"', begin);
  return line.substr(begin, end - begin);
}

std::vector<SimEvent> ParseSimEvents(const std::string& json) {
  std::vector<SimEvent> events;
  std::istringstream is(json);
  std::string line;
  while (std::getline(is, line)) {
    const size_t ph_pos = line.find("\"ph\":\"");
    if (ph_pos == std::string::npos) continue;
    const char ph = line[ph_pos + 6];
    if (ph != 'B' && ph != 'E') continue;
    if (line.find("\"pid\":1,") == std::string::npos) continue;
    SimEvent e;
    e.ph = ph;
    e.tid = static_cast<int>(NumberAfter(line, "\"tid\":"));
    e.ts_us = NumberAfter(line, "\"ts\":");
    e.name = StringAfter(line, "\"name\":\"");
    e.cat = StringAfter(line, "\"cat\":\"");
    events.push_back(std::move(e));
  }
  return events;
}

/// Checks per-lane stack discipline (every E closes the most recent B at a
/// timestamp >= its start) and per-lane monotonically non-decreasing
/// timestamps, accumulating closed-span durations by category, and by
/// name among the 'phase'-category spans.
struct SpanAccounting {
  std::map<std::string, double> us_by_category;
  std::map<std::string, double> us_by_phase;
  size_t spans = 0;
};

SpanAccounting CheckPairingAndAccount(const std::vector<SimEvent>& events) {
  SpanAccounting acct;
  std::map<int, std::vector<SimEvent>> open;
  std::map<int, double> last_ts;
  for (const SimEvent& e : events) {
    auto it = last_ts.find(e.tid);
    if (it != last_ts.end()) {
      EXPECT_GE(e.ts_us, it->second - 1e-9) << "lane " << e.tid;
    }
    last_ts[e.tid] = e.ts_us;
    if (e.ph == 'B') {
      open[e.tid].push_back(e);
    } else {
      auto& stack = open[e.tid];
      EXPECT_FALSE(stack.empty()) << "E without B on lane " << e.tid;
      if (stack.empty()) continue;
      const SimEvent begin = stack.back();
      stack.pop_back();
      const double dur = e.ts_us - begin.ts_us;
      EXPECT_GE(dur, -1e-9) << begin.name;
      acct.us_by_category[begin.cat] += dur;
      if (begin.cat == "phase") acct.us_by_phase[begin.name] += dur;
      ++acct.spans;
    }
  }
  for (const auto& [tid, stack] : open) {
    EXPECT_TRUE(stack.empty()) << "unclosed span on lane " << tid;
  }
  return acct;
}

StreamingTensorSequence MakeStream(uint64_t seed) {
  SparseTensor full =
      test::MakeDenseLowRank({18, 15, 12}, 2, seed, 0.05).tensor;
  auto schedule = MakeGrowthSchedule(full.dims(), 0.75, 0.05, 4);
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

TEST(TraceDetailTest, NamesAndParsingRoundTrip) {
  EXPECT_EQ(ParseTraceDetail("steps").value(), TraceDetail::kSteps);
  EXPECT_EQ(ParseTraceDetail("Phases").value(), TraceDetail::kPhases);
  EXPECT_EQ(ParseTraceDetail("WORKERS").value(), TraceDetail::kWorkers);
  EXPECT_FALSE(ParseTraceDetail("verbose").ok());
  for (TraceDetail d : {TraceDetail::kSteps, TraceDetail::kPhases,
                        TraceDetail::kWorkers}) {
    EXPECT_EQ(ParseTraceDetail(TraceDetailName(d)).value(), d);
  }
}

TEST(TracerTest, SimSpansExportWithBaseAdvance) {
  Tracer tracer;
  tracer.BeginSim(Tracer::kDriverLane, "step 0", "stream", 0.0);
  tracer.BeginSim(Tracer::kDriverLane, "mttkrp_update", "phase", 0.5);
  tracer.EndSim(Tracer::kDriverLane, 1.0);
  tracer.EndSim(Tracer::kDriverLane, 1.5);
  tracer.AdvanceSimBase(1.5);
  tracer.BeginSim(Tracer::kDriverLane, "step 1", "stream", 0.0);
  tracer.EndSim(Tracer::kDriverLane, 0.25);

  const std::string json = tracer.ToChromeTraceJson(/*include_wall=*/false);
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0),
            0u);
  EXPECT_NE(json.find("\"name\":\"process_name\",\"args\":{\"name\":\"sim "
                      "(BSP cluster)\"}"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"thread_name\",\"args\":{\"name\":"
                      "\"driver\"}"),
            std::string::npos);
  // Fixed-precision microsecond timestamps; the nested span starts at the
  // run-local 0.5 s, the base-advanced second step at the absolute 1.5 s.
  EXPECT_NE(
      json.find("\"ts\":500000.000,\"name\":\"mttkrp_update\",\"cat\":"
                "\"phase\""),
      std::string::npos);
  EXPECT_NE(json.find("\"ts\":1500000.000,\"name\":\"step 1\""),
            std::string::npos);
  EXPECT_EQ(tracer.event_count(), 6u);
  EXPECT_EQ(tracer.span_duration_nanos().Count(), 3u);
  EXPECT_EQ(tracer.dropped_events(), 0u);

  SpanAccounting acct = CheckPairingAndAccount(ParseSimEvents(json));
  EXPECT_EQ(acct.spans, 3u);
  EXPECT_NEAR(acct.us_by_category["stream"], 1.75e6, 1e-3);
  EXPECT_NEAR(acct.us_by_category["phase"], 0.5e6, 1e-3);
}

TEST(TracerTest, WallSpansLiveOnTheirOwnProcess) {
  Tracer tracer;
  { obs::ScopedWallSpan span(&tracer, "stream_step", "stream", "driver"); }
  obs::SpanTimer timer(&tracer, "predict", "serve");
  EXPECT_GE(timer.Stop(), 0.0);

  const std::string with_wall = tracer.ToChromeTraceJson(true);
  EXPECT_NE(with_wall.find("\"name\":\"process_name\",\"args\":{\"name\":"
                           "\"wall clock\"}"),
            std::string::npos);
  EXPECT_NE(with_wall.find("\"ph\":\"X\""), std::string::npos);
  // Both spans come from this thread: one lane, named at first use.
  EXPECT_NE(with_wall.find("driver #0"), std::string::npos);

  const std::string sim_only = tracer.ToChromeTraceJson(false);
  EXPECT_EQ(sim_only.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_EQ(sim_only.find("wall clock"), std::string::npos);
}

TEST(TracerTest, ResetDropsEventsAndRestoresBase) {
  Tracer tracer;
  tracer.BeginSim(Tracer::kDriverLane, "step 0", "stream", 0.0);
  tracer.EndSim(Tracer::kDriverLane, 1.0);
  tracer.AdvanceSimBase(1.0);
  tracer.Reset();
  EXPECT_EQ(tracer.event_count(), 0u);
  EXPECT_EQ(tracer.sim_base_seconds(), 0.0);
  EXPECT_EQ(tracer.span_duration_nanos().Count(), 0u);
  // The driver lane keeps its name for post-reset recording.
  EXPECT_NE(tracer.ToChromeTraceJson(false).find("\"driver\""),
            std::string::npos);
}

TEST(TracerDeterminismTest, SimLanesBitIdenticalAcrossExecutionThreads) {
  // The sim clock is advanced only on the driver thread, so the sim-lane
  // export must be byte-for-byte identical no matter how many execution
  // threads the engine uses. (Wall lanes are excluded: they are real time.)
  const SparseTensor full =
      test::MakeDenseLowRank({20, 16, 12}, 2, 5, 0.05).tensor;
  const std::vector<uint64_t> old_dims(3, 0);
  const KruskalTensor prev;

  std::vector<std::string> exports;
  for (size_t threads : {size_t{1}, size_t{4}}) {
    Tracer tracer(TraceDetail::kWorkers);
    DistributedOptions options = Opts();
    options.execution.num_threads = threads;
    options.tracer = &tracer;
    const DistributedResult result =
        DisMastdDecompose(full, old_dims, prev, options);
    EXPECT_GT(result.metrics.sim_seconds_total, 0.0);
    EXPECT_EQ(tracer.dropped_events(), 0u);
    exports.push_back(tracer.ToChromeTraceJson(/*include_wall=*/false));
  }
  EXPECT_EQ(exports[0], exports[1]);

  // Worker-detail traces carry one named lane per simulated worker, and
  // every lane is stack-disciplined with monotone timestamps.
  EXPECT_NE(exports[0].find("\"worker 0\""), std::string::npos);
  EXPECT_NE(exports[0].find("\"worker 3\""), std::string::npos);
  SpanAccounting acct = CheckPairingAndAccount(ParseSimEvents(exports[0]));
  EXPECT_GT(acct.us_by_category["worker"], 0.0);
}

/// Every sim-clock advance happens inside a committed superstep, and each
/// commit records exactly one phase span and one phase-table entry, so the
/// record and the trace agree phase by phase: for every StepPhase the
/// table's sim seconds, summed over steps, equal the summed 'phase' spans
/// of that name. The table tiles each step's sim_seconds_total within 1e-9
/// relative; the phase spans and the per-step 'stream' spans tile the
/// total within the export's rounding (each timestamp is printed to
/// 1e-3 us, so each span's duration is off by at most 1e-3 us).
void ExpectPhaseTableMatchesTrace(const std::vector<StreamStepMetrics>& metrics,
                                  const Tracer& tracer) {
  const SpanAccounting acct = CheckPairingAndAccount(
      ParseSimEvents(tracer.ToChromeTraceJson(/*include_wall=*/false)));
  double total_us = 0.0;
  std::map<std::string, double> table_us;
  for (const StreamStepMetrics& sm : metrics) {
    total_us += sm.sim_seconds_total * 1e6;
    double step_sim = 0.0;
    for (StepPhase phase : kStepPhases) {
      table_us[StepPhaseName(phase)] += sm.phase_seconds[phase].sim * 1e6;
      step_sim += sm.phase_seconds[phase].sim;
    }
    EXPECT_NEAR(step_sim, sm.sim_seconds_total, 1e-9 * sm.sim_seconds_total)
        << "step " << sm.step;
  }
  const double tol = 1e-3 * static_cast<double>(acct.spans) + 1e-9 * total_us;
  EXPECT_GT(total_us, 0.0);
  EXPECT_NEAR(acct.us_by_category.at("stream"), total_us, tol);
  EXPECT_NEAR(acct.us_by_category.at("phase"), total_us, tol);
  for (StepPhase phase : kStepPhases) {
    const std::string name = StepPhaseName(phase);
    const auto spans = acct.us_by_phase.find(name);
    EXPECT_NEAR(spans == acct.us_by_phase.end() ? 0.0 : spans->second,
                table_us[name], tol)
        << name;
  }
}

TEST(TracerStreamTest, PhaseSpansPartitionTheSimulatedTimeline) {
  const StreamingTensorSequence stream = MakeStream(1);
  Tracer tracer;  // default detail: kPhases
  DistributedOptions options = Opts();
  options.tracer = &tracer;
  const std::vector<StreamStepMetrics> metrics =
      RunStreamingExperiment(stream, MethodKind::kDisMastd, options);
  ExpectPhaseTableMatchesTrace(metrics, tracer);

  // The hierarchy is present: steps, iterations, modes, phases.
  const std::string json = tracer.ToChromeTraceJson(/*include_wall=*/false);
  EXPECT_NE(json.find("\"name\":\"step 0\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"iteration\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"mode\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"partition\""), std::string::npos);
}

TEST(TracerStreamTest, PhaseTableMatchesTraceUnderElasticCoordinatorAndCrash) {
  // Every phase runs: the scale plan's two events repartition and migrate
  // (so the partition superstep no longer starts the step's clock), and a
  // worker crash in step 2 replays its sweeps from the checkpoint.
  const StreamingTensorSequence stream = MakeStream(2);
  Tracer tracer;
  DistributedOptions options = Opts();
  options.tracer = &tracer;
  options.fault_plan.crash_worker = 1;
  options.fault_plan.crash_stream_step = 2;
  options.fault_plan.crash_superstep = 0;
  options.recovery = RecoveryMode::kCheckpoint;
  ElasticOptions elastic_options;
  elastic_options.imbalance_threshold = 1000.0;  // only the plan fires
  elastic_options.scale_plan = ParseScalePlan("add=2@1,drain=1@2").value();
  ElasticCoordinator coordinator(elastic_options, options.partitioner,
                                 options.num_workers, options.parts_per_mode);
  options.elastic = &coordinator;
  const std::vector<StreamStepMetrics> metrics =
      RunStreamingExperiment(stream, MethodKind::kDisMastd, options);

  for (StepPhase phase : kStepPhases) {
    double sim = 0.0;
    for (const StreamStepMetrics& sm : metrics) {
      sim += sm.phase_seconds[phase].sim;
    }
    EXPECT_GT(sim, 0.0) << StepPhaseName(phase);
  }
  ExpectPhaseTableMatchesTrace(metrics, tracer);
}

TEST(TracerOverheadTest, DisabledHooksRecordAndAllocateNothing) {
  Tracer tracer;
  tracer.set_enabled(false);
  Tracer* null_tracer = nullptr;

  const uint64_t before = g_new_calls.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    if (obs::Active(&tracer)) {
      tracer.BeginSim(Tracer::kDriverLane, "never", "never", 0.0);
    }
    obs::ScopedWallSpan span(&tracer, "noop", "test", "driver");
    obs::SpanTimer timer(null_tracer, "noop", "test");
    timer.Stop();
  }
  const uint64_t after = g_new_calls.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);
  EXPECT_EQ(tracer.event_count(), 0u);

  // Re-enabling makes the same hooks record.
  tracer.set_enabled(true);
  { obs::ScopedWallSpan span(&tracer, "now", "test", "driver"); }
  EXPECT_EQ(tracer.event_count(), 1u);
}

TEST(TracerOverheadTest, DisabledTracerLeavesDecompositionUntraced) {
  const SparseTensor full =
      test::MakeDenseLowRank({12, 10, 8}, 2, 7, 0.05).tensor;
  Tracer tracer(TraceDetail::kWorkers);
  tracer.set_enabled(false);
  DistributedOptions options = Opts();
  options.tracer = &tracer;
  const DistributedResult result = DisMastdDecompose(
      full, std::vector<uint64_t>(3, 0), KruskalTensor(), options);
  EXPECT_GT(result.metrics.sim_seconds_total, 0.0);
  EXPECT_EQ(tracer.event_count(), 0u);
}

}  // namespace
}  // namespace dismastd
