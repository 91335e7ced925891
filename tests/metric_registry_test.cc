#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/health.h"

namespace dismastd {
namespace obs {
namespace {

TEST(MetricRegistryTest, GetOrCreateReturnsStablePointers) {
  MetricRegistry registry;
  Counter* a = registry.GetCounter("dismastd_test_ops_total");
  Counter* b = registry.GetCounter("dismastd_test_ops_total");
  EXPECT_EQ(a, b);
  a->Inc();
  b->Inc(4);
  EXPECT_EQ(a->Value(), 5u);
  EXPECT_EQ(registry.NumSeries(), 1u);
}

TEST(MetricRegistryTest, LabelsDistinguishSeriesAndOrderDoesNot) {
  MetricRegistry registry;
  Counter* point =
      registry.GetCounter("dismastd_test_queries_total", {{"type", "point"}});
  Counter* topk =
      registry.GetCounter("dismastd_test_queries_total", {{"type", "topk"}});
  EXPECT_NE(point, topk);
  // The registry sorts label keys, so insertion order is irrelevant.
  Counter* ab = registry.GetCounter("dismastd_test_multi_total",
                                    {{"a", "1"}, {"b", "2"}});
  Counter* ba = registry.GetCounter("dismastd_test_multi_total",
                                    {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(ab, ba);
  EXPECT_EQ(registry.NumSeries(), 3u);
}

TEST(MetricRegistryTest, AllThreeKindsCoexist) {
  MetricRegistry registry;
  Counter* c = registry.GetCounter("dismastd_test_count_total");
  Gauge* g = registry.GetGauge("dismastd_test_level");
  Pow2Histogram* h = registry.GetHistogram("dismastd_test_bytes");
  c->Inc(3);
  g->Set(1.5);
  g->Add(0.5);
  h->Record(4096);
  EXPECT_EQ(c->Value(), 3u);
  EXPECT_NEAR(g->Value(), 2.0, 1e-12);
  EXPECT_EQ(h->Count(), 1u);
  EXPECT_EQ(registry.NumSeries(), 3u);
}

TEST(MetricRegistryDeathTest, KindMismatchIsACheckFailure) {
  MetricRegistry registry;
  registry.GetCounter("dismastd_test_mixed");
  EXPECT_DEATH(registry.GetGauge("dismastd_test_mixed"), "");
}

TEST(MetricRegistryDeathTest, InvalidNameIsACheckFailure) {
  MetricRegistry registry;
  EXPECT_DEATH(registry.GetCounter("has a space"), "");
  EXPECT_DEATH(registry.GetCounter("1starts_with_digit"), "");
}

TEST(MetricRegistryTest, PrometheusExpositionFormat) {
  MetricRegistry registry;
  registry.GetCounter("dismastd_test_ops_total", {}, "Operations.")->Inc(7);
  registry.GetGauge("dismastd_test_level", {{"mode", "0"}})->Set(0.25);
  Pow2Histogram* h = registry.GetHistogram("dismastd_test_bytes");
  h->Record(1);  // bucket 0 (le=2)
  h->Record(3);  // bucket 1 (le=4)

  const std::string text = registry.ExposePrometheus();
  EXPECT_NE(text.find("# HELP dismastd_test_ops_total Operations."),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE dismastd_test_ops_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("dismastd_test_ops_total 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE dismastd_test_level gauge"), std::string::npos);
  EXPECT_NE(text.find("dismastd_test_level{mode=\"0\"} 0.25"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE dismastd_test_bytes histogram"),
            std::string::npos);
  EXPECT_NE(text.find("dismastd_test_bytes_bucket{le=\"2\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("dismastd_test_bytes_bucket{le=\"4\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("dismastd_test_bytes_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("dismastd_test_bytes_sum 4"), std::string::npos);
  EXPECT_NE(text.find("dismastd_test_bytes_count 2"), std::string::npos);
  // Buckets are cumulative: the +Inf bucket equals _count.
}

TEST(MetricRegistryTest, PrometheusEscapesLabelValues) {
  MetricRegistry registry;
  registry
      .GetCounter("dismastd_test_weird_total",
                  {{"path", "a\\b\"c\nd"}})
      ->Inc();
  const std::string text = registry.ExposePrometheus();
  EXPECT_NE(text.find("path=\"a\\\\b\\\"c\\nd\""), std::string::npos);
}

TEST(MetricRegistryTest, PrometheusEscapesHelpText) {
  // 0.0.4 exposition format: HELP text escapes backslash and newline
  // (double quotes are legal there). An unescaped newline would split the
  // family header line and break every scraper.
  MetricRegistry registry;
  registry
      .GetCounter("dismastd_test_help_total", {},
                  "line one\nline two with \\ and \"quotes\"")
      ->Inc();
  const std::string text = registry.ExposePrometheus();
  EXPECT_NE(text.find("# HELP dismastd_test_help_total "
                      "line one\\nline two with \\\\ and \"quotes\""),
            std::string::npos)
      << text;
  // No raw newline inside the HELP line: the next line break starts TYPE.
  const size_t help_at = text.find("# HELP dismastd_test_help_total");
  ASSERT_NE(help_at, std::string::npos);
  const size_t eol = text.find('\n', help_at);
  ASSERT_NE(eol, std::string::npos);
  EXPECT_EQ(text.compare(eol + 1, 6, "# TYPE"), 0) << text;
}

TEST(MetricRegistryTest, ExpositionIsDeterministicallyOrdered) {
  MetricRegistry a, b;
  // Register in opposite orders; exposition must match byte-for-byte.
  a.GetCounter("dismastd_test_z_total")->Inc(1);
  a.GetCounter("dismastd_test_a_total")->Inc(2);
  b.GetCounter("dismastd_test_a_total")->Inc(2);
  b.GetCounter("dismastd_test_z_total")->Inc(1);
  EXPECT_EQ(a.ExposePrometheus(), b.ExposePrometheus());
  EXPECT_LT(a.ExposePrometheus().find("dismastd_test_a_total"),
            a.ExposePrometheus().find("dismastd_test_z_total"));
}

TEST(MetricRegistryTest, ConcurrentRegistrationAndUpdates) {
  // TSan target: concurrent get-or-create of the SAME series, lock-free
  // updates, and exposition racing with both.
  MetricRegistry registry;
  constexpr size_t kThreads = 8;
  constexpr size_t kIters = 500;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &go, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (size_t i = 0; i < kIters; ++i) {
        registry.GetCounter("dismastd_test_shared_total")->Inc();
        registry
            .GetCounter("dismastd_test_per_thread_total",
                        {{"thread", std::to_string(t % 4)}})
            ->Inc();
        registry.GetHistogram("dismastd_test_latency_nanoseconds")
            ->Record(i + 1);
        if (i % 100 == 0) {
          const std::string text = registry.ExposePrometheus();
          EXPECT_FALSE(text.empty());
        }
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();

  EXPECT_EQ(registry.GetCounter("dismastd_test_shared_total")->Value(),
            kThreads * kIters);
  EXPECT_EQ(
      registry.GetHistogram("dismastd_test_latency_nanoseconds")->Count(),
      kThreads * kIters);
  EXPECT_EQ(registry.NumSeries(), 2u + 4u);
}

TEST(MetricRegistryTest, ConcurrentHealthPublishAndScrape) {
  // TSan target (satellite of the health work): one shared registry being
  // scraped while a HealthMonitor publishes its counters/gauges from
  // another thread and alerts keep firing. PublishTo's delta discipline
  // must stay exact under the race: the final published count equals the
  // alert total, no matter how the publishes interleaved.
  MetricRegistry registry;
  HealthOptions options;
  options.z_threshold = 1e18;  // only the SLO rule fires, deterministically
  auto rules = ParseSloSpec("imbalance<1.5");
  ASSERT_TRUE(rules.ok());
  options.slo = rules.value();
  HealthMonitor monitor(options);
  // Seed the registry so the scraper always has something to expose.
  monitor.PublishTo(&registry);

  std::atomic<bool> go{false};
  std::atomic<bool> done{false};
  std::thread scraper([&] {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    while (!done.load(std::memory_order_acquire)) {
      const std::string text = registry.ExposePrometheus();
      EXPECT_FALSE(text.empty());
      // Under TSan a scraper that never yields holds the registry lock so
      // often that each publish waits about a second for it.
      std::this_thread::yield();
    }
  });
  std::thread alerter([&] {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    // 64 steps: four publishes race the scraper, then the final one.
    for (uint64_t step = 0; step < 64; ++step) {
      // Alternate ok/violated so every violation is an edge -> an alert.
      monitor.Observe(HealthSignal::kImbalance, step,
                      step % 2 == 0 ? 1.0 : 2.0);
      if (step % 16 == 0) monitor.PublishTo(&registry);
    }
  });
  go.store(true, std::memory_order_release);
  alerter.join();
  monitor.PublishTo(&registry);
  done.store(true, std::memory_order_release);
  scraper.join();

  EXPECT_EQ(monitor.alerts_total(), 32u);
  EXPECT_EQ(registry
                .GetCounter("dismastd_health_alerts_total",
                            {{"kind", "slo"}},
                            "Alerts emitted by the health monitor")
                ->Value(),
            32u);
  const std::string text = registry.ExposePrometheus();
  EXPECT_NE(text.find("dismastd_health_signal{signal=\"imbalance\"}"),
            std::string::npos);
}

}  // namespace
}  // namespace obs
}  // namespace dismastd
