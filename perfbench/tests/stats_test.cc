// Unit test of the benchmark's exact percentiles and open-loop freshness
// math (src/stats.h). Exits non-zero on the first failed expectation.

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "stats_test.cc:%d: expected %s\n", line, what);
    ++failures;
  }
}

#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::abs(a - b) < 1e-12; }

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void NearestRankUsesIntegerRanks() {
  const std::vector<double> v = OneTo(1000);
  EXPECT(perfbench::NearestRank(v, 500).value == 500.0);
  EXPECT(perfbench::NearestRank(v, 990).value == 990.0);
  EXPECT(perfbench::NearestRank(v, 990).beyond == 10);
  // ceil(0.5 * 3) = 2; ceil(0.99 * 3) = 3.
  EXPECT(perfbench::NearestRank(OneTo(3), 500).value == 2.0);
  EXPECT(perfbench::NearestRank(OneTo(3), 990).value == 3.0);
  EXPECT(perfbench::NearestRank({7.0}, 500).value == 7.0);
  EXPECT(perfbench::NearestRank({}, 500).count == 0);
}

void TailPicksHighestPercentileWithTenBeyond() {
  // 40 steps: p90 leaves 4 beyond, p75 leaves exactly 10.
  perfbench::Percentile p = perfbench::TailPercentile(OneTo(40));
  EXPECT(p.permille == 750 && p.value == 30.0 && p.beyond == 10);
  p = perfbench::TailPercentile(OneTo(100));
  EXPECT(p.permille == 900 && p.beyond == 10);
  // 999 samples: p99 is rank 990 with only 9 beyond, so p95.
  p = perfbench::TailPercentile(OneTo(999));
  EXPECT(p.permille == 950 && p.value == 950.0 && p.beyond == 49);
  p = perfbench::TailPercentile(OneTo(1000));
  EXPECT(p.permille == 990 && p.value == 990.0 && p.beyond == 10);
  p = perfbench::TailPercentile(OneTo(100000));
  EXPECT(p.permille == 990);
  // Too few samples for any tail: the median, with its thin tail visible.
  p = perfbench::TailPercentile(OneTo(5));
  EXPECT(p.permille == 500 && p.beyond < perfbench::kMinBeyond);
}

void FreshnessRunsFromDueTimeToFirstCoveringPublish() {
  // 10 records/s from t0 = 1 s: position p is due at 1 + p / 10.
  std::vector<int64_t> positions;
  for (int64_t p = 0; p < 25; ++p) positions.push_back(p);
  const std::vector<perfbench::PublishMark> marks = {{9, 2.0}, {19, 3.5}};
  size_t uncovered = 0;
  const std::vector<double> lat =
      perfbench::FreshnessLatencies(positions, marks, 1.0, 10.0, &uncovered);
  EXPECT(lat.size() == 20 && uncovered == 5);
  EXPECT(Near(lat[0], 1.0));   // due 1.0, queryable 2.0
  EXPECT(Near(lat[9], 0.1));   // due 1.9
  EXPECT(Near(lat[10], 1.5));  // due 2.0, first covered at 3.5
  EXPECT(Near(lat[19], 0.6));  // due 2.9
}

void FreshnessCountsProducerStalls() {
  // The producer stalls: nothing is published until 6 s although every
  // event was due by 1.9 s. Latency is taken from the due time, so the
  // stall is in every sample (an enqueue-time clock would hide it).
  std::vector<int64_t> positions;
  for (int64_t p = 0; p < 10; ++p) positions.push_back(p);
  size_t uncovered = 0;
  const std::vector<double> lat = perfbench::FreshnessLatencies(
      positions, {{9, 6.0}}, 1.0, 10.0, &uncovered);
  EXPECT(uncovered == 0 && lat.size() == 10);
  EXPECT(Near(lat[0], 5.0) && Near(lat[9], 4.1));
  EXPECT(Near(perfbench::Mean(lat), 4.55));
}

void FreshnessTakesRunningMaxCoverage() {
  // A publish that covers less than an earlier one (an empty batch) never
  // un-covers a position; only a later publish that reaches further does.
  const std::vector<int64_t> positions = {0, 4, 5, 8};
  const std::vector<perfbench::PublishMark> marks = {
      {4, 1.0}, {2, 2.0}, {8, 3.0}};
  size_t uncovered = 0;
  const std::vector<double> lat =
      perfbench::FreshnessLatencies(positions, marks, 0.0, 1.0, &uncovered);
  EXPECT(uncovered == 0 && lat.size() == 4);
  EXPECT(Near(lat[0], 1.0) && Near(lat[1], -3.0));
  EXPECT(Near(lat[2], -2.0) && Near(lat[3], -5.0));
}

}  // namespace

int main() {
  NearestRankUsesIntegerRanks();
  TailPicksHighestPercentileWithTenBeyond();
  FreshnessRunsFromDueTimeToFirstCoveringPublish();
  FreshnessCountsProducerStalls();
  FreshnessTakesRunningMaxCoverage();
  if (failures == 0) std::printf("stats_test: all expectations hold\n");
  return failures == 0 ? 0 : 1;
}
