#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Exact statistics over the benchmark's raw samples. Header-only and free
// of library dependencies so tests/stats_test.cc checks it in isolation.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// One percentile read off a sample set.
struct Percentile {
  /// In per-mille (500 = p50, 990 = p99).
  int permille = 500;
  double value = 0.0;
  /// Samples strictly above the percentile's rank.
  size_t beyond = 0;
  size_t count = 0;
};

/// Nearest-rank percentile of ascending `sorted` (non-empty): the sample at
/// 1-based rank ceil(permille * n / 1000), clamped to [1, n]. Integer
/// arithmetic, so p99 of 1000 samples is exactly rank 990.
inline Percentile NearestRank(const std::vector<double>& sorted,
                              int permille) {
  Percentile p;
  p.permille = permille;
  p.count = sorted.size();
  if (sorted.empty()) return p;
  const uint64_t n = sorted.size();
  uint64_t rank = (static_cast<uint64_t>(permille) * n + 999) / 1000;
  rank = std::clamp<uint64_t>(rank, 1, n);
  p.value = sorted[rank - 1];
  p.beyond = n - rank;
  return p;
}

/// Samples a tail percentile must leave beyond it to be reported.
inline constexpr size_t kMinBeyond = 10;

/// The highest of the reported percentiles p99, p95, p90, p75 with at
/// least kMinBeyond samples beyond it; p50 when even p75 is unsupported
/// (tiny smoke runs — `beyond` then says how thin the tail is).
inline Percentile TailPercentile(const std::vector<double>& sorted) {
  for (const int permille : {990, 950, 900, 750}) {
    const Percentile p = NearestRank(sorted, permille);
    if (p.beyond >= kMinBeyond) return p;
  }
  return NearestRank(sorted, 500);
}

inline std::vector<double> Sorted(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return samples;
}

/// One publish as the freshness clock sees it: every log position up to
/// and including `covered` is in a model that is queryable from `seconds`
/// (the return of the publish hook) on.
struct PublishMark {
  int64_t covered = -1;
  double seconds = 0.0;
};

/// Open-loop freshness. Log position `pos` is due at t0 + pos / rate; its
/// latency runs from that due time to the first publish in `marks` (in
/// publish order) whose coverage reaches it. Latency is measured from the
/// due time, not from when the producer got to enqueue the event, so a
/// stalled producer shows up in it. `positions` must be ascending;
/// positions no publish covers get no sample and are counted in
/// *uncovered.
inline std::vector<double> FreshnessLatencies(
    const std::vector<int64_t>& positions,
    const std::vector<PublishMark>& marks, double t0, double rate,
    size_t* uncovered) {
  std::vector<double> latencies;
  latencies.reserve(positions.size());
  size_t m = 0;
  int64_t reach = -1;  // running max coverage through marks[m - 1]
  *uncovered = 0;
  for (const int64_t pos : positions) {
    while (reach < pos && m < marks.size()) {
      reach = std::max(reach, marks[m].covered);
      ++m;
    }
    if (reach < pos) {
      ++*uncovered;
      continue;
    }
    const double due = t0 + static_cast<double>(pos) / rate;
    latencies.push_back(marks[m - 1].seconds - due);
  }
  return latencies;
}

inline double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
