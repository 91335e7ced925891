#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <sys/resource.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "report.h"
#include "tensor/coo_tensor.h"
#include "tensor/kruskal.h"

namespace perfbench {

/// Each workload generates its inputs from config.seed, measures for about
/// config.seconds, checks its outputs, and fills `report`.
void RunDtdStream(Report& report);
void RunIngestBatch(Report& report);
void RunIngestCwin(Report& report);
void RunServeLive(Report& report);

/// Set-up is repeated this many times per run and the median reported, so
/// setup_s is steady; the inputs of the last repetition are used.
inline constexpr int kSetupRepetitions = 3;

/// Runs `set_up` kSetupRepetitions times, reports the median wall time as
/// setup_s (the first repetition also counts process start-up) and returns
/// the last repetition's result. Each repetition's result is freed before
/// the next is built, so peak_rss_mb counts one set of inputs.
template <typename SetUpFn>
auto RepeatSetUp(Report& report, SetUpFn set_up) {
  std::vector<double> seconds;
  decltype(set_up()) result;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    const double start = rep == 0 ? 0.0 : Now();
    result = decltype(result){};
    result = set_up();
    seconds.push_back(Now() - start);
  }
  report.Set("setup_s", NearestRank(Sorted(seconds), 500).value);
  return result;
}

inline double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

inline bool FactorsFinite(const dismastd::KruskalTensor& factors) {
  for (const dismastd::Matrix& m : factors.factors()) {
    for (size_t i = 0; i < m.size(); ++i) {
      if (!std::isfinite(m.data()[i])) return false;
    }
  }
  return true;
}

/// Files every entry of `full` under the first snapshot of `schedule`
/// (monotone prefix boxes) that holds it: part t is the relative complement
/// X^(t) \ X^(t-1), with dims schedule[t] and `full`'s entry order — what
/// StreamingTensorSequence::DeltaAt gives, for every step in one pass.
inline std::vector<dismastd::SparseTensor> SplitBySnapshot(
    const dismastd::SparseTensor& full,
    const std::vector<std::vector<uint64_t>>& schedule) {
  std::vector<dismastd::SparseTensor> parts;
  for (const std::vector<uint64_t>& dims : schedule) parts.emplace_back(dims);
  for (size_t e = 0; e < full.nnz(); ++e) {
    const uint64_t* index = full.IndexTuple(e);
    size_t first = 0;
    for (size_t n = 0; n < full.order(); ++n) {
      while (index[n] >= schedule[first][n]) ++first;
    }
    parts[first].AddRaw(index, full.Value(e));
  }
  return parts;
}

inline std::string Hex(uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

inline std::string Exact(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
