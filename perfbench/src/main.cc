// perfbench: the repository benchmark. One run = one workload, one seed:
//
//   perfbench --workload dtd_stream|ingest_batch|ingest_cwin|serve_live
//             --seed N --seconds S --trace 0|1 [--smoke] [--out-dir DIR]
//
// Prints every metric with its unit, the correctness checks, and as the last
// line one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits non-zero when a check fails. See perfbench/README.md.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

using perfbench::Report;
using perfbench::RunConfig;

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--smoke] [--out-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Now();  // process start for setup_s
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      config.smoke = true;
    } else if (!has_value) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      config.workload = argv[++i];
    } else if (arg == "--seed") {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::atof(argv[++i]);
    } else if (arg == "--trace") {
      config.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--out-dir") {
      config.out_dir = argv[++i];
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  if (config.seconds <= 0.0) return Usage("--seconds must be positive");

  Report report(config);
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d smoke=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0, config.smoke ? 1 : 0);
  if (config.workload == "dtd_stream") {
    perfbench::RunDtdStream(report);
  } else if (config.workload == "ingest_batch") {
    perfbench::RunIngestBatch(report);
  } else if (config.workload == "ingest_cwin") {
    perfbench::RunIngestCwin(report);
  } else if (config.workload == "serve_live") {
    perfbench::RunServeLive(report);
  } else {
    return Usage(("unknown workload '" + config.workload + "'").c_str());
  }
  report.Set("peak_rss_mb", perfbench::PeakRssMb());
  return report.Finish();
}
