#ifndef DISMASTD_BENCH_BENCH_UTIL_H_
#define DISMASTD_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/driver.h"
#include "kernels/kernels.h"
#include "obs/sinks.h"
#include "stream/datasets.h"

namespace dismastd {
namespace bench {

/// Execution-engine threads for the bench harnesses, via the environment
/// variable DISMASTD_BENCH_THREADS (0 = hardware concurrency, 1 =
/// sequential). Thread count changes wall-clock only; every reported
/// simulated metric is bit-identical across settings.
inline size_t BenchThreads() {
  const char* env = std::getenv("DISMASTD_BENCH_THREADS");
  if (env == nullptr) return 0;
  const long threads = std::atol(env);
  return threads > 0 ? static_cast<size_t>(threads) : 0;
}

/// Paper experimental setup (§V-A): R = 10, μ = 0.8, 10 iterations, a
/// 15-node cluster, partitions = nodes unless swept.
inline DistributedOptions PaperOptions() {
  DistributedOptions options;
  options.als.rank = 10;
  options.als.mu = 0.8;
  options.als.max_iterations = 10;
  options.num_workers = 15;
  options.partitioner = PartitionerKind::kMaxMin;
  options.execution.num_threads = BenchThreads();
  return options;
}

/// Optional global scale factor on dataset nnz/dims, via the environment
/// variable DISMASTD_BENCH_SCALE (e.g. 0.1 for a quick smoke run). The
/// default of 1.0 reproduces the sizes documented in DESIGN.md §2.
inline double BenchScale() {
  const char* env = std::getenv("DISMASTD_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double scale = std::atof(env);
  return scale > 0.0 ? scale : 1.0;
}

inline DatasetSpec ScaledSpec(DatasetSpec spec) {
  const double scale = BenchScale();
  if (scale == 1.0) return spec;
  for (auto& d : spec.dims) {
    d = std::max<uint64_t>(8, static_cast<uint64_t>(
                                  static_cast<double>(d) * scale));
  }
  spec.nnz = std::max<uint64_t>(
      64, static_cast<uint64_t>(static_cast<double>(spec.nnz) * scale));
  return spec;
}

inline std::vector<DatasetSpec> ScaledPaperDatasets() {
  std::vector<DatasetSpec> specs = PaperDatasets();
  for (auto& spec : specs) spec = ScaledSpec(spec);
  return specs;
}

/// The synthetic user population every serving bench and the query-log CLI
/// path agree on: `users` Zipf(s)-distributed entities, sampled with a
/// dedicated query seed so the population is independent of the model
/// seed. Parsed from argv:
///   --users=N       population size (default 1e6)
///   --zipf-s=S      Zipf exponent; 0 = uniform (default 1.0)
///   --query-seed=X  RNG seed for query sampling (default 7)
/// BenchObs recognizes (and skips) the same flags, so harnesses
/// can hand the full argv to both parsers.
struct ZipfPopulation {
  uint64_t users = 1000000;
  double s = 1.0;
  uint64_t seed = 7;

  static bool IsPopulationFlag(const std::string& arg) {
    return arg.rfind("--users=", 0) == 0 || arg.rfind("--zipf-s=", 0) == 0 ||
           arg.rfind("--query-seed=", 0) == 0;
  }

  static ZipfPopulation FromArgs(int argc, const char* const* argv) {
    ZipfPopulation population;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--users=", 0) == 0) {
        const long long users = std::atoll(arg.c_str() + 8);
        if (users > 0) population.users = static_cast<uint64_t>(users);
      } else if (arg.rfind("--zipf-s=", 0) == 0) {
        const double s = std::atof(arg.c_str() + 9);
        if (s >= 0.0) population.s = s;
      } else if (arg.rfind("--query-seed=", 0) == 0) {
        population.seed = static_cast<uint64_t>(
            std::atoll(arg.c_str() + 13));
      }
    }
    return population;
  }
};

/// Observability sinks shared by the bench harnesses, parsed from argv:
///   --trace-out=FILE [--trace-detail=steps|phases|workers]
///   --metrics-out=FILE
///   --kernel=scalar|avx2|avx512   (forces the compute-kernel backend;
///                                  the banner prints what was dispatched)
/// All are optional; with none given, tracer()/metrics() stay null and
/// the instrumented run pays only the Active() branch. An invalid value
/// exits with status 1. Finish() writes the requested files once the
/// harness is done.
class BenchObs {
 public:
  BenchObs(int argc, const char* const* argv) {
    obs::SinkOptions options;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--trace-out=", 0) == 0) {
        options.trace_path = arg.substr(12);
      } else if (arg.rfind("--metrics-out=", 0) == 0) {
        options.metrics_path = arg.substr(14);
      } else if (arg.rfind("--trace-detail=", 0) == 0) {
        options.trace_detail = arg.substr(15);
      } else if (arg.rfind("--kernel=", 0) == 0) {
        const Result<kernels::Backend> backend =
            kernels::ParseBackend(arg.substr(9));
        ExitUnlessOk(backend.status());
        ExitUnlessOk(kernels::ForceBackend(backend.value()));
      } else if (ZipfPopulation::IsPopulationFlag(arg) ||
                 arg.rfind("--search-mode=", 0) == 0 ||
                 arg.rfind("--probes=", 0) == 0 ||
                 arg.rfind("--bits=", 0) == 0) {
        // Parsed by ZipfPopulation::FromArgs / the harness itself.
      } else {
        std::fprintf(stderr, "ignoring unknown bench flag: %s\n",
                     arg.c_str());
      }
    }
    std::printf("kernels: %s\n",
                kernels::DispatchExplanation().c_str());
    ExitUnlessOk(sinks_.Open(options));
  }

  obs::Tracer* tracer() const { return sinks_.tracer(); }
  obs::MetricRegistry* metrics() const { return sinks_.metrics(); }

  void Finish() const { ExitUnlessOk(sinks_.Write(std::cout)); }

 private:
  static void ExitUnlessOk(const Status& status) {
    if (status.ok()) return;
    std::fprintf(stderr, "%s\n", status.message().c_str());
    std::exit(1);
  }

  obs::RunSinks sinks_;
};

/// Appends machine-readable rows next to the stdout tables so the figures
/// can be re-plotted directly. Doubles are printed with max_digits10, so
/// every cell parses back to the same double and the paper-figure goldens
/// (bench/golden/) compare bit for bit. Silently disabled if the file
/// cannot be opened (e.g. read-only working directory).
class CsvWriter {
 public:
  explicit CsvWriter(const std::string& path) : out_(path) {}

  template <typename... Cells>
  void Row(const Cells&... cells) {
    if (!out_) return;
    std::ostringstream line;
    line.precision(std::numeric_limits<double>::max_digits10);
    bool first = true;
    ((line << (first ? "" : ","), line << cells, first = false), ...);
    out_ << line.str() << "\n";
  }

 private:
  std::ofstream out_;
};

inline void PrintRule(char c = '-', int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar(c);
  std::putchar('\n');
}

inline void PrintHeader(const std::string& title) {
  PrintRule('=');
  std::printf("%s\n", title.c_str());
  PrintRule('=');
}

}  // namespace bench
}  // namespace dismastd

#endif  // DISMASTD_BENCH_BENCH_UTIL_H_
