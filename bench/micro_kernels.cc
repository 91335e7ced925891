// google-benchmark microbenchmarks for the hot kernels underneath
// DisMASTD: sparse MTTKRP (the bottleneck operator, §IV-B1), Khatri-Rao and
// Gram products, the R x R Cholesky normal-equation solve, the GTP/MTP
// partitioners, and a whole simulated distributed step.
//
// Run with --threads N to set the execution engine's thread count for
// BM_DisMastdStep (0 = all cores); compare --threads 1 vs --threads 8 to
// measure the shared-memory speedup of the cluster simulation.
//
// Kernel flags:
//   --kernel scalar|avx2|avx512   force the dispatched backend for the
//                                 google-benchmark suite
//   --kernel-sweep=FILE           run the per-backend kernel sweep
//                                 (COO MTTKRP, row-list solve, row-list
//                                 Gram, top-K scan and ANN shortlist on
//                                 every supported backend) and append CSV
//                                 rows op,backend,variant,rank,items,
//                                 seconds,rows_per_s,gb_per_s to FILE
//   --sweep-only                  skip the google-benchmark suite

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "core/dismastd.h"
#include "kernels/kernels.h"
#include "la/ops.h"
#include "la/solve.h"
#include "partition/gtp.h"
#include "partition/mtp.h"
#include "serve/servable_model.h"
#include "stream/generator.h"
#include "tensor/mttkrp.h"

namespace dismastd {
namespace {

// Set by main() from --threads before benchmarks run.
size_t g_engine_threads = 0;

SparseTensor MakeTensor(uint64_t nnz) {
  GeneratorOptions options;
  options.dims = {20000, 5000, 500};
  options.nnz = nnz;
  options.zipf_exponents = {1.0, 1.0, 0.5};
  options.seed = 42;
  return GenerateSparseTensor(options).tensor;
}

void BM_Mttkrp(benchmark::State& state) {
  const uint64_t nnz = static_cast<uint64_t>(state.range(0));
  const size_t rank = static_cast<size_t>(state.range(1));
  const SparseTensor tensor = MakeTensor(nnz);
  Rng rng(7);
  std::vector<Matrix> factors;
  for (uint64_t d : tensor.dims()) {
    factors.push_back(Matrix::Random(static_cast<size_t>(d), rank, rng));
  }
  std::vector<const Matrix*> ptrs;
  for (const Matrix& f : factors) ptrs.push_back(&f);
  Matrix out(static_cast<size_t>(tensor.dim(0)), rank);
  for (auto _ : state) {
    out.Fill(0.0);
    MttkrpAccumulate(tensor, ptrs, 0, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(tensor.nnz()) *
                          state.iterations());
}
BENCHMARK(BM_Mttkrp)
    ->Args({10000, 10})
    ->Args({100000, 10})
    ->Args({400000, 10})
    ->Args({100000, 5})
    ->Args({100000, 20});

void BM_KhatriRao(benchmark::State& state) {
  Rng rng(1);
  const Matrix a = Matrix::Random(static_cast<size_t>(state.range(0)), 10, rng);
  const Matrix b = Matrix::Random(64, 10, rng);
  for (auto _ : state) {
    Matrix kr = KhatriRao(a, b);
    benchmark::DoNotOptimize(kr.data());
  }
}
BENCHMARK(BM_KhatriRao)->Arg(64)->Arg(256)->Arg(1024);

void BM_Gram(benchmark::State& state) {
  Rng rng(2);
  const Matrix a = Matrix::Random(static_cast<size_t>(state.range(0)), 10, rng);
  for (auto _ : state) {
    Matrix g = TransposeTimes(a, a);
    benchmark::DoNotOptimize(g.data());
  }
  state.SetItemsProcessed(state.range(0) * state.iterations());
}
BENCHMARK(BM_Gram)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_NormalEquationSolve(benchmark::State& state) {
  Rng rng(3);
  const size_t rank = 10;
  const size_t rows = static_cast<size_t>(state.range(0));
  const Matrix basis = Matrix::Random(rows + rank, rank, rng);
  const Matrix gram = TransposeTimes(basis, basis);
  const Matrix rhs = Matrix::Random(rows, rank, rng);
  for (auto _ : state) {
    Matrix x = SolveNormalEquationsRows(gram, rhs);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.range(0) * state.iterations());
}
BENCHMARK(BM_NormalEquationSolve)->Arg(1000)->Arg(10000);

void BM_Partitioner(benchmark::State& state) {
  const size_t slices = static_cast<size_t>(state.range(0));
  const bool use_mtp = state.range(1) != 0;
  Rng rng(4);
  ZipfSampler sampler(slices, 1.1);
  std::vector<uint64_t> hist(slices, 0);
  for (size_t draw = 0; draw < slices * 20; ++draw) {
    ++hist[sampler.Sample(rng)];
  }
  for (auto _ : state) {
    ModePartition p = use_mtp ? MaxMinPartitionMode(hist, 15)
                              : GreedyPartitionMode(hist, 15);
    benchmark::DoNotOptimize(p.part_nnz.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(slices) * state.iterations());
  state.SetLabel(use_mtp ? "MTP" : "GTP");
}
BENCHMARK(BM_Partitioner)
    ->Args({10000, 0})
    ->Args({10000, 1})
    ->Args({100000, 0})
    ->Args({100000, 1});

KruskalTensor MakeModel(const std::vector<uint64_t>& dims, size_t rank) {
  Rng rng(11);
  std::vector<Matrix> factors;
  for (uint64_t d : dims) {
    factors.push_back(Matrix::Random(static_cast<size_t>(d), rank, rng));
  }
  return KruskalTensor(std::move(factors));
}

void BM_KruskalValueAt(benchmark::State& state) {
  // The serving point-prediction kernel: Σ_f Π_n A_n[i_n, f]. Sweep R.
  const size_t rank = static_cast<size_t>(state.range(0));
  const std::vector<uint64_t> dims = {20000, 5000, 500};
  const KruskalTensor model = MakeModel(dims, rank);
  Rng rng(12);
  constexpr size_t kNumIndices = 1024;
  std::vector<std::array<uint64_t, 3>> indices(kNumIndices);
  for (auto& index : indices) {
    for (size_t n = 0; n < dims.size(); ++n) {
      index[n] = rng.NextBounded(dims[n]);
    }
  }
  size_t cursor = 0;
  for (auto _ : state) {
    const double value = model.ValueAt(indices[cursor].data());
    benchmark::DoNotOptimize(value);
    cursor = (cursor + 1) % kNumIndices;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KruskalValueAt)->Arg(5)->Arg(10)->Arg(20)->Arg(40);

void BM_TopKScore(benchmark::State& state) {
  // The serving recommendation kernel: one R-vector x factor-matrix
  // product over all J candidates plus a k-entry heap selection of the
  // best K.
  // Sweep R and K; J is fixed at the product-mode size.
  const size_t rank = static_cast<size_t>(state.range(0));
  const size_t k = static_cast<size_t>(state.range(1));
  const std::vector<uint64_t> dims = {20000, 50000, 500};
  const auto model =
      serve::ServableModel::Build(MakeModel(dims, rank), 1, 0);
  Rng rng(13);
  constexpr size_t kNumAnchors = 256;
  std::vector<std::vector<uint64_t>> anchors(kNumAnchors);
  for (auto& anchor : anchors) {
    anchor = {rng.NextBounded(dims[0]), 0, rng.NextBounded(dims[2])};
  }
  size_t cursor = 0;
  for (auto _ : state) {
    const auto top = model->TopK(/*target_mode=*/1, anchors[cursor], k);
    benchmark::DoNotOptimize(top.items.data());
    cursor = (cursor + 1) % kNumAnchors;
  }
  // Candidates scored per second is the serving-relevant rate.
  state.SetItemsProcessed(static_cast<int64_t>(dims[1]) *
                          state.iterations());
}
BENCHMARK(BM_TopKScore)
    ->Args({5, 10})
    ->Args({10, 10})
    ->Args({20, 10})
    ->Args({10, 1})
    ->Args({10, 100})
    ->Args({10, 1000});

void BM_DisMastdStep(benchmark::State& state) {
  // One full simulated distributed decomposition step (partitioning plus
  // ALS sweeps) on an 8-worker cluster — the unit the execution engine
  // parallelizes. The real work per benchmark iteration is the per-worker
  // MTTKRP/update/reduce compute, so wall time here scales with --threads.
  const uint32_t workers = static_cast<uint32_t>(state.range(0));
  GeneratorOptions g;
  g.dims = {300, 200, 100};
  g.nnz = 60000;
  g.seed = 42;
  const SparseTensor snapshot = GenerateSparseTensor(g).tensor;

  DistributedOptions options;
  options.als.rank = 10;
  options.als.max_iterations = 2;
  options.num_workers = workers;
  options.partitioner = PartitionerKind::kMaxMin;
  options.execution.num_threads = g_engine_threads;

  const std::vector<uint64_t> old_dims(snapshot.order(), 0);
  const KruskalTensor no_prev;
  for (auto _ : state) {
    DistributedResult result =
        DisMastdDecompose(snapshot, old_dims, no_prev, options);
    benchmark::DoNotOptimize(result.metrics.flops);
  }
  state.SetItemsProcessed(static_cast<int64_t>(snapshot.nnz()) *
                          state.iterations());
  state.SetLabel("threads=" + std::to_string(g_engine_threads));
}
BENCHMARK(BM_DisMastdStep)->Arg(8)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Per-backend kernel sweep (--kernel-sweep=FILE)
//
// Times the kernel-table entry points directly — no engine or top-K
// selection overhead — on every backend this host supports, and appends
// CSV rows
//   op,backend,variant,rank,items,seconds,rows_per_s,gb_per_s
// to FILE. "mttkrp" (the COO MTTKRP over one non-zero list), "solve" (the
// row-list Eq. 5 solve, old-row numerators included), "gram" (the
// row-list Gram update) and "topk" (the fp64 candidate scan) rows are
// fp64, variant f64; "topk" rows of variant listed score a shortlist's
// re-rank, 1,000 sorted random ids of a 120,000-row factor; "hamming"
// rows time the ANN shortlist entry (scan plus counting-select of 1000
// rows over 120,000 codes) at 1, 2 and 4 code words, variants b64, b128
// and b256. CI greps this CSV to assert the vectorized backends actually
// ran.

template <typename Fn>
double TimeSeconds(size_t reps, Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  for (size_t r = 0; r < reps; ++r) fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

void EmitSweepRow(std::ofstream& csv, const char* op,
                  kernels::Backend backend, const char* variant, size_t rank,
                  double items, double seconds, double bytes) {
  const double rows_per_s = items / seconds;
  const double gb_per_s = bytes / seconds * 1e-9;
  csv << op << ',' << kernels::BackendName(backend) << ',' << variant << ','
      << rank << ',' << static_cast<uint64_t>(items) << ',' << seconds << ','
      << rows_per_s << ',' << gb_per_s << '\n';
  std::printf("sweep %-6s %-6s %-4s rank=%zu  %10.3e rows/s  %7.2f GB/s\n",
              op, kernels::BackendName(backend), variant, rank, rows_per_s,
              gb_per_s);
}

int RunKernelSweep(const std::string& path) {
  std::ofstream csv(path);
  if (!csv) {
    std::fprintf(stderr, "cannot open kernel-sweep output %s\n", path.c_str());
    return 1;
  }
  csv << "op,backend,variant,rank,items,seconds,rows_per_s,gb_per_s\n";

  constexpr size_t kRank = 16;
  Rng rng(99);

  // MTTKRP inputs: one synthetic 3-mode COO list — an accumulator row and
  // two non-target factor rows per non-zero, target mode 0.
  constexpr size_t kMttkrpItems = 1 << 20;
  constexpr size_t kSideRows = 4096;
  const Matrix fa = Matrix::Random(kSideRows, kRank, rng);
  const Matrix fb = Matrix::Random(kSideRows, kRank, rng);
  Matrix out(kSideRows, kRank);
  std::vector<uint64_t> nnz_indices(3 * kMttkrpItems);
  std::vector<double> nnz_values(kMttkrpItems);
  for (size_t i = 0; i < kMttkrpItems; ++i) {
    for (size_t m = 0; m < 3; ++m) {
      nnz_indices[3 * i + m] = rng.NextBounded(kSideRows);
    }
    nnz_values[i] = rng.NextDouble(-1.0, 1.0);
  }
  const double* mttkrp_factors[3] = {nullptr, fa.data(), fb.data()};

  // Row-update inputs: one R x R Cholesky factor, the transposed weights of
  // the old-row numerator, MTTKRP and previous-factor rows, and a random
  // row list over the MTTKRP side matrix for the solve and the Gram.
  constexpr size_t kSolveRows = 1 << 13;
  const Matrix basis = Matrix::Random(2 * kRank, kRank, rng);
  const Matrix lower = FactorNormalEquations(TransposeTimes(basis, basis));
  const Matrix weights_t = Matrix::Random(kRank, kRank, rng);
  Matrix solved(kSideRows, kRank);
  std::vector<uint64_t> solve_rows(kSolveRows);
  for (uint64_t& r : solve_rows) r = rng.NextBounded(kSideRows);
  constexpr size_t kGramRows = 1 << 16;
  std::vector<uint64_t> gram_rows(kGramRows);
  for (uint64_t& r : gram_rows) r = rng.NextBounded(kSideRows);
  Matrix gram(kRank, kRank);

  // Top-K inputs: one contiguous candidate block, and a shortlist-shaped
  // re-rank: 1,000 sorted random ids of a 120,000-row factor.
  constexpr size_t kCandidates = 1 << 16;
  const Matrix cand = Matrix::Random(kCandidates, kRank, rng);
  std::vector<double> weights(kRank);
  for (double& w : weights) w = rng.NextDouble(-1.0, 1.0);
  std::vector<double> scores(kCandidates);
  constexpr size_t kFactorRows = 120000;
  constexpr size_t kListed = 1000;
  const Matrix factor = Matrix::Random(kFactorRows, kRank, rng);
  std::vector<uint32_t> listed(kListed);
  for (uint32_t& id : listed) {
    id = static_cast<uint32_t>(rng.NextBounded(kFactorRows));
  }
  std::sort(listed.begin(), listed.end());

  // Hamming inputs: 120,000 distinct random codes of one row each, at the
  // widest width swept (the narrower sweeps read a prefix of them) — the
  // worst case for the grouped index, which scans a code per row.
  constexpr size_t kCodeRows = 120000;
  constexpr size_t kShortlist = 1000;
  constexpr size_t kMaxWords = 4;
  std::vector<uint64_t> codes(kCodeRows * kMaxWords);
  std::vector<uint64_t> code_query(kMaxWords);
  for (uint64_t& c : codes) c = rng.NextU64();
  for (uint64_t& q : code_query) q = rng.NextU64();
  std::vector<uint32_t> code_offsets(kCodeRows + 1);
  std::iota(code_offsets.begin(), code_offsets.end(), 0u);
  std::vector<uint16_t> dists(kCodeRows);
  std::vector<uint32_t> below(kCodeRows + 1);
  std::vector<uint32_t> at(kCodeRows + 1);

  for (size_t b = 0; b < kernels::kNumBackends; ++b) {
    const auto backend = static_cast<kernels::Backend>(b);
    if (!kernels::Supported(backend)) {
      std::printf("sweep: skipping %s (unsupported on this host/build)\n",
                  kernels::BackendName(backend));
      continue;
    }
    const kernels::KernelTable& kern = kernels::Get(backend);

    {
      out.Fill(0.0);
      constexpr size_t kReps = 4;
      const double secs = TimeSeconds(kReps, [&] {
        kern.mttkrp_coo(nnz_indices.data(), nnz_values.data(), kMttkrpItems,
                        3, 0, mttkrp_factors, kRank, out.data());
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
      });
      const double items = static_cast<double>(kMttkrpItems) * kReps;
      // Two factor-row reads plus an accumulator read-modify-write.
      const double bytes = items * 4.0 * kRank * sizeof(double);
      EmitSweepRow(csv, "mttkrp", backend, "f64", kRank, items, secs, bytes);
    }

    {
      constexpr size_t kReps = 16;
      const double secs = TimeSeconds(kReps, [&] {
        kern.solve_rows(lower.data(), kRank, fa.data(), fb.data(),
                        weights_t.data(), 0.8, solve_rows.data(), kSolveRows,
                        solved.data());
        benchmark::DoNotOptimize(solved.data());
        benchmark::ClobberMemory();
      });
      const double items = static_cast<double>(kSolveRows) * kReps;
      // Each row reads its MTTKRP and previous-factor rows and writes one.
      const double bytes = items * 3.0 * kRank * sizeof(double);
      EmitSweepRow(csv, "solve", backend, "f64", kRank, items, secs, bytes);
    }
    {
      constexpr size_t kReps = 16;
      gram.Fill(0.0);
      const double secs = TimeSeconds(kReps, [&] {
        kern.gram_rows(fa.data(), fb.data(), gram_rows.data(), kGramRows,
                       kRank, gram.data());
        benchmark::DoNotOptimize(gram.data());
      });
      const double items = static_cast<double>(kGramRows) * kReps;
      // One row of each input matrix per listed row.
      const double bytes = items * 2.0 * kRank * sizeof(double);
      EmitSweepRow(csv, "gram", backend, "f64", kRank, items, secs, bytes);
    }

    {
      constexpr size_t kReps = 64;
      const double secs = TimeSeconds(kReps, [&] {
        kern.topk_score_block(cand.RowPtr(0), nullptr, kCandidates, kRank,
                              weights.data(), scores.data());
        benchmark::DoNotOptimize(scores.data());
      });
      const double items = static_cast<double>(kCandidates) * kReps;
      // Each candidate row and its score.
      const double bytes = items * (kRank * sizeof(double) + sizeof(double));
      EmitSweepRow(csv, "topk", backend, "f64", kRank, items, secs, bytes);
    }
    {
      constexpr size_t kReps = 4096;
      const double secs = TimeSeconds(kReps, [&] {
        kern.topk_score_block(factor.RowPtr(0), listed.data(), kListed, kRank,
                              weights.data(), scores.data());
        benchmark::DoNotOptimize(scores.data());
        benchmark::ClobberMemory();
      });
      const double items = static_cast<double>(kListed) * kReps;
      // Each listed row, its id and its score.
      const double bytes = items * (kRank * sizeof(double) + sizeof(uint32_t) +
                                    sizeof(double));
      EmitSweepRow(csv, "topk", backend, "listed", kRank, items, secs, bytes);
    }
    const std::pair<size_t, const char*> kWidths[] = {
        {1, "b64"}, {2, "b128"}, {4, "b256"}};
    for (const auto& [words, width] : kWidths) {
      constexpr size_t kReps = 64;
      const double secs = TimeSeconds(kReps, [&] {
        const kernels::CodeGroups groups{codes.data(), kCodeRows, words,
                                         code_offsets.data(), nullptr, 0};
        const kernels::ShortlistCut cut =
            kern.hamming_shortlist(groups, code_query.data(), kShortlist,
                                   dists.data(), below.data(), at.data());
        benchmark::DoNotOptimize(cut);
        benchmark::DoNotOptimize(below.data());
        benchmark::ClobberMemory();
      });
      const double items = static_cast<double>(kCodeRows) * kReps;
      // Each code's words and its distance.
      const double bytes =
          items * (words * sizeof(uint64_t) + sizeof(uint16_t));
      EmitSweepRow(csv, "hamming", backend, width, 0, items, secs, bytes);
    }
  }
  std::printf("sweep: wrote %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace dismastd

// Custom main: benchmark_main rejects flags it does not know, so strip our
// --threads / --kernel / --kernel-sweep / --sweep-only flags
// before handing argv to the benchmark library.
int main(int argc, char** argv) {
  std::string sweep_path;
  std::string kernel_name;
  bool sweep_only = false;
  int out = 1;  // keep argv[0]
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      dismastd::g_engine_threads =
          static_cast<size_t>(std::atol(argv[++i]));
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      dismastd::g_engine_threads =
          static_cast<size_t>(std::atol(argv[i] + 10));
    } else if (std::strcmp(argv[i], "--kernel") == 0 && i + 1 < argc) {
      kernel_name = argv[++i];
    } else if (std::strncmp(argv[i], "--kernel=", 9) == 0) {
      kernel_name = argv[i] + 9;
    } else if (std::strcmp(argv[i], "--kernel-sweep") == 0 && i + 1 < argc) {
      sweep_path = argv[++i];
    } else if (std::strncmp(argv[i], "--kernel-sweep=", 15) == 0) {
      sweep_path = argv[i] + 15;
    } else if (std::strcmp(argv[i], "--sweep-only") == 0) {
      sweep_only = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;

  if (!kernel_name.empty()) {
    dismastd::Result<dismastd::kernels::Backend> backend =
        dismastd::kernels::ParseBackend(kernel_name);
    if (!backend.ok()) {
      std::fprintf(stderr, "%s\n", backend.status().ToString().c_str());
      return 1;
    }
    dismastd::Status forced =
        dismastd::kernels::ForceBackend(backend.value());
    if (!forced.ok()) {
      std::fprintf(stderr, "%s\n", forced.ToString().c_str());
      return 1;
    }
  }
  std::printf("kernels: %s\n",
              dismastd::kernels::DispatchExplanation().c_str());

  if (!sweep_path.empty()) {
    const int rc = dismastd::RunKernelSweep(sweep_path);
    if (rc != 0) return rc;
    if (sweep_only) return 0;
  } else if (sweep_only) {
    std::fprintf(stderr, "--sweep-only needs --kernel-sweep=FILE\n");
    return 1;
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
