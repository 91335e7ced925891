// The execution engine's contract: the thread count changes wall-clock
// only. Factors, loss history, and every simulated metric must be
// *bit-identical* between the inline path (num_threads = 1) and the
// thread-pool path (num_threads = 4), for both methods and both
// partitioners. Matrix::operator== compares exactly, no tolerance.
#include <gtest/gtest.h>

#include <tuple>

#include "core/dismastd.h"
#include "core/dms_mg.h"
#include "core/driver.h"
#include "kernels/kernels.h"
#include "stream/generator.h"
#include "stream/snapshot.h"
#include "test_util.h"

namespace dismastd {
namespace {

void ExpectFactorsIdentical(const KruskalTensor& a, const KruskalTensor& b) {
  ASSERT_EQ(a.order(), b.order());
  for (size_t n = 0; n < a.order(); ++n) {
    EXPECT_TRUE(a.factor(n) == b.factor(n)) << "mode " << n;
  }
}

void ExpectMetricsIdentical(const StreamStepMetrics& a,
                            const StreamStepMetrics& b) {
  EXPECT_EQ(a.sim_seconds_total, b.sim_seconds_total);
  EXPECT_EQ(a.sim_seconds_partitioning, b.sim_seconds_partitioning);
  ASSERT_EQ(a.sim_seconds_per_sweep.size(), b.sim_seconds_per_sweep.size());
  for (size_t i = 0; i < a.sim_seconds_per_sweep.size(); ++i) {
    EXPECT_EQ(a.sim_seconds_per_sweep[i], b.sim_seconds_per_sweep[i])
        << "sweep " << i;
  }
  EXPECT_EQ(a.sim_seconds_mttkrp_update, b.sim_seconds_mttkrp_update);
  EXPECT_EQ(a.sim_seconds_gram_reduce, b.sim_seconds_gram_reduce);
  EXPECT_EQ(a.sim_seconds_loss, b.sim_seconds_loss);
  EXPECT_EQ(a.comm_messages, b.comm_messages);
  EXPECT_EQ(a.comm_bytes, b.comm_bytes);
  EXPECT_EQ(a.flops, b.flops);
  // The fault layer is driver-side: its counters and simulated penalties
  // must be just as thread-count independent as the rest.
  EXPECT_EQ(a.recovery.messages_dropped, b.recovery.messages_dropped);
  EXPECT_EQ(a.recovery.messages_corrupted, b.recovery.messages_corrupted);
  EXPECT_EQ(a.recovery.messages_delayed, b.recovery.messages_delayed);
  EXPECT_EQ(a.recovery.retransmissions, b.recovery.retransmissions);
  EXPECT_EQ(a.recovery.retransmitted_bytes, b.recovery.retransmitted_bytes);
  EXPECT_EQ(a.recovery.escalations, b.recovery.escalations);
  EXPECT_EQ(a.recovery.crashes, b.recovery.crashes);
  EXPECT_EQ(a.recovery.fault_overhead_sim_seconds,
            b.recovery.fault_overhead_sim_seconds);
  EXPECT_EQ(a.recovery.recovery_sim_seconds, b.recovery.recovery_sim_seconds);
  EXPECT_EQ(a.orphaned_messages, b.orphaned_messages);
}

void ExpectResultsIdentical(const DistributedResult& a,
                            const DistributedResult& b) {
  ExpectFactorsIdentical(a.als.factors, b.als.factors);
  ASSERT_EQ(a.als.loss_history.size(), b.als.loss_history.size());
  for (size_t i = 0; i < a.als.loss_history.size(); ++i) {
    EXPECT_EQ(a.als.loss_history[i], b.als.loss_history[i]) << "sweep " << i;
  }
  EXPECT_EQ(a.als.iterations, b.als.iterations);
  ExpectMetricsIdentical(a.metrics, b.metrics);
}

DistributedOptions DetOpts(PartitionerKind kind, size_t threads) {
  DistributedOptions o;
  o.als.rank = 3;
  o.als.max_iterations = 5;
  o.partitioner = kind;
  o.num_workers = 6;
  o.parts_per_mode = 9;  // parts > workers: each thread walks several q.
  o.execution.num_threads = threads;
  return o;
}

class DeterminismTest
    : public ::testing::TestWithParam<std::tuple<MethodKind, PartitionerKind>> {
};

TEST_P(DeterminismTest, ParallelBitIdenticalToSequential) {
  const auto [method, kind] = GetParam();
  const SparseTensor full =
      test::MakeDenseLowRank({22, 17, 13}, 2, /*seed=*/41, 0.05).tensor;

  DistributedResult seq, par;
  if (method == MethodKind::kDisMastd) {
    const std::vector<uint64_t> old_dims = {17, 13, 10};
    const SparseTensor delta = RelativeComplement(full, old_dims);
    DecompositionOptions cold;
    cold.rank = 3;
    cold.max_iterations = 10;
    const KruskalTensor prev =
        CpAls(RestrictToBox(full, old_dims), cold).factors;
    seq = DisMastdDecompose(delta, old_dims, prev, DetOpts(kind, 1));
    par = DisMastdDecompose(delta, old_dims, prev, DetOpts(kind, 4));
  } else {
    seq = DmsMgDecompose(full, DetOpts(kind, 1));
    par = DmsMgDecompose(full, DetOpts(kind, 4));
  }
  ExpectResultsIdentical(seq, par);
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndPartitioners, DeterminismTest,
    ::testing::Combine(::testing::Values(MethodKind::kDisMastd,
                                         MethodKind::kDmsMg),
                       ::testing::Values(PartitionerKind::kGreedy,
                                         PartitionerKind::kMaxMin)),
    [](const auto& param_info) {
      return std::string(std::get<0>(param_info.param) ==
                                 MethodKind::kDisMastd
                             ? "DisMastd"
                             : "DmsMg") +
             PartitionerKindName(std::get<1>(param_info.param));
    });

TEST(DeterminismTest, DefaultThreadCountMatchesSequential) {
  // num_threads = 0 (hardware concurrency, whatever it is on this host)
  // must also reproduce the sequential result exactly.
  const SparseTensor full =
      test::MakeDenseLowRank({20, 15, 11}, 2, /*seed=*/42, 0.06).tensor;
  const DistributedResult seq =
      DmsMgDecompose(full, DetOpts(PartitionerKind::kMaxMin, 1));
  const DistributedResult par =
      DmsMgDecompose(full, DetOpts(PartitionerKind::kMaxMin, 0));
  ExpectResultsIdentical(seq, par);
}

TEST(DeterminismTest, FaultInjectionBitIdenticalAcrossThreadCounts) {
  // Fault decisions are drawn on the driver thread, never inside worker
  // tasks, so a faulty run (drops + corruption + delays + a crash with
  // degraded recovery) must stay bit-identical across thread counts.
  const SparseTensor full =
      test::MakeDenseLowRank({20, 15, 11}, 2, /*seed=*/44, 0.06).tensor;
  DistributedOptions seq_opts = DetOpts(PartitionerKind::kMaxMin, 1);
  seq_opts.fault_plan.drop_prob = 0.05;
  seq_opts.fault_plan.corrupt_prob = 0.01;
  seq_opts.fault_plan.delay_prob = 0.02;
  seq_opts.fault_plan.crash_worker = 1;
  seq_opts.fault_plan.crash_superstep = 8;
  seq_opts.recovery = RecoveryMode::kDegraded;
  DistributedOptions par_opts = seq_opts;
  par_opts.execution.num_threads = 4;

  const DistributedResult seq = DmsMgDecompose(full, seq_opts);
  const DistributedResult par = DmsMgDecompose(full, par_opts);
  ExpectResultsIdentical(seq, par);
  // The plan actually injected: this is not a vacuous comparison.
  EXPECT_GT(seq.metrics.recovery.messages_dropped, 0u);
  EXPECT_EQ(seq.metrics.recovery.crashes, 1u);
}

TEST(DeterminismTest, ForcedScalarBitIdenticalToBestKernelBackend) {
  // The compute-kernel determinism contract at decomposition scale: a full
  // DisMASTD run on the forced-scalar backend must be bit-identical to the
  // best SIMD backend this host supports, across thread counts too. On a
  // scalar-only host this degenerates to comparing scalar with itself,
  // which keeps the test meaningful everywhere and vacuous nowhere it can
  // help it.
  const SparseTensor full =
      test::MakeDenseLowRank({22, 17, 13}, 2, /*seed=*/45, 0.05).tensor;
  const std::vector<uint64_t> old_dims = {17, 13, 10};
  const SparseTensor delta = RelativeComplement(full, old_dims);
  DecompositionOptions cold;
  cold.rank = 3;
  cold.max_iterations = 10;

  ASSERT_TRUE(kernels::ForceBackend(kernels::Backend::kScalar).ok());
  const KruskalTensor prev_scalar =
      CpAls(RestrictToBox(full, old_dims), cold).factors;
  const DistributedResult scalar_seq = DisMastdDecompose(
      delta, old_dims, prev_scalar, DetOpts(PartitionerKind::kMaxMin, 1));

  ASSERT_TRUE(kernels::ForceBackend(kernels::BestSupported()).ok());
  const KruskalTensor prev_best =
      CpAls(RestrictToBox(full, old_dims), cold).factors;
  const DistributedResult best_par = DisMastdDecompose(
      delta, old_dims, prev_best, DetOpts(PartitionerKind::kMaxMin, 4));
  kernels::ResetDispatch();

  ExpectFactorsIdentical(prev_scalar, prev_best);
  ExpectResultsIdentical(scalar_seq, best_par);
}

/// FNV-1a over raw bytes: doubles are hashed by representation, so the
/// fingerprint changes with any bit of any factor or loss.
uint64_t Fnv1a(const void* data, size_t bytes, uint64_t hash) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    hash ^= p[i];
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

uint64_t FingerprintStep(const DistributedResult& r, uint64_t hash) {
  for (size_t n = 0; n < r.als.factors.order(); ++n) {
    const Matrix& f = r.als.factors.factor(n);
    const uint64_t shape[2] = {f.rows(), f.cols()};
    hash = Fnv1a(shape, sizeof(shape), hash);
    hash = Fnv1a(f.data(), f.size() * sizeof(double), hash);
  }
  return Fnv1a(r.als.loss_history.data(),
               r.als.loss_history.size() * sizeof(double), hash);
}

/// FNV-1a over the step record's simulated and counted fields — the
/// numbers the paper's figures are read from: total, per-phase, mean and
/// per-sweep sim seconds, imbalance, comm bytes and messages, flops, and
/// the per-mode partition balance.
uint64_t FingerprintRecord(const StreamStepMetrics& m, uint64_t hash) {
  const double seconds[] = {m.sim_seconds_total,
                            m.sim_seconds_partitioning,
                            m.sim_seconds_mttkrp_update,
                            m.sim_seconds_gram_reduce,
                            m.sim_seconds_loss,
                            m.sim_seconds_per_iteration,
                            m.load_imbalance};
  hash = Fnv1a(seconds, sizeof(seconds), hash);
  hash = Fnv1a(m.sim_seconds_per_sweep.data(),
               m.sim_seconds_per_sweep.size() * sizeof(double), hash);
  const uint64_t counts[] = {m.comm_bytes, m.comm_messages, m.flops};
  hash = Fnv1a(counts, sizeof(counts), hash);
  for (const PartitionBalance& b : m.balance_per_mode) {
    const uint64_t loads[] = {b.max_load, b.min_load};
    const double stats[] = {b.mean_load, b.stddev, b.cv, b.imbalance};
    hash = Fnv1a(loads, sizeof(loads), hash);
    hash = Fnv1a(stats, sizeof(stats), hash);
  }
  return hash;
}

TEST(DeterminismTest, ChainedStepsMatchGoldenFingerprint) {
  // A cold step and two chained delta steps at the paper's R = 10, with
  // more partitions than workers, on every backend this host supports
  // (R = 10 reaches the 8-wide vectors' tails). The golden value comes
  // from the per-row numerators, substitution and rank-1 Gram updates, so
  // it pins the lane-blocked row update and the row-list Gram to their
  // bits; any hot-path change that moves one bit, on any backend, changes
  // it. The record golden pins the same run's simulated seconds, traffic,
  // flops and balance, which depend on counts, not on factor values.
  constexpr uint64_t kGolden = 0x86037D91EDA21AE2ULL;
  constexpr uint64_t kRecordGolden = 0x3A8EF836E0FA24E3ULL;
  GeneratorOptions gen;
  gen.dims = {60, 45, 30};
  gen.nnz = 6000;
  gen.zipf_exponents = {1.0, 0.8, 0.5};
  gen.latent_rank = 3;
  gen.noise_stddev = 0.05;
  gen.seed = 47;
  const StreamingTensorSequence seq(
      GenerateSparseTensor(gen).tensor,
      {{40, 30, 20}, {50, 38, 25}, {60, 45, 30}});
  for (size_t b = 0; b < kernels::kNumBackends; ++b) {
    const auto backend = static_cast<kernels::Backend>(b);
    if (!kernels::Supported(backend)) continue;
    ASSERT_TRUE(kernels::ForceBackend(backend).ok());
    for (size_t threads : {1u, 4u}) {
      DistributedOptions o;
      o.als.rank = 10;
      o.als.max_iterations = 5;
      o.partitioner = PartitionerKind::kMaxMin;
      o.num_workers = 3;
      o.parts_per_mode = 7;
      o.execution.num_threads = threads;
      uint64_t hash = 0xCBF29CE484222325ULL;
      uint64_t record = 0xCBF29CE484222325ULL;
      KruskalTensor prev;
      std::vector<uint64_t> old_dims(3, 0);
      for (size_t t = 0; t < seq.num_steps(); ++t) {
        DistributedResult r =
            DisMastdDecompose(seq.DeltaAt(t), old_dims, prev, o);
        hash = FingerprintStep(r, hash);
        record = FingerprintRecord(r.metrics, record);
        prev = std::move(r.als.factors);
        old_dims = seq.DimsAt(t);
      }
      EXPECT_EQ(hash, kGolden)
          << kernels::BackendName(backend) << " threads=" << threads
          << " got 0x" << std::hex << hash;
      EXPECT_EQ(record, kRecordGolden)
          << kernels::BackendName(backend) << " threads=" << threads
          << " got 0x" << std::hex << record;
    }
  }
  kernels::ResetDispatch();
}

TEST(DeterminismTest, MoreThreadsThanWorkersIsClamped) {
  const SparseTensor full =
      test::MakeDenseLowRank({20, 15, 11}, 2, /*seed=*/43, 0.06).tensor;
  const DistributedResult seq =
      DmsMgDecompose(full, DetOpts(PartitionerKind::kGreedy, 1));
  const DistributedResult par =
      DmsMgDecompose(full, DetOpts(PartitionerKind::kGreedy, 64));
  ExpectResultsIdentical(seq, par);
}

}  // namespace
}  // namespace dismastd
