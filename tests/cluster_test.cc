#include "dist/cluster.h"

#include <gtest/gtest.h>

#include <string>

#include "la/ops.h"
#include "obs/histogram.h"
#include "test_util.h"

namespace dismastd {
namespace {

TEST(SerializeMatrixTest, RoundTrip) {
  Rng rng(3);
  const Matrix m = Matrix::Random(4, 3, rng);
  const auto bytes = SerializeMatrix(m);
  Result<Matrix> back = DeserializeMatrix(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value() == m);
}

TEST(SerializeMatrixTest, EmptyMatrix) {
  const Matrix m(0, 5);
  Result<Matrix> back = DeserializeMatrix(SerializeMatrix(m));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().rows(), 0u);
  EXPECT_EQ(back.value().cols(), 5u);
}

TEST(SerializeMatrixTest, CorruptedPayloadFails) {
  auto bytes = SerializeMatrix(Matrix(2, 2));
  bytes.resize(bytes.size() / 2);
  EXPECT_FALSE(DeserializeMatrix(bytes).ok());
}

TEST(ClusterTest, AllToAllReduceSumsPartials) {
  Cluster cluster(4);
  std::vector<Matrix> partials;
  Rng rng(5);
  for (int w = 0; w < 4; ++w) partials.push_back(Matrix::Random(3, 3, rng));
  Matrix expected = partials[0];
  for (int w = 1; w < 4; ++w) AddInPlace(expected, partials[w]);

  SuperstepAccounting acct = cluster.NewSuperstep();
  const Matrix sum = cluster.AllToAllReduceMatrix(partials, &acct);
  EXPECT_TRUE(sum.AllClose(expected, 1e-12));
}

TEST(ClusterTest, AllToAllReduceAccountsQuadraticTraffic) {
  const uint32_t workers = 5;
  Cluster cluster(workers);
  std::vector<Matrix> partials(workers, Matrix(2, 2));
  SuperstepAccounting acct = cluster.NewSuperstep();
  (void)cluster.AllToAllReduceMatrix(partials, &acct);
  // Each worker sends its serialized partial to every other worker:
  // M(M-1) messages in total.
  uint64_t messages = 0;
  for (uint32_t w = 0; w < workers; ++w) {
    messages += acct.per_worker_messages()[w];
  }
  EXPECT_EQ(messages, static_cast<uint64_t>(workers) * (workers - 1));
  const uint64_t payload = SerializeMatrix(Matrix(2, 2)).size();
  EXPECT_EQ(acct.total_bytes(),
            static_cast<uint64_t>(workers) * (workers - 1) * payload);
  // The network fabric saw the same traffic.
  EXPECT_EQ(cluster.network().stats().messages,
            static_cast<uint64_t>(workers) * (workers - 1));
}

TEST(ClusterTest, AllToAllReduceDrainsAllInboxes) {
  Cluster cluster(3);
  std::vector<Matrix> partials(3, Matrix::Identity(2));
  SuperstepAccounting acct = cluster.NewSuperstep();
  (void)cluster.AllToAllReduceMatrix(partials, &acct);
  EXPECT_EQ(cluster.network().TotalPending(), 0u);
}

TEST(ClusterTest, ScalarReduce) {
  Cluster cluster(4);
  SuperstepAccounting acct = cluster.NewSuperstep();
  const double sum =
      cluster.AllToAllReduceScalar({1.0, 2.0, 3.0, 4.0}, &acct);
  EXPECT_DOUBLE_EQ(sum, 10.0);
  EXPECT_EQ(cluster.network().TotalPending(), 0u);
}

/// Every counter a collective's traffic lands in must agree between the
/// two clusters, bit for bit.
void ExpectSameTraffic(Cluster& booked, const SuperstepAccounting& booked_acct,
                       const obs::Pow2Histogram& booked_sizes, Cluster& moved,
                       const SuperstepAccounting& moved_acct,
                       const obs::Pow2Histogram& moved_sizes,
                       const std::string& what) {
  EXPECT_EQ(booked.network().TotalPending(), 0u) << what;
  EXPECT_EQ(moved.network().TotalPending(), 0u) << what;
  const CommStats& b = booked.network().stats();
  const CommStats& m = moved.network().stats();
  EXPECT_EQ(b.messages, m.messages) << what;
  EXPECT_EQ(b.payload_bytes, m.payload_bytes) << what;
  EXPECT_EQ(b.migration_messages, m.migration_messages) << what;
  EXPECT_EQ(b.migration_bytes, m.migration_bytes) << what;
  EXPECT_EQ(b.orphan_events, m.orphan_events) << what;
  EXPECT_EQ(b.orphan_messages, m.orphan_messages) << what;
  for (uint32_t w = 0; w < booked.num_workers(); ++w) {
    EXPECT_EQ(booked.network().bytes_sent_by(w),
              moved.network().bytes_sent_by(w))
        << what << " worker " << w;
    EXPECT_EQ(booked.network().bytes_received_by(w),
              moved.network().bytes_received_by(w))
        << what << " worker " << w;
    EXPECT_EQ(booked.network().messages_sent_by(w),
              moved.network().messages_sent_by(w))
        << what << " worker " << w;
  }
  EXPECT_EQ(booked_acct.per_worker_bytes_sent(),
            moved_acct.per_worker_bytes_sent())
      << what;
  EXPECT_EQ(booked_acct.per_worker_bytes_recv(),
            moved_acct.per_worker_bytes_recv())
      << what;
  EXPECT_EQ(booked_acct.per_worker_messages(),
            moved_acct.per_worker_messages())
      << what;
  EXPECT_EQ(booked_acct.per_worker_flops(), moved_acct.per_worker_flops())
      << what;
  EXPECT_EQ(booked_sizes.Count(), moved_sizes.Count()) << what;
  EXPECT_EQ(booked_sizes.Total(), moved_sizes.Total()) << what;
}

TEST(ClusterTest, BookedCollectivesMatchTransmittedOnes) {
  // A plain cluster books its collectives' messages; one with a
  // crash-armed injector that injects no message faults (its crash never
  // fires) still transmits them one at a time. Both must return the same
  // bits and leave every traffic counter equal.
  FaultPlan plan;
  plan.crash_worker = 0;
  plan.crash_superstep = 1u << 30;
  for (uint32_t workers : {1u, 2u, 15u}) {
    for (size_t rank : {size_t{1}, size_t{10}, size_t{16}}) {
      const std::string what = "workers=" + std::to_string(workers) +
                               " rank=" + std::to_string(rank);
      Cluster booked(workers);
      Cluster moved(workers);
      FaultInjector injector(plan, /*stream_step=*/0);
      ASSERT_TRUE(injector.CrashArmed() && !injector.message_faults());
      moved.AttachFaultInjector(&injector);
      obs::Pow2Histogram booked_sizes, moved_sizes;
      booked.network().AttachMessageByteHistogram(&booked_sizes);
      moved.network().AttachMessageByteHistogram(&moved_sizes);
      Rng rng(workers * 100 + rank);
      std::vector<Matrix> partials;
      std::vector<double> scalars;
      for (uint32_t w = 0; w < workers; ++w) {
        partials.push_back(Matrix::RandomGaussian(rank, rank, rng));
        partials.back()(0, 0) = w % 2 == 0 ? -0.0 : 0.0;
        scalars.push_back(rng.NextGaussian());
      }
      SuperstepAccounting booked_acct = booked.NewSuperstep();
      SuperstepAccounting moved_acct = moved.NewSuperstep();
      const Matrix booked_sum =
          booked.AllToAllReduceMatrix(partials, &booked_acct);
      const Matrix moved_sum =
          moved.AllToAllReduceMatrix(partials, &moved_acct);
      ASSERT_EQ(booked_sum.size(), moved_sum.size()) << what;
      for (size_t e = 0; e < booked_sum.size(); ++e) {
        EXPECT_EQ(test::Bits(booked_sum.data()[e]),
                  test::Bits(moved_sum.data()[e]))
            << what << " element " << e;
      }
      ExpectSameTraffic(booked, booked_acct, booked_sizes, moved, moved_acct,
                        moved_sizes, what + " matrix");
      EXPECT_EQ(test::Bits(booked.AllToAllReduceScalar(scalars, &booked_acct)),
                test::Bits(moved.AllToAllReduceScalar(scalars, &moved_acct)))
          << what;
      ExpectSameTraffic(booked, booked_acct, booked_sizes, moved, moved_acct,
                        moved_sizes, what + " scalar");
      const uint64_t messages = uint64_t{2} * workers * (workers - 1);
      EXPECT_EQ(booked.network().stats().messages, messages) << what;
      EXPECT_EQ(booked_sizes.Count(), messages) << what;
    }
  }
}

TEST(ClusterTest, SingleWorkerReduceIsFree) {
  Cluster cluster(1);
  SuperstepAccounting acct = cluster.NewSuperstep();
  const Matrix m = Matrix::Identity(2);
  EXPECT_TRUE(cluster.AllToAllReduceMatrix({m}, &acct).AllClose(m));
  EXPECT_EQ(acct.total_bytes(), 0u);
  EXPECT_DOUBLE_EQ(cluster.AllToAllReduceScalar({5.0}, &acct), 5.0);
}

TEST(ClusterTest, SendRowsDeliversAndAccounts) {
  Cluster cluster(3);
  Rng rng(7);
  const Matrix rows = Matrix::Random(4, 2, rng);
  SuperstepAccounting acct = cluster.NewSuperstep();
  Result<Matrix> received = cluster.SendRows(0, 2, rows, &acct);
  ASSERT_TRUE(received.ok());
  EXPECT_TRUE(received.value() == rows);
  EXPECT_GT(acct.per_worker_bytes_sent()[0], 0u);
  EXPECT_GT(acct.per_worker_bytes_recv()[2], 0u);
}

TEST(ClusterTest, CommitAdvancesClockAndTotals) {
  CostModelConfig config;
  config.task_startup_seconds = 0.5;
  config.flops_per_second = 100.0;
  Cluster cluster(2, config);
  EXPECT_DOUBLE_EQ(cluster.ElapsedSimSeconds(), 0.0);

  SuperstepAccounting acct = cluster.NewSuperstep();
  acct.AddTask(0, 200);  // 1 task, 200 flops -> 0.5 + 2.0 seconds
  cluster.CommitSuperstep(acct);
  EXPECT_NEAR(cluster.ElapsedSimSeconds(), 2.5, 1e-12);
  EXPECT_EQ(cluster.total_flops(), 200u);
  EXPECT_EQ(cluster.committed_supersteps(), 1u);
}

TEST(ClusterTest, CommBytesAccumulateAcrossSupersteps) {
  Cluster cluster(2);
  SuperstepAccounting a = cluster.NewSuperstep();
  a.AddSend(0, 100);
  a.AddReceive(1, 100);
  cluster.CommitSuperstep(a);
  SuperstepAccounting b = cluster.NewSuperstep();
  b.AddSend(1, 50);
  cluster.CommitSuperstep(b);
  EXPECT_EQ(cluster.total_comm_bytes(), 150u);
  EXPECT_EQ(cluster.total_comm_messages(), 2u);
}

}  // namespace
}  // namespace dismastd
