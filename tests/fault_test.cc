#include "dist/fault.h"

#include <gtest/gtest.h>

#include <cstring>

#include "dist/cluster.h"
#include "dist/network.h"

namespace dismastd {
namespace {

std::vector<uint8_t> Payload(size_t n, uint8_t fill = 0xAB) {
  return std::vector<uint8_t>(n, fill);
}

TEST(Crc32Test, KnownVector) {
  // The canonical IEEE 802.3 check value for "123456789".
  const char* text = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(text), 9), 0xCBF43926u);
}

TEST(Crc32Test, EmptyAndSensitivity) {
  EXPECT_EQ(Crc32(nullptr, 0), 0x00000000u);
  std::vector<uint8_t> a = Payload(64, 0x11);
  const uint32_t before = Crc32(a.data(), a.size());
  a[17] ^= 0x01;
  EXPECT_NE(Crc32(a.data(), a.size()), before);
}

/// The bytewise CRC-32 recurrence, table-free: the oracle the sliced
/// implementation must match.
uint32_t Crc32Bytewise(const uint8_t* data, size_t size) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, MatchesBytewiseOracleAtEveryLengthAndAlignment) {
  // Lengths 0..64 cover no 8-byte step, the steps alone and every tail;
  // starts 0..7 put the steps at every alignment.
  std::vector<uint8_t> buffer(64 + 8);
  uint32_t state = 12345;
  for (uint8_t& b : buffer) {
    state = state * 1103515245u + 12345u;
    b = static_cast<uint8_t>(state >> 24);
  }
  for (size_t start = 0; start < 8; ++start) {
    for (size_t length = 0; length <= 64; ++length) {
      const uint8_t* data = buffer.data() + start;
      ASSERT_EQ(Crc32(data, length), Crc32Bytewise(data, length))
          << "start=" << start << " length=" << length;
    }
  }
}

TEST(FaultPlanTest, ValidateRejectsBadSettings) {
  FaultPlan plan;
  EXPECT_TRUE(plan.Validate().ok());
  plan.drop_prob = 1.5;
  EXPECT_FALSE(plan.Validate().ok());
  plan.drop_prob = 0.6;
  plan.corrupt_prob = 0.6;
  EXPECT_FALSE(plan.Validate().ok());  // probabilities sum above 1
  plan.corrupt_prob = 0.1;
  EXPECT_TRUE(plan.Validate().ok());
  plan.delay_seconds = -1.0;
  EXPECT_FALSE(plan.Validate().ok());
  plan.delay_seconds = 0.0;
  plan.max_retries = 0;
  EXPECT_FALSE(plan.Validate().ok());
}

TEST(FaultPlanTest, ParseSpecRoundTrip) {
  const auto plan = ParseFaultPlan(
      "drop=0.05,corrupt=0.01,delay=0.02,crash=1@3,superstep=12,seed=7");
  ASSERT_TRUE(plan.ok());
  EXPECT_DOUBLE_EQ(plan.value().drop_prob, 0.05);
  EXPECT_DOUBLE_EQ(plan.value().corrupt_prob, 0.01);
  EXPECT_DOUBLE_EQ(plan.value().delay_prob, 0.02);
  EXPECT_EQ(plan.value().crash_worker, 1u);
  EXPECT_EQ(plan.value().crash_stream_step, 3u);
  EXPECT_EQ(plan.value().crash_superstep, 12u);
  EXPECT_EQ(plan.value().seed, 7u);
  EXPECT_TRUE(plan.value().HasMessageFaults());
  EXPECT_TRUE(plan.value().HasCrash());
}

TEST(FaultPlanTest, ParseRejectsUnknownKeysAndBadValues) {
  EXPECT_FALSE(ParseFaultPlan("explode=1").ok());
  EXPECT_FALSE(ParseFaultPlan("drop").ok());
  EXPECT_FALSE(ParseFaultPlan("drop=2.0").ok());
  const auto empty = ParseFaultPlan("");
  ASSERT_TRUE(empty.ok());
  EXPECT_FALSE(empty.value().HasAnyFault());
}

TEST(RecoveryModeTest, NamesRoundTrip) {
  EXPECT_EQ(ParseRecoveryMode(RecoveryModeName(RecoveryMode::kCheckpoint))
                .value(),
            RecoveryMode::kCheckpoint);
  EXPECT_EQ(
      ParseRecoveryMode(RecoveryModeName(RecoveryMode::kDegraded)).value(),
      RecoveryMode::kDegraded);
  EXPECT_EQ(ParseRecoveryMode("eq2").value(), RecoveryMode::kDegraded);
  EXPECT_FALSE(ParseRecoveryMode("prayer").ok());
}

TEST(RecoveryMetricsTest, AnyMergeToString) {
  RecoveryMetrics a;
  EXPECT_FALSE(a.Any());
  RecoveryMetrics b;
  b.messages_dropped = 2;
  b.retransmissions = 3;
  b.retransmitted_bytes = 4096;
  b.crashes = 1;
  b.checkpoint_recoveries = 1;
  EXPECT_TRUE(b.Any());
  a.Merge(b);
  a.Merge(b);
  EXPECT_EQ(a.messages_dropped, 4u);
  EXPECT_EQ(a.retransmissions, 6u);
  EXPECT_EQ(a.retransmitted_bytes, 8192u);
  EXPECT_EQ(a.crashes, 2u);
  const std::string text = a.ToString();
  EXPECT_NE(text.find("dropped=4"), std::string::npos);
  EXPECT_NE(text.find("crashes=2"), std::string::npos);
}

TEST(FaultInjectorTest, SameSeedSameDecisions) {
  FaultPlan plan;
  plan.drop_prob = 0.3;
  plan.corrupt_prob = 0.2;
  plan.delay_prob = 0.1;
  FaultInjector a(plan, /*stream_step=*/2);
  FaultInjector b(plan, /*stream_step=*/2);
  FaultInjector other_step(plan, /*stream_step=*/3);
  bool diverged = false;
  for (int i = 0; i < 256; ++i) {
    const auto decision = a.OnSend();
    EXPECT_EQ(decision, b.OnSend()) << "draw " << i;
    diverged = diverged || decision != other_step.OnSend();
  }
  // Different streaming steps get independent fault sequences.
  EXPECT_TRUE(diverged);
}

TEST(FaultInjectorTest, SuppressionDeliversUnconditionally) {
  FaultPlan plan;
  plan.drop_prob = 1.0;
  FaultInjector injector(plan, 0);
  EXPECT_EQ(injector.OnSend(), FaultInjector::Transit::kDrop);
  injector.SuppressFaults(true);
  EXPECT_EQ(injector.OnSend(), FaultInjector::Transit::kDeliver);
  injector.SuppressFaults(false);
  EXPECT_EQ(injector.OnSend(), FaultInjector::Transit::kDrop);
}

TEST(FaultInjectorTest, CrashFiresOnceAtThreshold) {
  FaultPlan plan;
  plan.crash_worker = 2;
  plan.crash_stream_step = 1;
  plan.crash_superstep = 5;
  FaultInjector wrong_step(plan, 0);
  EXPECT_FALSE(wrong_step.CrashArmed());
  EXPECT_FALSE(wrong_step.CrashPending(99));

  FaultInjector armed(plan, 1);
  EXPECT_TRUE(armed.CrashArmed());
  EXPECT_FALSE(armed.CrashPending(4));
  EXPECT_TRUE(armed.CrashPending(5));
  EXPECT_FALSE(armed.CrashPending(6));  // fires at most once
  EXPECT_EQ(armed.metrics().crashes, 1u);
}

TEST(FaultInjectorTest, ChargesDrainAtomically) {
  FaultPlan plan;
  plan.drop_prob = 0.5;
  FaultInjector injector(plan, 0);
  injector.ChargeFaultOverhead(0.25);
  injector.ChargeRecovery(0.5);
  EXPECT_DOUBLE_EQ(injector.metrics().fault_overhead_sim_seconds, 0.25);
  EXPECT_DOUBLE_EQ(injector.metrics().recovery_sim_seconds, 0.5);
  EXPECT_DOUBLE_EQ(injector.DrainPendingSimSeconds(), 0.75);
  EXPECT_DOUBLE_EQ(injector.DrainPendingSimSeconds(), 0.0);
}

TEST(FaultNetworkTest, FramingRoundTripsPayload) {
  FaultPlan plan;
  plan.delay_prob = 1.0;  // message faults on, but always delivered intact
  plan.delay_seconds = 0.0;
  FaultInjector injector(plan, 0);
  SimulatedNetwork net(2);
  net.AttachFaultInjector(&injector);
  EXPECT_TRUE(net.framing_enabled());
  EXPECT_EQ(net.WireBytes(100), 104u);
  ASSERT_TRUE(net.Send(0, 1, 7, Payload(100, 0x3C)).ok());
  Result<Message> msg = net.Receive(1, 7);
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg.value().payload, Payload(100, 0x3C));  // CRC stripped
  EXPECT_EQ(injector.metrics().messages_delayed, 1u);
}

TEST(FaultNetworkTest, DroppedMessageNeverArrives) {
  FaultPlan plan;
  plan.drop_prob = 1.0;
  FaultInjector injector(plan, 0);
  SimulatedNetwork net(2);
  net.AttachFaultInjector(&injector);
  ASSERT_TRUE(net.Send(0, 1, 7, Payload(64)).ok());
  EXPECT_EQ(net.Receive(1, 7).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(injector.metrics().messages_dropped, 1u);
  // The bytes left the source but never reached the destination.
  EXPECT_EQ(net.bytes_sent_by(0), 68u);
  EXPECT_EQ(net.bytes_received_by(1), 0u);
}

TEST(FaultNetworkTest, CorruptionDetectedByChecksum) {
  FaultPlan plan;
  plan.corrupt_prob = 1.0;
  FaultInjector injector(plan, 0);
  SimulatedNetwork net(2);
  net.AttachFaultInjector(&injector);
  ASSERT_TRUE(net.Send(0, 1, 7, Payload(64)).ok());
  const auto received = net.Receive(1, 7);
  ASSERT_FALSE(received.ok());
  EXPECT_EQ(received.status().code(), StatusCode::kIoError);
  EXPECT_NE(received.status().message().find("checksum mismatch"),
            std::string::npos);
  EXPECT_EQ(injector.metrics().messages_corrupted, 1u);
  // The damaged datagram was consumed, not left in the inbox.
  EXPECT_EQ(net.PendingCount(1), 0u);
}

TEST(FaultNetworkTest, SelfSendsNeverFaulted) {
  FaultPlan plan;
  plan.drop_prob = 1.0;
  FaultInjector injector(plan, 0);
  SimulatedNetwork net(2);
  net.AttachFaultInjector(&injector);
  ASSERT_TRUE(net.Send(1, 1, 7, Payload(32, 0x77)).ok());
  Result<Message> msg = net.Receive(1, 7);
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg.value().payload, Payload(32, 0x77));
  EXPECT_EQ(injector.metrics().messages_dropped, 0u);
}

TEST(FaultNetworkTest, NotFoundNamesDestinationTagAndPending) {
  SimulatedNetwork net(4);
  ASSERT_TRUE(net.Send(0, 1, 5, Payload(8)).ok());
  const auto missing = net.Receive(1, 9);
  ASSERT_FALSE(missing.ok());
  const std::string& message = missing.status().message();
  EXPECT_NE(message.find("dst=1"), std::string::npos) << message;
  EXPECT_NE(message.find("tag=9"), std::string::npos) << message;
  EXPECT_NE(message.find("1 pending"), std::string::npos) << message;
}

TEST(FaultNetworkTest, OrphanCheckCountsLeakedTraffic) {
  SimulatedNetwork net(2);
  EXPECT_EQ(net.CheckNoOrphans(), 0u);
  EXPECT_EQ(net.stats().orphan_events, 0u);
  ASSERT_TRUE(net.Send(0, 1, 1, Payload(4)).ok());
  EXPECT_EQ(net.CheckNoOrphans(), 1u);
  EXPECT_EQ(net.stats().orphan_events, 1u);
  const std::string text = net.stats().ToString();
  EXPECT_NE(text.find("orphan_events=1"), std::string::npos) << text;
}

TEST(FaultClusterTest, CommitSuperstepSurfacesOrphans) {
  Cluster cluster(2);
  ASSERT_TRUE(cluster.network().Send(0, 1, 42, Payload(4)).ok());
  cluster.CommitSuperstep(cluster.NewSuperstep());
  EXPECT_EQ(cluster.network().stats().orphan_events, 1u);
}

TEST(FaultClusterTest, TransmitReliablyRetransmitsUntilDelivered) {
  FaultPlan plan;
  plan.drop_prob = 0.5;
  plan.seed = 11;
  FaultInjector injector(plan, 0);
  Cluster cluster(2);
  cluster.AttachFaultInjector(&injector);
  SuperstepAccounting acct = cluster.NewSuperstep();
  bool retried = false;
  for (uint32_t i = 0; i < 32; ++i) {
    const auto msg =
        cluster.TransmitReliably(0, 1, 100 + i, Payload(16, 0x42), &acct);
    ASSERT_TRUE(msg.ok()) << msg.status().message();
    EXPECT_EQ(msg.value().payload, Payload(16, 0x42));
    retried = retried || injector.metrics().retransmissions > 0;
  }
  EXPECT_TRUE(retried);
  EXPECT_GT(injector.metrics().retransmitted_bytes, 0u);
  // Backoff was charged and lands on the clock at the next commit.
  EXPECT_GT(injector.metrics().fault_overhead_sim_seconds, 0.0);
  const double before = cluster.ElapsedSimSeconds();
  cluster.CommitSuperstep(acct);
  EXPECT_GT(cluster.ElapsedSimSeconds(), before);
}

TEST(FaultClusterTest, TransmitReliablyEscalatesAfterMaxRetries) {
  FaultPlan plan;
  plan.drop_prob = 1.0;  // every regular attempt is lost
  plan.max_retries = 3;
  FaultInjector injector(plan, 0);
  Cluster cluster(2);
  cluster.AttachFaultInjector(&injector);
  SuperstepAccounting acct = cluster.NewSuperstep();
  const auto msg = cluster.TransmitReliably(0, 1, 7, Payload(16, 0x24), &acct);
  ASSERT_TRUE(msg.ok()) << msg.status().message();
  EXPECT_EQ(msg.value().payload, Payload(16, 0x24));
  EXPECT_EQ(injector.metrics().escalations, 1u);
  EXPECT_EQ(injector.metrics().retransmissions, 3u);
  EXPECT_EQ(injector.metrics().messages_dropped, 4u);  // initial + retries
}

TEST(FaultClusterTest, CollectivesSurviveHeavyLoss) {
  FaultPlan plan;
  plan.drop_prob = 0.3;
  plan.corrupt_prob = 0.2;
  plan.seed = 5;
  FaultInjector injector(plan, 0);
  Cluster cluster(4);
  cluster.AttachFaultInjector(&injector);
  SuperstepAccounting acct = cluster.NewSuperstep();
  std::vector<Matrix> partials(4, Matrix(2, 2));
  for (uint32_t w = 0; w < 4; ++w) {
    partials[w](0, 0) = static_cast<double>(w + 1);
  }
  const Matrix sum = cluster.AllToAllReduceMatrix(partials, &acct);
  EXPECT_DOUBLE_EQ(sum(0, 0), 10.0);
  const double scalar = cluster.AllToAllReduceScalar(
      {1.0, 2.0, 3.0, 4.0}, &acct);
  EXPECT_DOUBLE_EQ(scalar, 10.0);
  cluster.CommitSuperstep(acct);
  // Nothing leaked despite the drops: every transfer was retransmitted to
  // completion before the superstep committed.
  EXPECT_EQ(cluster.network().stats().orphan_events, 0u);
  EXPECT_GT(injector.metrics().retransmissions, 0u);
}

TEST(FaultClusterTest, FaultFreeByteAccountingUnchangedByAttachment) {
  // An injector whose plan has no message faults must not change wire
  // bytes: framing stays off, so fault-free runs are byte-identical with
  // and without the fault layer.
  FaultPlan plan;
  plan.crash_worker = 1;  // crash-only plan: no message faults
  FaultInjector injector(plan, 0);
  Cluster with(2);
  with.AttachFaultInjector(&injector);
  Cluster without(2);
  SuperstepAccounting acct_with = with.NewSuperstep();
  SuperstepAccounting acct_without = without.NewSuperstep();
  Matrix rows(3, 2);
  rows(0, 0) = 1.0;
  ASSERT_TRUE(with.SendRows(0, 1, rows, &acct_with).ok());
  ASSERT_TRUE(without.SendRows(0, 1, rows, &acct_without).ok());
  EXPECT_EQ(with.network().stats().payload_bytes,
            without.network().stats().payload_bytes);
  EXPECT_EQ(acct_with.total_bytes(), acct_without.total_bytes());
}

}  // namespace
}  // namespace dismastd
