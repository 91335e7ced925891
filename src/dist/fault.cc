#include "dist/fault.h"

#include <array>
#include <cmath>

#include "common/string_util.h"
#include "obs/metrics.h"

namespace dismastd {

namespace {

std::array<uint32_t, 256> BuildCrc32Table() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t size) {
  static const std::array<uint32_t, 256> kTable = BuildCrc32Table();
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = kTable[(crc ^ data[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

Status FaultPlan::Validate() const {
  const auto probability = [](double value, const char* name) {
    if (!std::isfinite(value) || value < 0.0 || value > 1.0) {
      return Status::InvalidArgument(std::string(name) +
                                     " must be a probability in [0, 1]");
    }
    return Status::OK();
  };
  DISMASTD_RETURN_IF_ERROR(probability(drop_prob, "drop_prob"));
  DISMASTD_RETURN_IF_ERROR(probability(corrupt_prob, "corrupt_prob"));
  DISMASTD_RETURN_IF_ERROR(probability(delay_prob, "delay_prob"));
  if (drop_prob + corrupt_prob + delay_prob > 1.0) {
    return Status::InvalidArgument(
        "drop_prob + corrupt_prob + delay_prob must not exceed 1 (a message "
        "suffers at most one transit fault)");
  }
  if (!std::isfinite(delay_seconds) || delay_seconds < 0.0) {
    return Status::InvalidArgument("delay_seconds must be non-negative");
  }
  if (max_retries == 0 || max_retries > 32) {
    return Status::InvalidArgument("max_retries must be in [1, 32]");
  }
  return Status::OK();
}

Result<FaultPlan> ParseFaultPlan(const std::string& spec) {
  FaultPlan plan;
  const std::vector<std::string> tokens = SplitString(spec, ',');
  for (size_t i = 0; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (token.empty()) continue;
    // Every error names the offending token and its 1-based position so a
    // typo deep inside a long plan is findable from the message alone.
    const auto fail = [&](const std::string& why) {
      return Status::InvalidArgument("fault plan token " +
                                     std::to_string(i + 1) + " ('" + token +
                                     "'): " + why);
    };
    const size_t eq = token.find('=');
    if (eq == std::string::npos) return fail("not key=value");
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    const auto number = [&](double* out) {
      if (!ParseDouble(value, out).ok()) {
        return fail("value '" + value + "' is not a number");
      }
      return Status::OK();
    };
    const auto integer = [&](const std::string& text, uint64_t* out) {
      if (!ParseU64(text, out).ok()) {
        return fail("value '" + text + "' is not a non-negative integer");
      }
      return Status::OK();
    };
    if (key == "drop") {
      DISMASTD_RETURN_IF_ERROR(number(&plan.drop_prob));
    } else if (key == "corrupt") {
      DISMASTD_RETURN_IF_ERROR(number(&plan.corrupt_prob));
    } else if (key == "delay") {
      DISMASTD_RETURN_IF_ERROR(number(&plan.delay_prob));
    } else if (key == "delay_seconds") {
      DISMASTD_RETURN_IF_ERROR(number(&plan.delay_seconds));
    } else if (key == "crash") {
      // "W" or "W@S": worker W crashes (at streaming step S).
      const size_t at = value.find('@');
      uint64_t worker = 0;
      DISMASTD_RETURN_IF_ERROR(integer(value.substr(0, at), &worker));
      plan.crash_worker = static_cast<uint32_t>(worker);
      if (at != std::string::npos) {
        DISMASTD_RETURN_IF_ERROR(
            integer(value.substr(at + 1), &plan.crash_stream_step));
      }
    } else if (key == "superstep") {
      DISMASTD_RETURN_IF_ERROR(integer(value, &plan.crash_superstep));
    } else if (key == "retries") {
      uint64_t retries = 0;
      DISMASTD_RETURN_IF_ERROR(integer(value, &retries));
      plan.max_retries = static_cast<uint32_t>(retries);
    } else if (key == "seed") {
      DISMASTD_RETURN_IF_ERROR(integer(value, &plan.seed));
    } else {
      return fail("unknown key '" + key +
                  "' (expected drop, corrupt, delay, delay_seconds, crash, "
                  "superstep, retries or seed)");
    }
  }
  DISMASTD_RETURN_IF_ERROR(plan.Validate());
  return plan;
}

const char* RecoveryModeName(RecoveryMode mode) {
  switch (mode) {
    case RecoveryMode::kCheckpoint:
      return "checkpoint";
    case RecoveryMode::kDegraded:
      return "degraded";
  }
  return "?";
}

Result<RecoveryMode> ParseRecoveryMode(const std::string& text) {
  static constexpr EnumToken<RecoveryMode> kTokens[] = {
      {"checkpoint", RecoveryMode::kCheckpoint},
      {"degraded", RecoveryMode::kDegraded},
      {"eq2", RecoveryMode::kDegraded}};
  return ParseEnumToken<RecoveryMode>(text, "recovery mode", kTokens);
}

bool RecoveryMetrics::Any() const {
  return messages_dropped > 0 || messages_corrupted > 0 ||
         messages_delayed > 0 || retransmissions > 0 || escalations > 0 ||
         crashes > 0;
}

void RecoveryMetrics::Merge(const RecoveryMetrics& other) {
  messages_dropped += other.messages_dropped;
  messages_corrupted += other.messages_corrupted;
  messages_delayed += other.messages_delayed;
  retransmissions += other.retransmissions;
  retransmitted_bytes += other.retransmitted_bytes;
  escalations += other.escalations;
  crashes += other.crashes;
  checkpoint_recoveries += other.checkpoint_recoveries;
  degraded_recoveries += other.degraded_recoveries;
  rows_rebuilt_from_prev += other.rows_rebuilt_from_prev;
  rows_reinitialized += other.rows_reinitialized;
  fault_overhead_sim_seconds += other.fault_overhead_sim_seconds;
  recovery_sim_seconds += other.recovery_sim_seconds;
}

void RecoveryMetrics::PublishTo(obs::MetricRegistry* registry) const {
  const auto counter = [&](const char* name, const char* help, uint64_t v) {
    registry->GetCounter(name, {}, help)->Add(v);
  };
  counter("dismastd_recovery_messages_dropped_total",
          "Messages lost in transit by the fault injector", messages_dropped);
  counter("dismastd_recovery_messages_corrupted_total",
          "Messages corrupted in transit (caught by the CRC frame)",
          messages_corrupted);
  counter("dismastd_recovery_messages_delayed_total",
          "Messages hit by a straggler delay", messages_delayed);
  counter("dismastd_recovery_retransmissions_total",
          "Bounded retransmissions of dropped/corrupt messages",
          retransmissions);
  counter("dismastd_recovery_retransmitted_bytes_total",
          "Wire bytes of all retransmission attempts", retransmitted_bytes);
  counter("dismastd_recovery_escalations_total",
          "Transfers delivered out of band after exhausting retries",
          escalations);
  counter("dismastd_recovery_crashes_total", "Worker crashes injected",
          crashes);
  counter("dismastd_recovery_checkpoint_recoveries_total",
          "Crash recoveries by checkpoint replay", checkpoint_recoveries);
  counter("dismastd_recovery_degraded_recoveries_total",
          "Crash recoveries by degraded continuation (Eq. 2)",
          degraded_recoveries);
  counter("dismastd_recovery_rows_rebuilt_total",
          "Lost rows rebuilt from the previous snapshot",
          rows_rebuilt_from_prev);
  counter("dismastd_recovery_rows_reinitialized_total",
          "Lost rows re-drawn from the deterministic init",
          rows_reinitialized);
  registry
      ->GetGauge("dismastd_recovery_fault_overhead_sim_seconds", {},
                 "Simulated seconds of retransmission backoff and delays")
      ->Add(fault_overhead_sim_seconds);
  registry
      ->GetGauge("dismastd_recovery_sim_seconds", {},
                 "Simulated seconds lost to crash recovery")
      ->Add(recovery_sim_seconds);
}

std::string RecoveryMetrics::ToString() const {
  return "dropped=" + FormatWithCommas(messages_dropped) +
         " corrupted=" + FormatWithCommas(messages_corrupted) +
         " delayed=" + FormatWithCommas(messages_delayed) +
         " retransmissions=" + FormatWithCommas(retransmissions) + " (" +
         FormatBytes(retransmitted_bytes) + ")" +
         " escalations=" + FormatWithCommas(escalations) +
         " crashes=" + FormatWithCommas(crashes) +
         " recoveries=ckpt:" + FormatWithCommas(checkpoint_recoveries) +
         "/degraded:" + FormatWithCommas(degraded_recoveries);
}

FaultInjector::FaultInjector(const FaultPlan& plan, uint64_t stream_step)
    : plan_(plan),
      stream_step_(stream_step),
      // Each streaming step gets its own deterministic RNG stream so a
      // step's fault sequence does not depend on earlier steps' traffic.
      rng_(plan.seed ^ (stream_step * 0x9E3779B97F4A7C15ULL)) {}

FaultInjector::Transit FaultInjector::OnSend() {
  if (suppressed_ || !message_faults()) return Transit::kDeliver;
  const double u = rng_.NextDouble();
  if (u < plan_.drop_prob) return Transit::kDrop;
  if (u < plan_.drop_prob + plan_.corrupt_prob) return Transit::kCorrupt;
  if (u < plan_.drop_prob + plan_.corrupt_prob + plan_.delay_prob) {
    return Transit::kDelay;
  }
  return Transit::kDeliver;
}

size_t FaultInjector::CorruptOffset(size_t frame_size) {
  if (frame_size == 0) return 0;
  return static_cast<size_t>(rng_.NextBounded(frame_size));
}

bool FaultInjector::CrashPending(uint64_t committed_supersteps) {
  if (crash_fired_ || !CrashArmed()) return false;
  if (committed_supersteps < plan_.crash_superstep) return false;
  crash_fired_ = true;
  ++metrics_.crashes;
  return true;
}

void FaultInjector::ChargeFaultOverhead(double seconds) {
  pending_sim_seconds_ += seconds;
  metrics_.fault_overhead_sim_seconds += seconds;
}

void FaultInjector::ChargeRecovery(double seconds) {
  pending_sim_seconds_ += seconds;
  metrics_.recovery_sim_seconds += seconds;
}

double FaultInjector::DrainPendingSimSeconds() {
  const double pending = pending_sim_seconds_;
  pending_sim_seconds_ = 0.0;
  return pending;
}

}  // namespace dismastd
