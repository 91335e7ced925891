#include "dist/network.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace dismastd {

namespace {

void AppendCrcFrame(std::vector<uint8_t>* payload) {
  const uint32_t crc = Crc32(payload->data(), payload->size());
  const uint8_t* raw = reinterpret_cast<const uint8_t*>(&crc);
  payload->insert(payload->end(), raw, raw + sizeof(crc));
}

}  // namespace

SimulatedNetwork::SimulatedNetwork(uint32_t num_workers)
    : num_workers_(num_workers),
      inboxes_(num_workers),
      bytes_sent_(num_workers, 0),
      bytes_recv_(num_workers, 0),
      msgs_sent_(num_workers, 0) {
  DISMASTD_CHECK(num_workers > 0);
}

void SimulatedNetwork::AddWorkers(uint32_t count) {
  num_workers_ += count;
  inboxes_.resize(num_workers_);
  bytes_sent_.resize(num_workers_, 0);
  bytes_recv_.resize(num_workers_, 0);
  msgs_sent_.resize(num_workers_, 0);
}

Status SimulatedNetwork::RemoveWorkers(uint32_t count) {
  if (count >= num_workers_) {
    return Status::InvalidArgument(
        "cannot drain " + std::to_string(count) + " of " +
        std::to_string(num_workers_) + " workers (at least one must remain)");
  }
  for (uint32_t w = num_workers_ - count; w < num_workers_; ++w) {
    if (!inboxes_[w].empty()) {
      return Status::FailedPrecondition(
          "worker " + std::to_string(w) + " still holds " +
          std::to_string(inboxes_[w].size()) +
          " undelivered message(s); drain only at a fully-drained "
          "superstep boundary");
    }
  }
  num_workers_ -= count;
  inboxes_.resize(num_workers_);
  bytes_sent_.resize(num_workers_);
  bytes_recv_.resize(num_workers_);
  msgs_sent_.resize(num_workers_);
  return Status::OK();
}

Status SimulatedNetwork::Send(uint32_t src, uint32_t dst, uint32_t tag,
                              std::vector<uint8_t> payload) {
  if (src >= num_workers_ || dst >= num_workers_) {
    return Status::InvalidArgument("worker id out of range");
  }
  if (framing_enabled()) AppendCrcFrame(&payload);
  if (src != dst) {
    const FaultInjector::Transit transit =
        injector_ != nullptr ? injector_->OnSend()
                             : FaultInjector::Transit::kDeliver;
    BookRemote(src, dst, payload.size(),
               transit != FaultInjector::Transit::kDrop);
    switch (transit) {
      case FaultInjector::Transit::kDrop:
        // The bytes left the source but never arrive: counted as sent,
        // not received, and nothing is enqueued.
        ++injector_->metrics().messages_dropped;
        return Status::OK();
      case FaultInjector::Transit::kCorrupt:
        // Flip one byte in transit; the CRC frame makes Receive notice.
        payload[injector_->CorruptOffset(payload.size())] ^= 0x5Au;
        ++injector_->metrics().messages_corrupted;
        break;
      case FaultInjector::Transit::kDelay:
        // Straggler link: delivered intact, but the configured delay is
        // charged to the simulated clock at the next superstep commit.
        ++injector_->metrics().messages_delayed;
        injector_->ChargeFaultOverhead(injector_->plan().delay_seconds);
        break;
      case FaultInjector::Transit::kDeliver:
        break;
    }
  }
  inboxes_[dst].push_back(Message{src, dst, tag, std::move(payload)});
  return Status::OK();
}

void SimulatedNetwork::BookRemote(uint32_t src, uint32_t dst,
                                  uint64_t wire_bytes, bool delivered) {
  DISMASTD_CHECK(src != dst && src < num_workers_ && dst < num_workers_);
  stats_.Record(wire_bytes);
  if (traffic_class_ == TrafficClass::kMigration) {
    stats_.RecordMigration(wire_bytes);
  }
  bytes_sent_[src] += wire_bytes;
  ++msgs_sent_[src];
  if (message_bytes_ != nullptr) message_bytes_->Record(wire_bytes);
  if (delivered) bytes_recv_[dst] += wire_bytes;
}

Result<Message> SimulatedNetwork::Receive(uint32_t dst, uint32_t tag) {
  if (dst >= num_workers_) {
    return Status::InvalidArgument("worker id out of range");
  }
  auto& inbox = inboxes_[dst];
  for (auto it = inbox.begin(); it != inbox.end(); ++it) {
    if (it->tag == tag) {
      Message msg = std::move(*it);
      inbox.erase(it);
      if (framing_enabled()) {
        if (msg.payload.size() < sizeof(uint32_t)) {
          return Status::IoError("truncated frame for dst=" +
                                 std::to_string(dst) + " tag=" +
                                 std::to_string(tag));
        }
        uint32_t stored = 0;
        std::memcpy(&stored, msg.payload.data() + msg.payload.size() -
                                 sizeof(stored),
                    sizeof(stored));
        msg.payload.resize(msg.payload.size() - sizeof(stored));
        if (Crc32(msg.payload.data(), msg.payload.size()) != stored) {
          // A real receiver discards the damaged datagram; the sender's
          // reliability layer retransmits.
          return Status::IoError(
              "checksum mismatch on message src=" + std::to_string(msg.src) +
              " dst=" + std::to_string(dst) + " tag=" + std::to_string(tag) +
              " (discarded)");
        }
      }
      return msg;
    }
  }
  return Status::NotFound(
      "no pending message for dst=" + std::to_string(dst) + " tag=" +
      std::to_string(tag) + " (" + std::to_string(inbox.size()) +
      " pending at dst)");
}

size_t SimulatedNetwork::PendingCount(uint32_t dst) const {
  return dst < num_workers_ ? inboxes_[dst].size() : 0;
}

size_t SimulatedNetwork::TotalPending() const {
  size_t total = 0;
  for (const auto& inbox : inboxes_) total += inbox.size();
  return total;
}

size_t SimulatedNetwork::CheckNoOrphans() {
  const size_t pending = TotalPending();
  if (pending > 0) {
    ++stats_.orphan_events;
    stats_.orphan_messages += pending;
    DISMASTD_LOG(Warning) << "superstep committed with " << pending
                          << " undelivered message(s) still pending — a "
                             "collective leaked traffic";
  }
  return pending;
}

void SimulatedNetwork::ResetStats() {
  stats_.Reset();
  std::fill(bytes_sent_.begin(), bytes_sent_.end(), 0);
  std::fill(bytes_recv_.begin(), bytes_recv_.end(), 0);
  std::fill(msgs_sent_.begin(), msgs_sent_.end(), 0);
}

}  // namespace dismastd
