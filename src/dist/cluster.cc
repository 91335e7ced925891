#include "dist/cluster.h"

#include <algorithm>

#include "common/logging.h"
#include "common/serialization.h"
#include "la/ops.h"
#include "obs/flightrec.h"

namespace dismastd {

std::vector<uint8_t> SerializeMatrix(const Matrix& m) {
  ByteWriter writer;
  writer.WriteU64(m.rows());
  writer.WriteU64(m.cols());
  writer.WriteDoubleSpan(m.data(), m.size());
  return writer.TakeBytes();
}

Result<Matrix> DeserializeMatrix(const std::vector<uint8_t>& bytes) {
  ByteReader reader(bytes);
  uint64_t rows = 0, cols = 0;
  DISMASTD_RETURN_IF_ERROR(reader.ReadU64(&rows));
  DISMASTD_RETURN_IF_ERROR(reader.ReadU64(&cols));
  std::vector<double> data;
  DISMASTD_RETURN_IF_ERROR(reader.ReadDoubleVec(&data));
  if (data.size() != rows * cols) {
    return Status::IoError("matrix payload size mismatch");
  }
  Matrix m(static_cast<size_t>(rows), static_cast<size_t>(cols));
  std::copy(data.begin(), data.end(), m.data());
  return m;
}

Cluster::Cluster(uint32_t num_workers, CostModelConfig config)
    : network_(num_workers),
      config_(config),
      busy_seconds_(num_workers, 0.0),
      processed_elements_(num_workers, 0) {}

void Cluster::AddWorkers(uint32_t count) {
  network_.AddWorkers(count);
  busy_seconds_.resize(network_.num_workers(), 0.0);
  processed_elements_.resize(network_.num_workers(), 0);
}

Status Cluster::DrainWorkers(uint32_t count) {
  DISMASTD_RETURN_IF_ERROR(network_.RemoveWorkers(count));
  busy_seconds_.resize(network_.num_workers());
  processed_elements_.resize(network_.num_workers());
  return Status::OK();
}

double Cluster::CommitSuperstep(const SuperstepAccounting& acct,
                                const char* phase) {
  const double before = sim_seconds_;
  sim_seconds_ += SuperstepSeconds(config_, acct);
  for (uint32_t w = 0; w < acct.num_workers() && w < busy_seconds_.size();
       ++w) {
    busy_seconds_[w] += WorkerSeconds(config_, acct, w);
    processed_elements_[w] += acct.per_worker_sparse_elements()[w];
  }
  // Fault overhead accrued during this superstep (straggler delays,
  // retransmission backoff, recovery penalties) lands on the clock here,
  // so the cost model prices unreliability alongside the regular work.
  if (injector_ != nullptr) {
    sim_seconds_ += injector_->DrainPendingSimSeconds();
  }
  if (obs::Active(tracer_) &&
      tracer_->detail() >= obs::TraceDetail::kPhases) {
    tracer_->BeginSim(obs::Tracer::kDriverLane, phase, "phase", before);
    tracer_->EndSim(obs::Tracer::kDriverLane, sim_seconds_);
    if (tracer_->detail() >= obs::TraceDetail::kWorkers) {
      for (uint32_t w = 0; w < acct.num_workers(); ++w) {
        const uint32_t lane = obs::Tracer::WorkerLane(w);
        tracer_->SetSimLaneName(lane, "worker " + std::to_string(w));
        tracer_->BeginSim(lane, phase, "worker", before);
        tracer_->EndSim(lane, before + WorkerSeconds(config_, acct, w));
      }
    }
  }
  total_flops_ += acct.total_flops();
  total_comm_bytes_ += acct.total_bytes();
  for (uint32_t w = 0; w < acct.num_workers(); ++w) {
    total_comm_messages_ += acct.per_worker_messages()[w];
  }
  ++supersteps_;
  // Every collective of a committed superstep must have drained its
  // traffic; leftovers are surfaced as CommStats orphan warnings — and
  // flagged to the process-wide flight recorder, so a leak that only
  // manifests steps later still shows up in the post-mortem.
  if (network_.CheckNoOrphans() > 0) {
    if (obs::FlightRecorder* flight = obs::FlightRecorder::Global()) {
      flight->NoteEvent("orphan_leak", supersteps_);
    }
  }
  return sim_seconds_ - before;
}

Result<Message> Cluster::TransmitReliably(uint32_t src, uint32_t dst,
                                          uint32_t tag,
                                          const std::vector<uint8_t>& payload,
                                          SuperstepAccounting* acct) {
  const uint64_t wire = network_.WireBytes(payload.size());
  const auto account_attempt = [&] {
    if (acct != nullptr && src != dst) {
      acct->AddSend(src, wire);
      acct->AddReceive(dst, wire);
    }
  };
  const uint32_t max_retries =
      injector_ != nullptr ? injector_->plan().max_retries : 0;
  for (uint32_t attempt = 0;; ++attempt) {
    account_attempt();
    DISMASTD_RETURN_IF_ERROR(network_.Send(src, dst, tag, payload));
    Result<Message> msg = network_.Receive(dst, tag);
    if (msg.ok()) return msg;
    // NotFound = dropped in transit, IoError = checksum mismatch; anything
    // else (or a fault-free fabric misbehaving) is a real error.
    const StatusCode code = msg.status().code();
    if (injector_ == nullptr ||
        (code != StatusCode::kNotFound && code != StatusCode::kIoError)) {
      return msg;
    }
    RecoveryMetrics& metrics = injector_->metrics();
    if (attempt >= max_retries) {
      // Bounded retries exhausted: deliver once out of band with faults
      // suppressed, so an unlucky streak cannot wedge a collective. Every
      // failed attempt has already been charged.
      ++metrics.escalations;
      DISMASTD_LOG(Warning)
          << "transfer src=" << src << " dst=" << dst << " tag=" << tag
          << " exhausted " << max_retries
          << " retries; escalating to out-of-band delivery";
      account_attempt();
      injector_->SuppressFaults(true);
      const Status sent = network_.Send(src, dst, tag, payload);
      injector_->SuppressFaults(false);
      DISMASTD_RETURN_IF_ERROR(sent);
      return network_.Receive(dst, tag);
    }
    ++metrics.retransmissions;
    metrics.retransmitted_bytes += wire;
    // Exponential backoff before the retransmission, charged to the
    // simulated clock at the next superstep commit.
    const uint32_t shift = std::min<uint32_t>(attempt, 16);
    injector_->ChargeFaultOverhead(config_.latency_seconds *
                                   static_cast<double>(1ull << shift));
  }
}

Matrix Cluster::AllToAllReduceMatrix(const std::vector<Matrix>& partials,
                                     SuperstepAccounting* acct) {
  const uint32_t workers = num_workers();
  DISMASTD_CHECK(partials.size() == workers);
  const uint32_t tag = next_tag_++;
  // Every worker ships its partial to every other worker; each transfer is
  // delivered reliably (retransmitted under fault injection). Every
  // replica sums in the same worker order, so they are bit-identical; we
  // compute worker 0's replica and return it.
  std::vector<Matrix> received(workers);
  for (uint32_t src = 0; src < workers; ++src) {
    const std::vector<uint8_t> payload = SerializeMatrix(partials[src]);
    for (uint32_t dst = 0; dst < workers; ++dst) {
      if (dst == src) continue;
      Result<Message> msg = TransmitReliably(src, dst, tag, payload, acct);
      DISMASTD_CHECK(msg.ok());
      if (dst == 0) {
        Result<Matrix> part = DeserializeMatrix(msg.value().payload);
        DISMASTD_CHECK(part.ok());
        received[src] = std::move(part).value();
      }
    }
  }
  if (acct != nullptr) {
    for (uint32_t dst = 0; dst < workers; ++dst) {
      // Each replica performs (M-1) * size element-wise additions.
      acct->AddFlops(dst, (workers - 1) *
                              static_cast<uint64_t>(partials[dst].size()));
    }
  }
  received[0] = partials[0];
  Matrix sum = received[0];
  for (uint32_t w = 1; w < workers; ++w) {
    if (received[w].rows() > 0) AddInPlace(sum, received[w]);
  }
  return sum;
}

double Cluster::AllToAllReduceScalar(const std::vector<double>& partials,
                                     SuperstepAccounting* acct) {
  const uint32_t workers = num_workers();
  DISMASTD_CHECK(partials.size() == workers);
  const uint32_t tag = next_tag_++;
  for (uint32_t src = 0; src < workers; ++src) {
    ByteWriter writer;
    writer.WriteDouble(partials[src]);
    const std::vector<uint8_t> payload = writer.TakeBytes();
    for (uint32_t dst = 0; dst < workers; ++dst) {
      if (dst == src) continue;
      Result<Message> msg = TransmitReliably(src, dst, tag, payload, acct);
      DISMASTD_CHECK(msg.ok());
      if (dst == 0) {
        ByteReader reader(msg.value().payload);
        double v = 0.0;
        DISMASTD_CHECK(reader.ReadDouble(&v).ok());
        // Accumulated below in worker order via partials to keep replicas
        // bit-identical; the receive path only validates transport.
        (void)v;
      }
    }
  }
  double sum = 0.0;
  for (uint32_t w = 0; w < workers; ++w) sum += partials[w];
  return sum;
}

Result<Matrix> Cluster::SendRows(uint32_t src, uint32_t dst,
                                 const Matrix& rows,
                                 SuperstepAccounting* acct) {
  const uint32_t tag = next_tag_++;
  const std::vector<uint8_t> payload = SerializeMatrix(rows);
  Result<Message> msg = TransmitReliably(src, dst, tag, payload, acct);
  if (!msg.ok()) return msg.status();
  return DeserializeMatrix(msg.value().payload);
}

}  // namespace dismastd
