#include "ingest/event_log.h"

#include <algorithm>
#include <fstream>

#include "common/logging.h"
#include "common/random.h"
#include "common/serialization.h"
#include "dist/fault.h"  // Crc32

namespace dismastd {
namespace ingest {

namespace {

void AppendRecord(const EventRecord& record, size_t order,
                  ByteWriter* writer) {
  const size_t start = writer->size();
  writer->WriteU8(static_cast<uint8_t>(record.kind));
  writer->WriteU64(record.seq);
  writer->WriteI64(record.ts);
  DISMASTD_CHECK(record.fields.size() == order);
  for (uint64_t f : record.fields) writer->WriteU64(f);
  writer->WriteDouble(record.value);
  const uint32_t crc =
      Crc32(writer->bytes().data() + start, writer->size() - start);
  writer->WriteU32(crc);
}

}  // namespace

EventLogWriter::EventLogWriter(size_t order) : order_(order) {
  DISMASTD_CHECK(order >= 1 && order <= kMaxEventLogOrder);
}

void EventLogWriter::AppendEvent(int64_t ts,
                                 const std::vector<uint64_t>& index,
                                 double value) {
  AppendEventWithSeq(next_seq_, ts, index, value);
}

void EventLogWriter::AppendEventWithSeq(uint64_t seq, int64_t ts,
                                        const std::vector<uint64_t>& index,
                                        double value) {
  DISMASTD_CHECK(index.size() == order_);
  EventRecord record;
  record.kind = RecordKind::kEvent;
  record.seq = seq;
  record.ts = ts;
  record.fields = index;
  record.value = value;
  records_.push_back(std::move(record));
  next_seq_ = records_.size();
}

void EventLogWriter::AppendBarrier(int64_t ts,
                                   const std::vector<uint64_t>& dims) {
  DISMASTD_CHECK(dims.size() == order_);
  EventRecord record;
  record.kind = RecordKind::kBarrier;
  record.seq = records_.size();
  record.ts = ts;
  record.fields = dims;
  records_.push_back(std::move(record));
  next_seq_ = records_.size();
}

std::vector<uint8_t> EventLogWriter::ToBytes() const {
  ByteWriter writer;
  writer.WriteU32(kEventLogMagic);
  writer.WriteU32(kEventLogVersion);
  writer.WriteU32(static_cast<uint32_t>(order_));
  writer.WriteU32(0);  // reserved
  writer.WriteU64(records_.size());
  writer.WriteU32(Crc32(writer.bytes().data(), writer.size()));
  for (const EventRecord& record : records_) {
    AppendRecord(record, order_, &writer);
  }
  return writer.TakeBytes();
}

Status EventLogWriter::WriteFile(const std::string& path) const {
  const std::vector<uint8_t> bytes = ToBytes();
  std::ofstream os(path, std::ios::binary);
  if (!os) return Status::IoError("cannot open for write: " + path);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
  if (!os) return Status::IoError("failed writing event log: " + path);
  return Status::OK();
}

Result<EventLogReader> EventLogReader::FromBytes(std::vector<uint8_t> bytes) {
  if (bytes.size() < kEventLogHeaderBytes) {
    return Status::IoError("event log shorter than its header");
  }
  ByteReader reader(bytes);
  uint32_t magic = 0, version = 0, order = 0, reserved = 0, header_crc = 0;
  uint64_t record_count = 0;
  DISMASTD_RETURN_IF_ERROR(reader.ReadU32(&magic));
  DISMASTD_RETURN_IF_ERROR(reader.ReadU32(&version));
  DISMASTD_RETURN_IF_ERROR(reader.ReadU32(&order));
  DISMASTD_RETURN_IF_ERROR(reader.ReadU32(&reserved));
  DISMASTD_RETURN_IF_ERROR(reader.ReadU64(&record_count));
  DISMASTD_RETURN_IF_ERROR(reader.ReadU32(&header_crc));
  if (magic != kEventLogMagic) {
    return Status::IoError("not a TEVT event log (bad magic)");
  }
  if (version != kEventLogVersion) {
    return Status::IoError("unsupported TEVT version " +
                           std::to_string(version));
  }
  if (order < 1 || order > kMaxEventLogOrder) {
    return Status::IoError("bad TEVT order " + std::to_string(order));
  }
  if (header_crc != Crc32(bytes.data(), kEventLogHeaderBytes - 4)) {
    return Status::IoError("TEVT header failed its CRC");
  }
  EventLogReader log;
  log.order_ = order;
  log.declared_records_ = record_count;
  log.num_slots_ =
      (bytes.size() - kEventLogHeaderBytes) / EventRecordBytes(order);
  // More whole records than declared means the header lies; trust the
  // declaration and ignore the excess bytes.
  log.num_slots_ = std::min<size_t>(log.num_slots_, record_count);
  log.bytes_ = std::move(bytes);
  return log;
}

Result<EventLogReader> EventLogReader::OpenFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return Status::IoError("cannot open for read: " + path);
  std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(is)),
                             std::istreambuf_iterator<char>());
  Result<EventLogReader> log = FromBytes(std::move(bytes));
  if (!log.ok()) {
    return Status::IoError(log.status().message() + " (" + path + ")");
  }
  return log;
}

SlotKind EventLogReader::Decode(size_t slot, EventRecord* out) const {
  DISMASTD_CHECK(slot < num_slots_);
  const size_t record_size = EventRecordBytes(order_);
  const uint8_t* base = bytes_.data() + kEventLogHeaderBytes +
                        slot * record_size;
  ByteReader reader(base, record_size);
  uint8_t kind = 0;
  uint32_t stored_crc = 0;
  EventRecord record;
  record.fields.resize(order_);
  DISMASTD_CHECK_OK(reader.ReadU8(&kind));
  DISMASTD_CHECK_OK(reader.ReadU64(&record.seq));
  DISMASTD_CHECK_OK(reader.ReadI64(&record.ts));
  for (auto& f : record.fields) DISMASTD_CHECK_OK(reader.ReadU64(&f));
  DISMASTD_CHECK_OK(reader.ReadDouble(&record.value));
  DISMASTD_CHECK_OK(reader.ReadU32(&stored_crc));
  if (stored_crc != Crc32(base, record_size - 4)) {
    return SlotKind::kQuarantined;
  }
  if (kind != static_cast<uint8_t>(RecordKind::kEvent) &&
      kind != static_cast<uint8_t>(RecordKind::kBarrier)) {
    return SlotKind::kQuarantined;
  }
  record.kind = static_cast<RecordKind>(kind);
  *out = std::move(record);
  return record.kind == RecordKind::kEvent ? SlotKind::kEvent
                                           : SlotKind::kBarrier;
}

EventLogInfo SummarizeEventLog(const EventLogReader& reader) {
  EventLogInfo info;
  info.order = reader.order();
  info.declared_records = reader.declared_records();
  info.slots = reader.num_slots();
  info.truncated = reader.truncated();
  info.dims_high_water.assign(reader.order(), 0);
  bool any_ts = false;
  EventRecord record;
  for (size_t slot = 0; slot < reader.num_slots(); ++slot) {
    const SlotKind kind = reader.Decode(slot, &record);
    if (kind == SlotKind::kQuarantined) {
      ++info.quarantined;
      continue;
    }
    if (!any_ts || record.ts < info.min_ts) info.min_ts = record.ts;
    if (!any_ts || record.ts > info.max_ts) info.max_ts = record.ts;
    any_ts = true;
    if (kind == SlotKind::kEvent) {
      ++info.events;
      for (size_t m = 0; m < reader.order(); ++m) {
        info.dims_high_water[m] =
            std::max(info.dims_high_water[m], record.fields[m] + 1);
      }
    } else {
      ++info.barriers;
      for (size_t m = 0; m < reader.order(); ++m) {
        info.dims_high_water[m] =
            std::max(info.dims_high_water[m], record.fields[m]);
      }
    }
  }
  return info;
}

Result<EventLogInfo> SummarizeEventLogFile(const std::string& path) {
  Result<EventLogReader> reader = EventLogReader::OpenFile(path);
  if (!reader.ok()) return reader.status();
  return SummarizeEventLog(reader.value());
}

Result<bool> IsEventLogFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return Status::IoError("cannot open for read: " + path);
  uint32_t magic = 0;
  is.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  if (!is) return false;
  return magic == kEventLogMagic;
}

EventLogWriter ExportSequenceAsEvents(const StreamingTensorSequence& stream,
                                      const EventExportOptions& options) {
  DISMASTD_CHECK(options.ticks_per_step >= 1);
  EventLogWriter writer(stream.full().order());
  Rng rng(options.seed);
  std::vector<uint64_t> index(stream.full().order());
  for (size_t t = 0; t < stream.num_steps(); ++t) {
    const SparseTensor delta = stream.DeltaAt(t);
    const int64_t base_ts =
        static_cast<int64_t>(t) * options.ticks_per_step;
    std::vector<size_t> perm(delta.nnz());
    for (size_t e = 0; e < perm.size(); ++e) perm[e] = e;
    if (options.shuffle) {
      for (size_t e = perm.size(); e > 1; --e) {
        std::swap(perm[e - 1], perm[rng.NextBounded(e)]);
      }
    }
    for (size_t e : perm) {
      const uint64_t* idx = delta.IndexTuple(e);
      index.assign(idx, idx + delta.order());
      const int64_t jitter =
          options.shuffle && options.ticks_per_step > 1
              ? static_cast<int64_t>(rng.NextBounded(
                    static_cast<uint64_t>(options.ticks_per_step)))
              : 0;
      writer.AppendEvent(base_ts + jitter, index, delta.Value(e));
    }
    if (options.emit_barriers) {
      writer.AppendBarrier(base_ts + options.ticks_per_step - 1,
                           stream.DimsAt(t));
    }
  }
  return writer;
}

}  // namespace ingest
}  // namespace dismastd
