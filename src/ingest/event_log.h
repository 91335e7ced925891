#ifndef DISMASTD_INGEST_EVENT_LOG_H_
#define DISMASTD_INGEST_EVENT_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "stream/snapshot.h"
#include "tensor/coo_tensor.h"

namespace dismastd {
namespace ingest {

/// Versioned binary event-log format ("TEVT"): the on-disk form of a
/// multi-aspect tensor stream as it would arrive in production — a sequence
/// of timestamped COO updates rather than prefix-box snapshots of one
/// resident tensor.
///
/// Layout (little-endian):
///   header : magic u32 'TEVT' | version u32 | order u32 | reserved u32 |
///            record_count u64 | crc32 u32 (over the preceding 24 bytes)
///   record : kind u8 | seq u64 | ts i64 | order x u64 | value f64 |
///            crc32 u32 (over the preceding bytes of the record)
///
/// Records are fixed-size once the header fixes the order, so a corrupted
/// record never desynchronizes the reader: every slot decodes
/// independently and a CRC mismatch quarantines that slot only. Barrier
/// records are stream punctuation: they declare the dims the producer has
/// committed up to their timestamp (the index fields carry dims) and force
/// the delta builder to close its batch — the event-stream equivalent of a
/// snapshot boundary in the schedule-driven StreamingTensorSequence.
inline constexpr uint32_t kEventLogMagic = 0x54564554u;  // "TEVT"
inline constexpr uint32_t kEventLogVersion = 1;
inline constexpr size_t kMaxEventLogOrder = 16;

enum class RecordKind : uint8_t { kEvent = 0, kBarrier = 1 };

/// One decoded record. For kEvent, `fields` is the index tuple; for
/// kBarrier, the declared dims.
struct EventRecord {
  RecordKind kind = RecordKind::kEvent;
  /// Producer-assigned unique id; the ingest consumer deduplicates on it
  /// (at-least-once delivery upstream must not double-count an update).
  uint64_t seq = 0;
  /// Event time, in log-defined ticks.
  int64_t ts = 0;
  std::vector<uint64_t> fields;
  double value = 0.0;
};

/// Serialized record size for a given order.
inline constexpr size_t EventRecordBytes(size_t order) {
  return 1 + 8 + 8 + 8 * order + 8 + 4;
}
inline constexpr size_t kEventLogHeaderBytes = 28;

/// In-memory log builder; writes the whole file at once.
class EventLogWriter {
 public:
  explicit EventLogWriter(size_t order);

  size_t order() const { return order_; }
  size_t num_records() const { return records_.size(); }
  const std::vector<EventRecord>& records() const { return records_; }

  /// Appends an update event; seq is auto-assigned (the running record
  /// index, so it is unique).
  void AppendEvent(int64_t ts, const std::vector<uint64_t>& index,
                   double value);
  /// Appends an event with an explicit seq (to model an at-least-once
  /// upstream that retransmits: a repeated seq is a duplicate).
  void AppendEventWithSeq(uint64_t seq, int64_t ts,
                          const std::vector<uint64_t>& index, double value);
  /// Appends a barrier declaring `dims` committed as of `ts`.
  void AppendBarrier(int64_t ts, const std::vector<uint64_t>& dims);

  std::vector<uint8_t> ToBytes() const;
  Status WriteFile(const std::string& path) const;

 private:
  size_t order_;
  uint64_t next_seq_ = 0;
  std::vector<EventRecord> records_;
};

/// What one slot of the log decoded to.
enum class SlotKind : uint8_t {
  kEvent = 0,
  kBarrier = 1,
  /// CRC mismatch or unknown record kind: the slot is counted and skipped,
  /// never fed downstream and never fatal.
  kQuarantined = 2,
};

/// Random-access reader over a fully loaded log. Decode() is const and
/// thread-safe, so N producer threads can replay disjoint slot shards off
/// one shared reader.
class EventLogReader {
 public:
  static Result<EventLogReader> FromBytes(std::vector<uint8_t> bytes);
  static Result<EventLogReader> OpenFile(const std::string& path);

  size_t order() const { return order_; }
  /// Whole records present in the file (a truncated tail is excluded).
  size_t num_slots() const { return num_slots_; }
  /// Record count the header declares; fewer decodable slots than this
  /// means the file was truncated in flight.
  uint64_t declared_records() const { return declared_records_; }
  bool truncated() const { return num_slots_ != declared_records_; }

  /// Decodes slot `slot` into `*out` (valid for kEvent / kBarrier).
  SlotKind Decode(size_t slot, EventRecord* out) const;

 private:
  std::vector<uint8_t> bytes_;
  size_t order_ = 0;
  size_t num_slots_ = 0;
  uint64_t declared_records_ = 0;
};

/// `dismastd info` summary of a log: record census, event-time span, and
/// the dims high-water mark over events and barriers.
struct EventLogInfo {
  size_t order = 0;
  uint64_t declared_records = 0;
  size_t slots = 0;
  uint64_t events = 0;
  uint64_t barriers = 0;
  uint64_t quarantined = 0;
  bool truncated = false;
  /// Valid iff events + barriers > 0.
  int64_t min_ts = 0;
  int64_t max_ts = 0;
  std::vector<uint64_t> dims_high_water;
};

EventLogInfo SummarizeEventLog(const EventLogReader& reader);
Result<EventLogInfo> SummarizeEventLogFile(const std::string& path);

/// True when the file starts with the TEVT magic (IoError when unreadable;
/// short files are simply `false`).
Result<bool> IsEventLogFile(const std::string& path);

/// Inverse-of-ingest export: turns a snapshot sequence back into the event
/// stream that would have produced it. Each step's relative complement
/// becomes one burst of events with timestamps inside that step's tick
/// window (shuffled within the step, so arrival order is realistically
/// scrambled), closed by a barrier declaring the step's dims. Replaying
/// the log through IngestSession with barrier-closed batches reproduces
/// the sequence's deltas exactly.
struct EventExportOptions {
  uint64_t seed = 42;
  /// Shuffle event order (and jitter timestamps) within each step.
  bool shuffle = true;
  /// Event-time ticks each step occupies; events of step t get timestamps
  /// in [t*ticks, (t+1)*ticks), the step's barrier gets (t+1)*ticks - 1.
  int64_t ticks_per_step = 1000;
  bool emit_barriers = true;
};

EventLogWriter ExportSequenceAsEvents(const StreamingTensorSequence& stream,
                                      const EventExportOptions& options);

}  // namespace ingest
}  // namespace dismastd

#endif  // DISMASTD_INGEST_EVENT_LOG_H_
