#ifndef DISMASTD_OBS_FLIGHTREC_H_
#define DISMASTD_OBS_FLIGHTREC_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/health.h"
#include "obs/seqlock_ring.h"

namespace dismastd {
namespace obs {

/// One compact per-step health frame: the key gauges of a stream step,
/// the alert high-water mark, and the trace-time anchor of the step's
/// span (sim-base seconds + tracer event count), enough to line a frame
/// up with the Perfetto timeline post mortem. Trivially copyable and
/// fixed-size so recording never allocates.
struct HealthFrame {
  uint64_t step = 0;
  double sim_seconds_total = 0.0;
  double fit = 0.0;
  double load_imbalance = 0.0;
  uint64_t processed_nnz = 0;
  uint64_t comm_bytes = 0;
  uint64_t retransmitted_bytes = 0;
  uint64_t crashes = 0;
  uint64_t orphaned_messages = 0;
  uint32_t num_workers = 0;
  double busy_seconds_max = 0.0;
  double busy_seconds_avg = 0.0;
  /// Alert-ring total at frame time plus the most recent rule name, so a
  /// post-mortem shows which alerts were live at each step.
  uint64_t alerts_total = 0;
  char last_alert[48] = {0};
  /// Trace anchor: the step span on the driver sim lane ends at
  /// `sim_base_seconds` and the tracer held `trace_events` events.
  double sim_base_seconds = 0.0;
  uint64_t trace_events = 0;

  void SetLastAlert(const char* text);
};
static_assert(std::is_trivially_copyable<HealthFrame>::value,
              "HealthFrame must stay POD: it crosses the lock-free ring");

/// Always-on black box: a bounded ring of the most recent HealthFrames,
/// dumped as JSON on crash recovery, orphaned-message leaks, a failed
/// DISMASTD_CHECK / SIGABRT, or at exit (`--flight-out`). Recording is
/// lock-free and allocation-free (the SeqlockRing AlertRing also uses), so
/// it is cheap enough to leave on for every run.
class FlightRecorder {
 public:
  static constexpr size_t kCapacity = 128;

  void RecordFrame(const HealthFrame& frame) { frames_.Push(frame); }
  /// Notes an anomaly ("crash_recovery", "orphaned_messages",
  /// "check_failed", ...) with the step it happened at; the last few notes
  /// appear in the dump with their occurrence counts.
  void NoteEvent(const char* what, uint64_t step);

  uint64_t frames_total() const { return frames_.total(); }
  uint64_t notes_total() const {
    return notes_head_.load(std::memory_order_acquire);
  }
  std::vector<HealthFrame> Frames() const { return frames_.Snapshot(); }

  /// The dump: {"schema":"dismastd-flight-v1","reason":...,"notes":[...],
  /// "frames":[...]}, frames oldest first.
  std::string ToJson(const char* reason) const;
  Status DumpFile(const std::string& path, const char* reason) const;

  /// Installs `recorder` as the process-wide black box and arms the crash
  /// paths: a failed DISMASTD_CHECK (via SetCheckFailureHook) and SIGABRT
  /// both best-effort dump to `crash_path` before the process dies.
  /// Passing nullptr disarms both and restores the previous SIGABRT
  /// handler.
  static void InstallGlobal(FlightRecorder* recorder,
                            const std::string& crash_path);
  static FlightRecorder* Global();

 private:
  struct Note {
    char what[32] = {0};
    uint64_t step = 0;
    uint64_t count = 0;
  };
  static constexpr size_t kMaxNotes = 8;

  SeqlockRing<HealthFrame, kCapacity> frames_;

  mutable std::mutex notes_mutex_;
  std::array<Note, kMaxNotes> notes_;
  std::atomic<uint64_t> notes_head_{0};
};

}  // namespace obs
}  // namespace dismastd

#endif  // DISMASTD_OBS_FLIGHTREC_H_
