#include "obs/flightrec.h"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace dismastd {
namespace obs {

namespace {

/// Shortest round-trip double, matching the metric registry's formatting.
std::string FormatDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  double parsed = 0.0;
  if (std::sscanf(buf, "%lf", &parsed) == 1 && parsed == value) {
    for (int precision = 1; precision < 17; ++precision) {
      char shorter[64];
      std::snprintf(shorter, sizeof(shorter), "%.*g", precision, value);
      if (std::sscanf(shorter, "%lf", &parsed) == 1 && parsed == value) {
        return shorter;
      }
    }
  }
  return buf;
}

std::string JsonEscape(const char* text) {
  std::string out;
  for (const char* p = text; *p != '\0'; ++p) {
    const char c = *p;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// The process-wide black box armed by InstallGlobal. The dump-once flag
// keeps the DISMASTD_CHECK hook and the SIGABRT handler (which fires right
// after it) from writing the file twice.
std::atomic<FlightRecorder*> g_recorder{nullptr};
char g_crash_path[512] = {0};
std::atomic<bool> g_dumped{false};
void (*g_prev_sigabrt)(int) = SIG_DFL;
bool g_sigabrt_armed = false;

void DumpGlobal(const char* reason) {
  FlightRecorder* recorder = g_recorder.load(std::memory_order_acquire);
  if (recorder == nullptr || g_crash_path[0] == '\0') return;
  if (g_dumped.exchange(true, std::memory_order_acq_rel)) return;
  const Status status = recorder->DumpFile(g_crash_path, reason);
  if (status.ok()) {
    std::fprintf(stderr, "flight recorder: dumped %llu frames to %s (%s)\n",
                 static_cast<unsigned long long>(
                     std::min<uint64_t>(recorder->frames_total(),
                                        FlightRecorder::kCapacity)),
                 g_crash_path, reason);
  }
}

void CheckFailureDump() { DumpGlobal("check_failed"); }

void SigabrtDump(int signum) {
  // Best effort: JSON assembly is not async-signal-safe, but the process
  // is dying anyway and a torn dump beats no dump.
  DumpGlobal("sigabrt");
  std::signal(signum, g_prev_sigabrt);
  std::raise(signum);
}

}  // namespace

void HealthFrame::SetLastAlert(const char* text) {
  std::strncpy(last_alert, text, sizeof(last_alert) - 1);
  last_alert[sizeof(last_alert) - 1] = '\0';
}

void FlightRecorder::NoteEvent(const char* what, uint64_t step) {
  notes_head_.fetch_add(1, std::memory_order_acq_rel);
  std::lock_guard<std::mutex> lock(notes_mutex_);
  for (Note& note : notes_) {
    if (note.count > 0 && std::strncmp(note.what, what,
                                       sizeof(note.what) - 1) == 0) {
      ++note.count;
      note.step = step;
      return;
    }
  }
  for (Note& note : notes_) {
    if (note.count == 0) {
      std::strncpy(note.what, what, sizeof(note.what) - 1);
      note.what[sizeof(note.what) - 1] = '\0';
      note.step = step;
      note.count = 1;
      return;
    }
  }
  // All slots taken by other kinds: drop (notes_total still counts it).
}

std::string FlightRecorder::ToJson(const char* reason) const {
  const std::vector<HealthFrame> frames = Frames();
  std::ostringstream os;
  os << "{\"schema\":\"dismastd-flight-v1\",\"reason\":\""
     << JsonEscape(reason) << "\",\"frames_total\":" << frames_total()
     << ",\"notes_total\":" << notes_total() << ",\"notes\":[";
  {
    std::lock_guard<std::mutex> lock(notes_mutex_);
    bool first = true;
    for (const Note& note : notes_) {
      if (note.count == 0) continue;
      if (!first) os << ",";
      first = false;
      os << "{\"what\":\"" << JsonEscape(note.what)
         << "\",\"step\":" << note.step << ",\"count\":" << note.count << "}";
    }
  }
  os << "],\"frames\":[";
  bool first = true;
  for (const HealthFrame& f : frames) {
    if (!first) os << ",";
    first = false;
    os << "{\"step\":" << f.step
       << ",\"sim_seconds_total\":" << FormatDouble(f.sim_seconds_total)
       << ",\"fit\":" << FormatDouble(f.fit)
       << ",\"load_imbalance\":" << FormatDouble(f.load_imbalance)
       << ",\"processed_nnz\":" << f.processed_nnz
       << ",\"comm_bytes\":" << f.comm_bytes
       << ",\"retransmitted_bytes\":" << f.retransmitted_bytes
       << ",\"crashes\":" << f.crashes
       << ",\"orphaned_messages\":" << f.orphaned_messages
       << ",\"num_workers\":" << f.num_workers
       << ",\"busy_seconds_max\":" << FormatDouble(f.busy_seconds_max)
       << ",\"busy_seconds_avg\":" << FormatDouble(f.busy_seconds_avg)
       << ",\"alerts_total\":" << f.alerts_total << ",\"last_alert\":\""
       << JsonEscape(f.last_alert)
       << "\",\"sim_base_seconds\":" << FormatDouble(f.sim_base_seconds)
       << ",\"trace_events\":" << f.trace_events << "}";
  }
  os << "]}\n";
  return os.str();
}

Status FlightRecorder::DumpFile(const std::string& path,
                                const char* reason) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << ToJson(reason);
  out.flush();
  if (!out) return Status::IoError("write to " + path + " failed");
  return Status::OK();
}

void FlightRecorder::InstallGlobal(FlightRecorder* recorder,
                                   const std::string& crash_path) {
  if (recorder == nullptr) {
    g_recorder.store(nullptr, std::memory_order_release);
    g_crash_path[0] = '\0';
    SetCheckFailureHook(nullptr);
    if (g_sigabrt_armed) {
      std::signal(SIGABRT, g_prev_sigabrt);
      g_sigabrt_armed = false;
    }
    g_dumped.store(false, std::memory_order_release);
    return;
  }
  std::strncpy(g_crash_path, crash_path.c_str(), sizeof(g_crash_path) - 1);
  g_crash_path[sizeof(g_crash_path) - 1] = '\0';
  g_dumped.store(false, std::memory_order_release);
  g_recorder.store(recorder, std::memory_order_release);
  SetCheckFailureHook(&CheckFailureDump);
  if (!g_sigabrt_armed) {
    g_prev_sigabrt = std::signal(SIGABRT, &SigabrtDump);
    g_sigabrt_armed = true;
  }
}

FlightRecorder* FlightRecorder::Global() {
  return g_recorder.load(std::memory_order_acquire);
}

}  // namespace obs
}  // namespace dismastd
