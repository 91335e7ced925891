#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/logging.h"
#include "common/string_util.h"

namespace dismastd {
namespace obs {

namespace {

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
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
        out += c;
    }
  }
  return out;
}

/// Microsecond timestamps with fixed millisecond-of-a-microsecond
/// precision: deterministic formatting is what makes sim-lane exports
/// byte-comparable across runs.
std::string FormatUs(double us) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", us);
  return buf;
}

void WriteMetadataEvent(std::ostream& out, bool* first, uint32_t pid,
                        int64_t tid, const char* meta_name,
                        const std::string& value) {
  if (!*first) out << ",\n";
  *first = false;
  out << "{\"ph\":\"M\",\"pid\":" << pid;
  if (tid >= 0) out << ",\"tid\":" << tid;
  out << ",\"name\":\"" << meta_name << "\",\"args\":{\"name\":\""
      << JsonEscape(value) << "\"}}";
}

}  // namespace

const char* TraceDetailName(TraceDetail detail) {
  switch (detail) {
    case TraceDetail::kSteps:
      return "steps";
    case TraceDetail::kPhases:
      return "phases";
    case TraceDetail::kWorkers:
      return "workers";
  }
  return "?";
}

Result<TraceDetail> ParseTraceDetail(const std::string& text) {
  const std::string token = AsciiLower(text);
  if (token == "steps") return TraceDetail::kSteps;
  if (token == "phases") return TraceDetail::kPhases;
  if (token == "workers") return TraceDetail::kWorkers;
  return Status::InvalidArgument("unknown trace detail '" + text +
                                 "' (expected steps, phases or workers)");
}

Tracer::Tracer(TraceDetail detail) : detail_(detail) {
  SetSimLaneName(kDriverLane, "driver");
}

void Tracer::Append(Event event) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (events_.size() >= kMaxEvents) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  events_.push_back(std::move(event));
}

void Tracer::BeginSim(uint32_t lane, const char* name, const char* category,
                      double start_seconds) {
  BeginSim(lane, name, category, start_seconds, {});
}

void Tracer::BeginSim(
    uint32_t lane, const char* name, const char* category,
    double start_seconds,
    std::vector<std::pair<std::string, std::string>> args) {
  Event event;
  event.phase = 'B';
  event.pid = kSimPid;
  event.tid = lane;
  event.ts_us = (sim_base_seconds_ + start_seconds) * 1e6;
  event.name = name;
  event.category = category;
  event.args = std::move(args);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sim_open_spans_[lane].push_back(event.ts_us);
  }
  Append(std::move(event));
}

void Tracer::EndSim(uint32_t lane, double end_seconds) {
  Event event;
  event.phase = 'E';
  event.pid = kSimPid;
  event.tid = lane;
  event.ts_us = (sim_base_seconds_ + end_seconds) * 1e6;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& stack = sim_open_spans_[lane];
    if (!stack.empty()) {
      const double dur_us = event.ts_us - stack.back();
      stack.pop_back();
      durations_.Record(
          dur_us > 0.0 ? static_cast<uint64_t>(dur_us * 1e3) : 0);
    }
  }
  Append(std::move(event));
}

void Tracer::InstantSim(
    uint32_t lane, const char* name, const char* category, double at_seconds,
    std::vector<std::pair<std::string, std::string>> args) {
  Event event;
  event.phase = 'i';
  event.pid = kSimPid;
  event.tid = lane;
  event.ts_us = (sim_base_seconds_ + at_seconds) * 1e6;
  event.name = name;
  event.category = category;
  event.args = std::move(args);
  Append(std::move(event));
}

void Tracer::SetSimLaneName(uint32_t lane, const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  sim_lane_names_.emplace(lane, name);
}

void Tracer::AdvanceSimBase(double seconds) { sim_base_seconds_ += seconds; }

uint32_t Tracer::WallLaneForThisThread(const char* lane_name) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto id = std::this_thread::get_id();
  auto it = wall_lanes_.find(id);
  if (it != wall_lanes_.end()) return it->second;
  const uint32_t lane = static_cast<uint32_t>(wall_lanes_.size());
  wall_lanes_.emplace(id, lane);
  std::string name = lane_name;
  // Several threads may share a logical name ("serve"); suffix a per-lane
  // ordinal so Perfetto shows them as distinct tracks.
  name += " #" + std::to_string(lane);
  wall_lane_names_.emplace(lane, std::move(name));
  return lane;
}

void Tracer::RegisterWallLane(const char* lane_name) {
  (void)WallLaneForThisThread(lane_name);
}

void Tracer::AddWallSpan(const char* name, const char* category,
                         double start_seconds, double end_seconds,
                         const char* lane_name) {
  Event event;
  event.phase = 'X';
  event.pid = kWallPid;
  event.tid = WallLaneForThisThread(lane_name);
  event.ts_us = start_seconds * 1e6;
  event.dur_us = std::max(0.0, end_seconds - start_seconds) * 1e6;
  event.name = name;
  event.category = category;
  durations_.Record(static_cast<uint64_t>(event.dur_us * 1e3));
  Append(std::move(event));
}

uint64_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

void Tracer::WriteChromeTrace(std::ostream& out, bool include_wall) const {
  std::lock_guard<std::mutex> lock(mutex_);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  WriteMetadataEvent(out, &first, kSimPid, -1, "process_name",
                     "sim (BSP cluster)");
  for (const auto& [lane, name] : sim_lane_names_) {
    WriteMetadataEvent(out, &first, kSimPid, static_cast<int64_t>(lane),
                       "thread_name", name);
  }
  if (include_wall) {
    WriteMetadataEvent(out, &first, kWallPid, -1, "process_name",
                       "wall clock");
    for (const auto& [lane, name] : wall_lane_names_) {
      WriteMetadataEvent(out, &first, kWallPid, static_cast<int64_t>(lane),
                         "thread_name", name);
    }
  }
  for (const Event& event : events_) {
    if (!include_wall && event.pid == kWallPid) continue;
    if (!first) out << ",\n";
    first = false;
    out << "{\"ph\":\"" << event.phase << "\",\"pid\":" << event.pid
        << ",\"tid\":" << event.tid << ",\"ts\":" << FormatUs(event.ts_us);
    if (event.phase == 'X') {
      out << ",\"dur\":" << FormatUs(event.dur_us);
    }
    if (event.phase == 'i') {
      out << ",\"s\":\"t\"";  // thread-scoped instant marker
    }
    if (!event.name.empty()) {
      out << ",\"name\":\"" << JsonEscape(event.name) << "\"";
    }
    if (!event.category.empty()) {
      out << ",\"cat\":\"" << JsonEscape(event.category) << "\"";
    }
    if (!event.args.empty()) {
      out << ",\"args\":{";
      bool first_arg = true;
      for (const auto& [key, value] : event.args) {
        if (!first_arg) out << ",";
        first_arg = false;
        out << "\"" << JsonEscape(key) << "\":\"" << JsonEscape(value)
            << "\"";
      }
      out << "}";
    }
    out << "}";
  }
  out << "\n]}\n";
}

std::string Tracer::ToChromeTraceJson(bool include_wall) const {
  std::ostringstream os;
  WriteChromeTrace(os, include_wall);
  return os.str();
}

Status Tracer::WriteChromeTraceFile(const std::string& path,
                                    bool include_wall) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  WriteChromeTrace(out, include_wall);
  out.flush();
  if (!out) return Status::IoError("write to " + path + " failed");
  return Status::OK();
}

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
  sim_lane_names_.clear();
  sim_lane_names_.emplace(kDriverLane, "driver");
  wall_lanes_.clear();
  wall_lane_names_.clear();
  sim_open_spans_.clear();
  sim_base_seconds_ = 0.0;
  dropped_.store(0, std::memory_order_relaxed);
  durations_.Reset();
}

}  // namespace obs
}  // namespace dismastd
