#include "obs/metrics.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/logging.h"

namespace dismastd {
namespace obs {

namespace {

bool ValidMetricName(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    const bool ok = std::isalnum(static_cast<unsigned char>(c)) != 0 ||
                    c == '_' || c == ':';
    if (!ok) return false;
  }
  return std::isdigit(static_cast<unsigned char>(name[0])) == 0;
}

std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    if (c == '\\' || c == '"') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// Escapes `# HELP` text per the 0.0.4 exposition format: backslash and
/// newline only (double quotes are legal in help text). Without this, a
/// help string containing a newline splits the family header and breaks
/// every scraper.
std::string EscapeHelpText(const std::string& help) {
  std::string out;
  out.reserve(help.size());
  for (char c : help) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// Shortest decimal that round-trips a double; integral values print
/// without an exponent so counters exposed as gauges stay readable.
std::string FormatValue(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  double parsed = 0.0;
  for (int precision = 1; precision < 17; ++precision) {
    char trial[64];
    std::snprintf(trial, sizeof(trial), "%.*g", precision, value);
    if (std::sscanf(trial, "%lf", &parsed) == 1 && parsed == value) {
      return trial;
    }
  }
  return buf;
}

}  // namespace

std::string RenderLabels(const LabelSet& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    out += key + "=\"" + EscapeLabelValue(value) + "\"";
    first = false;
  }
  out += "}";
  return out;
}

MetricRegistry::Series* MetricRegistry::GetOrCreate(Kind kind,
                                                    const std::string& name,
                                                    const LabelSet& labels,
                                                    const std::string& help) {
  DISMASTD_CHECK(ValidMetricName(name));
  LabelSet sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  const std::string key = name + RenderLabels(sorted);

  std::lock_guard<std::mutex> lock(mutex_);
  auto it = series_.find(key);
  if (it != series_.end()) {
    DISMASTD_CHECK(it->second.kind == kind);
    return &it->second;
  }
  Series series;
  series.kind = kind;
  series.name = name;
  series.labels = std::move(sorted);
  series.help = help;
  switch (kind) {
    case Kind::kCounter:
      series.counter = std::make_unique<Counter>();
      break;
    case Kind::kGauge:
      series.gauge = std::make_unique<Gauge>();
      break;
    case Kind::kHistogram:
      series.histogram = std::make_unique<Pow2Histogram>();
      break;
  }
  return &series_.emplace(key, std::move(series)).first->second;
}

Counter* MetricRegistry::GetCounter(const std::string& name,
                                    const LabelSet& labels,
                                    const std::string& help) {
  return GetOrCreate(Kind::kCounter, name, labels, help)->counter.get();
}

Gauge* MetricRegistry::GetGauge(const std::string& name,
                                const LabelSet& labels,
                                const std::string& help) {
  return GetOrCreate(Kind::kGauge, name, labels, help)->gauge.get();
}

Pow2Histogram* MetricRegistry::GetHistogram(const std::string& name,
                                            const LabelSet& labels,
                                            const std::string& help) {
  return GetOrCreate(Kind::kHistogram, name, labels, help)->histogram.get();
}

size_t MetricRegistry::NumSeries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return series_.size();
}

std::string MetricRegistry::ExposePrometheus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  std::string last_family;
  for (const auto& [key, series] : series_) {
    if (series.name != last_family) {
      last_family = series.name;
      if (!series.help.empty()) {
        os << "# HELP " << series.name << " " << EscapeHelpText(series.help)
           << "\n";
      }
      const char* type = series.kind == Kind::kCounter ? "counter"
                         : series.kind == Kind::kGauge ? "gauge"
                                                       : "histogram";
      os << "# TYPE " << series.name << " " << type << "\n";
    }
    const std::string labels = RenderLabels(series.labels);
    switch (series.kind) {
      case Kind::kCounter:
        os << series.name << labels << " " << series.counter->Value() << "\n";
        break;
      case Kind::kGauge:
        os << series.name << labels << " "
           << FormatValue(series.gauge->Value()) << "\n";
        break;
      case Kind::kHistogram: {
        const Pow2Histogram& h = *series.histogram;
        // Cumulative buckets up to the highest non-empty one, then +Inf.
        LabelSet bucket_labels = series.labels;
        bucket_labels.emplace_back("le", "");
        uint64_t cumulative = 0;
        const size_t used = h.UsedBuckets();
        for (size_t b = 0; b < used; ++b) {
          cumulative += h.BucketCount(b);
          bucket_labels.back().second =
              FormatValue(Pow2Histogram::BucketUpperBound(b));
          os << series.name << "_bucket" << RenderLabels(bucket_labels)
             << " " << cumulative << "\n";
        }
        bucket_labels.back().second = "+Inf";
        os << series.name << "_bucket" << RenderLabels(bucket_labels) << " "
           << h.Count() << "\n";
        os << series.name << "_sum" << labels << " " << h.Total() << "\n";
        os << series.name << "_count" << labels << " " << h.Count() << "\n";
        break;
      }
    }
  }
  return os.str();
}

Status MetricRegistry::WritePrometheusFile(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << ExposePrometheus();
  out.flush();
  if (!out) return Status::IoError("write to " + path + " failed");
  return Status::OK();
}

}  // namespace obs
}  // namespace dismastd
