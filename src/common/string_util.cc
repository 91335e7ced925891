#include "common/string_util.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace dismastd {

std::vector<std::string> SplitString(std::string_view input, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= input.size(); ++i) {
    if (i == input.size() || input[i] == delim) {
      out.emplace_back(input.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view TrimWhitespace(std::string_view input) {
  size_t begin = 0;
  size_t end = input.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(input[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(input[end - 1]))) {
    --end;
  }
  return input.substr(begin, end - begin);
}

Status ParseU64(std::string_view input, uint64_t* out) {
  input = TrimWhitespace(input);
  if (input.empty()) return Status::InvalidArgument("empty integer");
  uint64_t value = 0;
  for (char c : input) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument("invalid integer: " + std::string(input));
    }
    const uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) {
      return Status::OutOfRange("integer overflow: " + std::string(input));
    }
    value = value * 10 + digit;
  }
  *out = value;
  return Status::OK();
}

Status ParseI64(std::string_view input, int64_t* out) {
  input = TrimWhitespace(input);
  const bool negative = !input.empty() && input[0] == '-';
  const std::string_view digits = negative ? input.substr(1) : input;
  if (digits.empty() || digits[0] < '0' || digits[0] > '9') {
    return Status::InvalidArgument("invalid integer: " + std::string(input));
  }
  uint64_t magnitude = 0;
  const Status parsed = ParseU64(digits, &magnitude);
  if (!parsed.ok()) {
    return parsed.code() == StatusCode::kOutOfRange
               ? Status::OutOfRange("integer overflow: " + std::string(input))
               : Status::InvalidArgument("invalid integer: " +
                                         std::string(input));
  }
  const uint64_t limit =
      static_cast<uint64_t>(INT64_MAX) + (negative ? 1 : 0);
  if (magnitude > limit) {
    return Status::OutOfRange("integer overflow: " + std::string(input));
  }
  *out = negative ? static_cast<int64_t>(0 - magnitude)
                  : static_cast<int64_t>(magnitude);
  return Status::OK();
}

Status ParseDouble(std::string_view input, double* out) {
  input = TrimWhitespace(input);
  if (input.empty()) return Status::InvalidArgument("empty double");
  std::string buf(input);
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(buf.c_str(), &end);
  if (errno != 0 || end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("invalid double: " + buf);
  }
  *out = value;
  return Status::OK();
}

std::string AsciiLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

std::string FormatWithCommas(uint64_t value) {
  std::string digits = std::to_string(value);
  std::string out;
  const size_t n = digits.size();
  for (size_t i = 0; i < n; ++i) {
    if (i > 0 && (n - i) % 3 == 0) out.push_back(',');
    out.push_back(digits[i]);
  }
  return out;
}

std::string FormatBytes(uint64_t bytes) {
  static const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double value = static_cast<double>(bytes);
  int unit = 0;
  while (value >= 1024.0 && unit < 4) {
    value /= 1024.0;
    ++unit;
  }
  char buf[32];
  if (unit == 0) {
    std::snprintf(buf, sizeof(buf), "%llu B",
                  static_cast<unsigned long long>(bytes));
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f %s", value, kUnits[unit]);
  }
  return buf;
}

}  // namespace dismastd
