#ifndef DISMASTD_COMMON_STRING_UTIL_H_
#define DISMASTD_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace dismastd {

/// Splits `input` on `delim`, keeping empty fields.
std::vector<std::string> SplitString(std::string_view input, char delim);

/// Trims ASCII whitespace from both ends.
std::string_view TrimWhitespace(std::string_view input);

/// Parses a non-negative integer; fails on garbage or overflow.
Status ParseU64(std::string_view input, uint64_t* out);

/// Parses a signed integer (optional leading '-'); fails on garbage,
/// fractions and values outside int64_t.
Status ParseI64(std::string_view input, int64_t* out);

/// Parses a double; fails on garbage.
Status ParseDouble(std::string_view input, double* out);

/// ASCII-only lower-casing (locale-independent), for case-insensitive
/// option and name matching.
std::string AsciiLower(std::string_view text);

/// One spelling a table-driven enum parser accepts (lower-case ASCII).
template <typename E>
struct EnumToken {
  std::string_view token;
  E value;
};

/// The one enum-parsing rule behind every `Parse<Enum>`: matches `text`
/// case-insensitively against `table`'s tokens and returns the value of
/// the first match. On a miss: "unknown <what> '<text>' (expected <every
/// token, in table order>)".
template <typename E>
Result<E> ParseEnumToken(std::string_view text, std::string_view what,
                         std::span<const EnumToken<E>> table) {
  const std::string token = AsciiLower(text);
  std::string expected;
  for (const EnumToken<E>& entry : table) {
    if (token == entry.token) return entry.value;
    if (!expected.empty()) expected += ", ";
    expected += entry.token;
  }
  return Status::InvalidArgument("unknown " + std::string(what) + " '" +
                                 std::string(text) + "' (expected " +
                                 expected + ")");
}

/// Formats with thousands separators, e.g. 1234567 -> "1,234,567".
std::string FormatWithCommas(uint64_t value);

/// Human-readable byte count, e.g. "1.5 MiB".
std::string FormatBytes(uint64_t bytes);

}  // namespace dismastd

#endif  // DISMASTD_COMMON_STRING_UTIL_H_
