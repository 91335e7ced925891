#include "common/string_util.h"

#include <gtest/gtest.h>

namespace dismastd {
namespace {

TEST(SplitStringTest, BasicSplit) {
  const auto parts = SplitString("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitStringTest, KeepsEmptyFields) {
  const auto parts = SplitString(",x,,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "x");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "");
}

TEST(SplitStringTest, EmptyInputYieldsOneEmptyField) {
  const auto parts = SplitString("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(TrimWhitespaceTest, TrimsBothEnds) {
  EXPECT_EQ(TrimWhitespace("  hi \t\n"), "hi");
  EXPECT_EQ(TrimWhitespace("hi"), "hi");
  EXPECT_EQ(TrimWhitespace("   "), "");
  EXPECT_EQ(TrimWhitespace(""), "");
}

TEST(ParseU64Test, ParsesValidIntegers) {
  uint64_t v = 0;
  ASSERT_TRUE(ParseU64("0", &v).ok());
  EXPECT_EQ(v, 0u);
  ASSERT_TRUE(ParseU64(" 123 ", &v).ok());
  EXPECT_EQ(v, 123u);
  ASSERT_TRUE(ParseU64("18446744073709551615", &v).ok());
  EXPECT_EQ(v, UINT64_MAX);
}

TEST(ParseU64Test, RejectsGarbage) {
  uint64_t v = 0;
  EXPECT_FALSE(ParseU64("", &v).ok());
  EXPECT_FALSE(ParseU64("-1", &v).ok());
  EXPECT_FALSE(ParseU64("12x", &v).ok());
  EXPECT_FALSE(ParseU64("1.5", &v).ok());
}

TEST(ParseU64Test, RejectsOverflow) {
  uint64_t v = 0;
  const Status s = ParseU64("18446744073709551616", &v);  // 2^64
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
}

TEST(ParseI64Test, ParsesSignedIntegers) {
  int64_t v = 0;
  ASSERT_TRUE(ParseI64("0", &v).ok());
  EXPECT_EQ(v, 0);
  ASSERT_TRUE(ParseI64(" 42 ", &v).ok());
  EXPECT_EQ(v, 42);
  ASSERT_TRUE(ParseI64("-1", &v).ok());
  EXPECT_EQ(v, -1);
  ASSERT_TRUE(ParseI64("9223372036854775807", &v).ok());
  EXPECT_EQ(v, INT64_MAX);
  ASSERT_TRUE(ParseI64("-9223372036854775808", &v).ok());
  EXPECT_EQ(v, INT64_MIN);
}

TEST(ParseI64Test, RejectsGarbageFractionsAndNonFinite) {
  int64_t v = 7;
  for (const char* bad : {"", "-", "- 1", "+1", "2.9", "-0.5", "1e3", "nan",
                          "inf", "0x10", "12x"}) {
    EXPECT_EQ(ParseI64(bad, &v).code(), StatusCode::kInvalidArgument)
        << "'" << bad << "'";
  }
  EXPECT_EQ(v, 7);  // untouched on failure
}

TEST(ParseI64Test, RejectsOverflow) {
  int64_t v = 0;
  for (const char* big : {"9223372036854775808", "-9223372036854775809",
                          "18446744073709551616", "-99999999999999999999"}) {
    EXPECT_EQ(ParseI64(big, &v).code(), StatusCode::kOutOfRange) << big;
  }
}

TEST(AsciiLowerTest, LowersAsciiLettersOnly) {
  EXPECT_EQ(AsciiLower("Drop-OLDEST_1"), "drop-oldest_1");
  EXPECT_EQ(AsciiLower(""), "");
  EXPECT_EQ(AsciiLower("\xC3\x89t\xC3\xA9"), "\xC3\x89t\xC3\xA9");
}

TEST(ParseDoubleTest, ParsesValidDoubles) {
  double v = 0.0;
  ASSERT_TRUE(ParseDouble("3.5", &v).ok());
  EXPECT_DOUBLE_EQ(v, 3.5);
  ASSERT_TRUE(ParseDouble("-1e-3", &v).ok());
  EXPECT_DOUBLE_EQ(v, -1e-3);
}

TEST(ParseDoubleTest, RejectsGarbage) {
  double v = 0.0;
  EXPECT_FALSE(ParseDouble("", &v).ok());
  EXPECT_FALSE(ParseDouble("abc", &v).ok());
  EXPECT_FALSE(ParseDouble("1.5zzz", &v).ok());
}

TEST(FormatWithCommasTest, GroupsThousands) {
  EXPECT_EQ(FormatWithCommas(0), "0");
  EXPECT_EQ(FormatWithCommas(999), "999");
  EXPECT_EQ(FormatWithCommas(1000), "1,000");
  EXPECT_EQ(FormatWithCommas(1234567), "1,234,567");
}

TEST(FormatBytesTest, PicksUnits) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(2048), "2.0 KiB");
  EXPECT_EQ(FormatBytes(1536 * 1024), "1.5 MiB");
}

}  // namespace
}  // namespace dismastd
