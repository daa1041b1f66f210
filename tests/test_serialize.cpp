// The exact-serialization primitives (common/serialize.hpp) on their own:
// hexfloat round trips through the IEEE-754 edge cases, and the strictness
// of parse_double_exact (whitespace, embedded NULs, garbage, long tokens).
#include "common/serialize.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

namespace tscclock {
namespace {

bool same_bits(double a, double b) {
  std::uint64_t ba = 0, bb = 0;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

TEST(Serialize, DoubleRoundTripIsBitExactAtTheEdges) {
  const double edges[] = {0.0,
                          -0.0,
                          std::numeric_limits<double>::denorm_min(),
                          -std::numeric_limits<double>::denorm_min(),
                          DBL_MAX,
                          -DBL_MAX,
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN(),
                          0.1,
                          1.000000013e-9};
  for (const double value : edges) {
    const std::string text = format_double_exact(value);
    SCOPED_TRACE(text);
    EXPECT_TRUE(same_bits(parse_double_exact(text), value));
    // The in-place appender writes the same text after what is there.
    std::string appended = "x\t";
    append_double_exact(appended, value);
    EXPECT_EQ(appended, "x\t" + text);
  }
  EXPECT_EQ(format_double_exact(std::numeric_limits<double>::infinity()),
            "inf");
  EXPECT_EQ(format_double_exact(-std::numeric_limits<double>::infinity()),
            "-inf");
  EXPECT_EQ(format_double_exact(std::numeric_limits<double>::quiet_NaN()),
            "nan");
}

TEST(Serialize, AcceptsPlainDecimal) {
  EXPECT_TRUE(same_bits(parse_double_exact("1.5"), 1.5));
  EXPECT_TRUE(same_bits(parse_double_exact("-0.25"), -0.25));
  EXPECT_TRUE(same_bits(parse_double_exact("1e-9"), 1e-9));
}

TEST(Serialize, AcceptsLongDecimalPastTheStackCopy) {
  // 100 characters: longer than the parser's stack copy, so this takes the
  // heap path and must still parse the whole token.
  const std::string text = "1." + std::string(97, '0') + "5";
  ASSERT_EQ(text.size(), 100u);
  EXPECT_TRUE(same_bits(parse_double_exact(text), 1.0));
  // Either side of the stack/heap boundary.
  for (const std::size_t size : {63u, 64u}) {
    const std::string edge = "2." + std::string(size - 2, '0');
    ASSERT_EQ(edge.size(), size);
    EXPECT_TRUE(same_bits(parse_double_exact(edge), 2.0)) << size;
  }
}

TEST(Serialize, RefusesLongGarbage) {
  EXPECT_THROW(parse_double_exact(std::string(80, 'z')), std::runtime_error);
  EXPECT_THROW(parse_double_exact("1." + std::string(97, '0') + "x"),
               std::runtime_error);
}

TEST(Serialize, RefusesEmbeddedNul) {
  const std::string text("1.5\0" "7", 5);
  ASSERT_EQ(text.size(), 5u);
  EXPECT_THROW(parse_double_exact(text), std::runtime_error);
  EXPECT_THROW(parse_double_exact(std::string("\0" "1", 2)),
               std::runtime_error);
}

TEST(Serialize, RefusesLeadingAndTrailingWhitespace) {
  EXPECT_THROW(parse_double_exact(" 0x1p+0"), std::runtime_error);
  EXPECT_THROW(parse_double_exact("\t1.5"), std::runtime_error);
  EXPECT_THROW(parse_double_exact("\n1.5"), std::runtime_error);
  EXPECT_THROW(parse_double_exact("0x1p+0 "), std::runtime_error);
  EXPECT_THROW(parse_double_exact("1.5\t"), std::runtime_error);
  try {
    parse_double_exact(" 0x1p+0");
    FAIL() << "leading space accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "malformed number ' 0x1p+0'");
  }
}

TEST(Serialize, RefusesEmptyAndUnconvertible) {
  EXPECT_THROW(parse_double_exact(""), std::runtime_error);
  EXPECT_THROW(parse_double_exact("x"), std::runtime_error);
  EXPECT_THROW(parse_double_exact("1.5x"), std::runtime_error);
}

}  // namespace
}  // namespace tscclock
