// The exact-serialization primitives (common/serialize.hpp) on their own:
// hexfloat round trips through the IEEE-754 edge cases, and the strictness
// of parse_double_exact (whitespace, embedded NULs, garbage, long tokens),
// and the integer hexfloat codec against libc's %a and strtod as oracles.
#include "common/serialize.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
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

// -- The integer codec against libc -----------------------------------------

std::string libc_hexfloat(double value) {
  char buffer[64];
  const int length = std::snprintf(buffer, sizeof buffer, "%a", value);
  return std::string(buffer, static_cast<std::size_t>(length));
}

double libc_strtod(const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  EXPECT_EQ(end, text.c_str() + text.size()) << text;
  return value;
}

/// Writes libc's %a text and reads back strtod's bits, for one finite value.
void expect_codec_matches_libc(double value) {
  const std::string text = format_double_exact(value);
  ASSERT_EQ(text, libc_hexfloat(value))
      << std::bit_cast<std::uint64_t>(value);
  ASSERT_TRUE(same_bits(parse_double_exact(text), libc_strtod(text)))
      << text;
  ASSERT_TRUE(same_bits(parse_double_exact(text), value)) << text;
}

TEST(SerializeCodec, MatchesLibcOnSeededRandomBitPatterns) {
  std::mt19937_64 rng(20041025);
  constexpr std::uint64_t kMantissa = (std::uint64_t{1} << 52) - 1;
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  for (int draw = 0; draw < 200000; ++draw) {
    const std::uint64_t random = rng();
    const std::uint64_t sign = random & kSign;
    // Four shapes: any bits, a subnormal, a normal whose mantissa ends in a
    // random run of zero digits (the stripping), and the exponent extremes.
    std::uint64_t bits = 0;
    switch (draw % 4) {
      case 0:
        bits = random;
        break;
      case 1:
        bits = sign | (rng() & kMantissa);
        break;
      case 2: {
        const int zero_digits = static_cast<int>(rng() % 14);
        const std::uint64_t mantissa =
            zero_digits == 13 ? 0 : (rng() & kMantissa) >> (4 * zero_digits)
                                                     << (4 * zero_digits);
        bits = sign | (rng() % 2046 + 1) << 52 | mantissa;
        break;
      }
      default: {
        const std::uint64_t exponent = rng() % 2 ? 1 : 2046;
        bits = sign | exponent << 52 | (rng() & kMantissa);
        break;
      }
    }
    const double value = std::bit_cast<double>(bits);
    if (!std::isfinite(value)) continue;
    expect_codec_matches_libc(value);
  }
}

TEST(SerializeCodec, MatchesLibcAtTheEdges) {
  const double edges[] = {0.0,
                          -0.0,
                          1.0,
                          -1.0,
                          0.5,
                          2.0,
                          std::numeric_limits<double>::denorm_min(),
                          -std::numeric_limits<double>::denorm_min(),
                          std::nextafter(DBL_MIN, 0.0),
                          DBL_MIN,
                          -DBL_MIN,
                          DBL_MAX,
                          -DBL_MAX,
                          std::nextafter(1.0, 2.0),
                          std::nextafter(1.0, 0.0),
                          0.1,
                          1e-9,
                          1e300,
                          86400.0 * 31};
  for (const double value : edges) expect_codec_matches_libc(value);
  EXPECT_EQ(format_double_exact(0.0), "0x0p+0");
  EXPECT_EQ(format_double_exact(-0.0), "-0x0p+0");
  EXPECT_EQ(format_double_exact(1.5), "0x1.8p+0");
  EXPECT_EQ(format_double_exact(std::numeric_limits<double>::denorm_min()),
            "0x0.0000000000001p-1022");
}

TEST(SerializeCodec, NonCanonicalTextParsesAsStrtodParsesIt) {
  const char* texts[] = {"0X1P+0",
                         "+0x1p+0",
                         "0x1.p+0",
                         "1.5",
                         "-2.25e3",
                         "0x1p-1074",
                         "0x1p-1023",
                         "0x1p+1024",
                         "0x1",
                         "-0x1.",
                         "0x1.00000000000008p+0",
                         "0x1.fffffffffffff8p+0",
                         "0x1.8P+1",
                         "0x1.8p1",
                         "0x1.8p+00001",
                         "0x1.8p+10000",
                         "0x1.8p-99999",
                         "0x2p+0",
                         "0x0.8p+0",
                         "0x0.0000000000001p-1021",
                         "0x1.ABCp+0",
                         "0x00p+0",
                         "-0x0.fffffffffffffp-1022",
                         "nan",
                         "-inf",
                         "inf"};
  for (const std::string text : texts) {
    SCOPED_TRACE(text);
    EXPECT_TRUE(same_bits(parse_double_exact(text), libc_strtod(text)));
  }
}

TEST(SerializeCodec, MalformedTextKeepsItsMessage) {
  const char* texts[] = {"0x",       "0x1.8p",    "0x1.8p+",  "0x1.8q+0",
                         "0x1.8p+1x", "0x1.g",     "--0x1p+0", "0x1.8p+-1",
                         "0x1.8 p+0", "0x1p+0\n", "-"};
  for (const std::string text : texts) {
    SCOPED_TRACE(text);
    char* end = nullptr;
    std::strtod(text.c_str(), &end);
    ASSERT_NE(end, text.c_str() + text.size()) << "libc accepts it";
    try {
      parse_double_exact(text);
      ADD_FAILURE() << "accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "malformed number '" + text + "'");
    }
  }
  try {
    parse_double_exact("");
    ADD_FAILURE() << "accepted the empty field";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "empty number field");
  }
}

}  // namespace
}  // namespace tscclock
