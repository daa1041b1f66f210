#include "common/serialize.hpp"

#include <array>
#include <bit>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace tscclock {

namespace {

constexpr int kMantissaBits = 52;
constexpr int kMantissaDigits = kMantissaBits / 4;  // hex digits after the dot
constexpr int kExponentBias = 1023;
constexpr int kMinNormalExponent = 1 - kExponentBias;  // also the subnormals'
constexpr std::uint64_t kMantissaMask = (std::uint64_t{1} << kMantissaBits) - 1;
constexpr std::uint64_t kSignBit = std::uint64_t{1} << 63;

/// Each byte's value as a lowercase hex digit (the only case %a writes), or
/// -1: a table, because digits and letters mix at random in a mantissa and
/// a compare chain mispredicts on them.
constexpr std::array<std::int8_t, 256> kHexDigitValue = [] {
  std::array<std::int8_t, 256> table{};
  table.fill(-1);
  for (int c = '0'; c <= '9'; ++c) table[c] = static_cast<std::int8_t>(c - '0');
  for (int c = 'a'; c <= 'f'; ++c)
    table[c] = static_cast<std::int8_t>(c - 'a' + 10);
  return table;
}();

int hex_digit_value(char c) {
  return kHexDigitValue[static_cast<unsigned char>(c)];
}

/// parse_double_exact's fast path: the text append_double_exact writes for
/// a finite value, decoded from its digits with integer arithmetic only —
/// `[-]0x1[.h{1,13}]p±d{1,4}` with the exponent in the normal range, and
/// `[-]0x0[.h{1,13}]p±d{1,4}` holding zero or a subnormal at p-1022. Every
/// string it accepts denotes an exactly representable double, so the bits
/// are the ones strtod returns. Returns false on any other text (decimal,
/// uppercase, a leading '+', more digits, other exponents, nan/inf), which
/// the caller then hands to strtod.
bool parse_canonical_hexfloat(std::string_view text, double& value) {
  const bool negative = text.starts_with('-');
  std::size_t i = negative ? 1 : 0;
  if (text.size() < i + 3 || text[i] != '0' || text[i + 1] != 'x') return false;
  const char lead = text[i + 2];
  if (lead != '0' && lead != '1') return false;
  i += 3;
  std::uint64_t mantissa = 0;
  if (i < text.size() && text[i] == '.') {
    int digits = 0;
    for (++i; i < text.size() && digits < kMantissaDigits; ++i, ++digits) {
      const int digit = hex_digit_value(text[i]);
      if (digit < 0) break;
      mantissa = mantissa << 4 | static_cast<std::uint64_t>(digit);
    }
    if (digits == 0) return false;
    mantissa <<= 4 * (kMantissaDigits - digits);
  }
  // A 14th mantissa digit lands here instead of the 'p' and is refused.
  if (text.size() < i + 3 || text[i] != 'p') return false;
  const char sign = text[i + 1];
  if (sign != '+' && sign != '-') return false;
  i += 2;
  if (text.size() - i > 4) return false;
  int exponent = 0;
  for (; i < text.size(); ++i) {
    if (text[i] < '0' || text[i] > '9') return false;
    exponent = exponent * 10 + (text[i] - '0');
  }
  if (sign == '-') exponent = -exponent;

  std::uint64_t bits = mantissa;
  if (lead == '1') {
    if (exponent < kMinNormalExponent || exponent > kExponentBias) {
      return false;
    }
    bits |= static_cast<std::uint64_t>(exponent + kExponentBias)
            << kMantissaBits;
  } else if (mantissa != 0 && exponent != kMinNormalExponent) {
    return false;  // 0x0.h… elsewhere than p-1022 may need rounding
  }
  value = std::bit_cast<double>(negative ? bits | kSignBit : bits);
  return true;
}

}  // namespace

void append_double_exact(std::string& out, double value) {
  if (std::isnan(value)) {
    out += "nan";
    return;
  }
  if (std::isinf(value)) {
    out += value > 0 ? "inf" : "-inf";
    return;
  }
  // glibc's %a hexfloat, built from the bits: the shortest exact spelling,
  // which strtod reads back to the identical bits on every IEEE-754
  // platform. Normals print as 0x1.<mantissa>p<exp>, subnormals as
  // 0x0.<mantissa>p-1022, zero as 0x0p+0; the mantissa loses its trailing
  // zero digits, and its dot when none are left.
  const auto bits = std::bit_cast<std::uint64_t>(value);
  const auto biased = static_cast<int>(bits >> kMantissaBits & 0x7ff);
  const std::uint64_t mantissa = bits & kMantissaMask;
  char buffer[32];
  char* p = buffer;
  if (bits & kSignBit) *p++ = '-';
  *p++ = '0';
  *p++ = 'x';
  *p++ = biased == 0 ? '0' : '1';
  if (mantissa != 0) {
    *p++ = '.';
    const int digits = kMantissaDigits - std::countr_zero(mantissa) / 4;
    for (int k = 0; k < digits; ++k) {
      *p++ = "0123456789abcdef"[mantissa >> (kMantissaBits - 4 - 4 * k) & 0xf];
    }
  }
  const int exponent = biased != 0   ? biased - kExponentBias
                       : mantissa != 0 ? kMinNormalExponent
                                       : 0;
  *p++ = 'p';
  *p++ = exponent < 0 ? '-' : '+';
  const int magnitude = exponent < 0 ? -exponent : exponent;
  p = std::to_chars(p, buffer + sizeof buffer, magnitude).ptr;
  out.append(buffer, p);
}

std::string format_double_exact(double value) {
  std::string out;
  append_double_exact(out, value);
  return out;
}

double parse_double_exact(std::string_view text) {
  if (text.empty()) throw std::runtime_error("empty number field");
  double value = 0;
  if (parse_canonical_hexfloat(text, value)) return value;
  const auto malformed = [&] {
    return std::runtime_error("malformed number '" + std::string(text) + "'");
  };
  // strtod would skip leading whitespace; refuse it like trailing garbage.
  if (std::isspace(static_cast<unsigned char>(text.front()))) throw malformed();
  // strtod needs NUL termination: a stack copy for every token the formats
  // hold (hexfloats are at most 24 characters), the heap beyond that.
  char stack_copy[64];
  std::string heap_copy;
  const char* begin = stack_copy;
  if (text.size() < sizeof stack_copy) {
    std::memcpy(stack_copy, text.data(), text.size());
    stack_copy[text.size()] = '\0';
  } else {
    heap_copy.assign(text);
    begin = heap_copy.c_str();
  }
  char* end = nullptr;
  value = std::strtod(begin, &end);
  if (end != begin + text.size()) throw malformed();
  return value;
}

std::uint64_t parse_u64_exact(std::string_view text) {
  if (text.empty()) throw std::runtime_error("empty integer field");
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') {
      throw std::runtime_error("malformed integer '" + std::string(text) +
                               "'");
    }
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      throw std::runtime_error("integer overflow in '" + std::string(text) +
                               "'");
    }
    value = value * 10 + digit;
  }
  return value;
}

std::string escape_field(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string unescape_field(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\\') {
      out += text[i];
      continue;
    }
    if (i + 1 >= text.size()) {
      throw std::runtime_error("dangling backslash in field '" +
                               std::string(text) + "'");
    }
    switch (text[++i]) {
      case '\\':
        out += '\\';
        break;
      case 't':
        out += '\t';
        break;
      case 'n':
        out += '\n';
        break;
      case 'r':
        out += '\r';
        break;
      default:
        throw std::runtime_error("unknown escape '\\" +
                                 std::string(1, text[i]) + "' in field '" +
                                 std::string(text) + "'");
    }
  }
  return out;
}

std::vector<std::string> split_fields(std::string_view line, char sep) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = line.find(sep, start);
    if (pos == std::string_view::npos) {
      fields.emplace_back(line.substr(start));
      return fields;
    }
    fields.emplace_back(line.substr(start, pos - start));
    start = pos + 1;
  }
}

std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

}  // namespace tscclock
