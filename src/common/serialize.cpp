#include "common/serialize.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace tscclock {

void append_double_exact(std::string& out, double value) {
  if (std::isnan(value)) {
    out += "nan";
  } else if (std::isinf(value)) {
    out += value > 0 ? "inf" : "-inf";
  } else {
    // %a hexfloat: the shortest exact representation strtod round-trips to
    // the identical bits on every IEEE-754 platform. (%.17g would round-trip
    // too, but hexfloat cannot even be mis-rounded by a sloppy libc.)
    char buffer[64];
    const int length = std::snprintf(buffer, sizeof buffer, "%a", value);
    out.append(buffer, static_cast<std::size_t>(length));
  }
}

std::string format_double_exact(double value) {
  std::string out;
  append_double_exact(out, value);
  return out;
}

double parse_double_exact(std::string_view text) {
  if (text.empty()) throw std::runtime_error("empty number field");
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
  const double value = std::strtod(begin, &end);
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
