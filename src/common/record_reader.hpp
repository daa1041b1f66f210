// The one reading layer under every line format: trace files
// (trace/trace_io), shard result dumps and checkpoints (sweep/result_io)
// and the per-exchange CSVs that sweep-merge re-interleaves. LineReader
// streams lines, FieldCursor walks one record's fields, HeaderReader checks
// the "<magic> <version>" line and the "key value" lines after it. Each
// format keeps its own error type and messages: FieldCursor throws
// std::runtime_error for the caller to wrap with its record's context, and
// HeaderReader throws the format's error type with the full message.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/serialize.hpp"

namespace tscclock {

/// Initial size of LineReader's read window [bytes].
constexpr std::size_t kLineReadWindow = std::size_t{1} << 20;

/// Line reader over a stream, through a read window of kLineReadWindow
/// bytes (doubled only to hold a longer line), so no input is ever held
/// whole. What it hands out is a view into the window, valid until the next
/// next_line or next_lines call. A final line without its newline is torn,
/// not returned. A read error ends the input early like end of file; each
/// format's completeness check (an end marker, a committed prefix) then
/// refuses or discards what is missing.
class LineReader {
 public:
  explicit LineReader(std::istream& in);

  /// The next complete line, without its newline.
  bool next_line(std::string_view& line);

  /// Every complete line in the window, newlines included: at least one
  /// line, reading more input while the window holds none.
  bool next_lines(std::string_view& lines);

  /// Whether the input ended inside a line (set once a read runs out).
  [[nodiscard]] bool torn() const { return torn_; }

  /// Bytes of input handed out so far.
  [[nodiscard]] std::size_t offset() const { return discarded_ + begin_; }

 private:
  template <typename Find>
  bool take(const Find& find, std::string_view& out);
  void refill();

  std::istream& in_;
  std::string window_;
  std::size_t discarded_ = 0;  ///< input bytes moved out of the window
  std::size_t begin_ = 0;      ///< start of the next line
  std::size_t scanned_ = 0;    ///< [begin_, scanned_) holds no newline
  std::size_t filled_ = 0;     ///< bytes of the window read so far
  bool at_end_ = false;
  bool torn_ = false;
};

/// Sequential cursor over the `sep`-separated fields of one record line,
/// handing out views into it. "a\tb\t" has the three fields a, b and "".
/// Every read is validated and throws std::runtime_error naming the fault,
/// so a torn or reshaped record never parses into silently wrong values.
class FieldCursor {
 public:
  explicit FieldCursor(std::string_view line, char sep = '\t')
      : line_(line), rest_(line), sep_(sep) {}

  /// Number of fields in the whole line, read or not.
  [[nodiscard]] std::size_t count() const {
    return 1 + static_cast<std::size_t>(std::count(line_.begin(),
                                                   line_.end(), sep_));
  }

  /// True once the last field has been read.
  [[nodiscard]] bool exhausted() const { return exhausted_; }

  /// The next field as it stands.
  std::string_view next() {
    if (exhausted_) {
      throw std::runtime_error("record truncated: expected more fields");
    }
    const std::size_t sep = rest_.find(sep_);
    const std::string_view field = rest_.substr(0, sep);
    if (sep == std::string_view::npos) {
      exhausted_ = true;
    } else {
      rest_.remove_prefix(sep + 1);
    }
    return field;
  }
  /// The next field as a parse_u64_exact integer.
  std::uint64_t u64() { return parse_u64_exact(next()); }
  /// The next field as a parse_double_exact double.
  double f64() { return parse_double_exact(next()); }
  /// The next field as a finite double; `name` labels a non-finite one.
  double finite(const char* name) {
    const std::string_view token = next();
    const double value = parse_double_exact(token);
    if (!std::isfinite(value)) {
      throw std::runtime_error(std::string("non-finite ") + name + " '" +
                               std::string(token) + "'");
    }
    return value;
  }
  /// The next field as a flag: "0" or "1".
  bool flag() {
    const std::string_view token = next();
    if (token != "0" && token != "1") {
      throw std::runtime_error("malformed bool field '" + std::string(token) +
                               "'");
    }
    return token == "1";
  }
  /// The next field through unescape_field.
  std::string text() { return unescape_field(next()); }

 private:
  std::string_view line_;
  std::string_view rest_;
  char sep_;
  bool exhausted_ = false;
};

/// The header of a line format: the "<magic> <version>" first line, then
/// "key value" lines, in a fixed order or as a block of keys in any order,
/// each at most once. Every fault throws `Error`, prefixed by the context
/// ("trace <path>", ...). The caller hands in the lines, so running out of
/// input keeps its format's own message.
template <typename Error>
class HeaderReader {
 public:
  explicit HeaderReader(std::string context) : context_(std::move(context)) {}

  /// Refuse a first line other than "<magic> <version>", naming both
  /// versions on skew.
  void check_magic(std::string_view line, std::string_view magic,
                   int version) const {
    const std::string prefix = std::string(magic) + ' ';
    if (!line.starts_with(prefix)) {
      throw Error(context_ + ": not a " + std::string(magic) +
                  " file (first line '" + std::string(line) + "')");
    }
    const std::string_view found = line.substr(prefix.size());
    if (found != std::to_string(version)) {
      throw Error(context_ + ": format version " + std::string(found) +
                  " is not supported by this build (expected version " +
                  std::to_string(version) + ")");
    }
  }

  /// The value of a fixed-order header line, which must carry `key`.
  std::string_view value(std::string_view line, std::string_view key) const {
    const auto [found, value] = split(line);
    if (found != key) {
      throw Error(context_ + ": expected '" + std::string(key) +
                  " ...', got '" + std::string(line) + "'");
    }
    return value;
  }

  /// A line of an any-order block as key and value, refusing a line that
  /// is not "key value" and a key the block has already had.
  std::pair<std::string_view, std::string_view> entry(std::string_view line) {
    const auto [key, value] = split(line);
    if (key.empty()) {
      throw Error(context_ + ": malformed header line '" + std::string(line) +
                  "'");
    }
    if (seen(key)) {
      throw Error(context_ + ": duplicate header key '" + std::string(key) +
                  "'");
    }
    seen_.emplace_back(key);
    return {key, value};
  }

  /// Refuse a header block that lacked `key`.
  void require(std::string_view key) const {
    if (!seen(key)) throw Error(context_ + ": missing " + std::string(key));
  }

 private:
  /// "key value" at the first space; an empty key when there is none or
  /// the line starts with it.
  static std::pair<std::string_view, std::string_view> split(
      std::string_view line) {
    const std::size_t space = line.find(' ');
    if (space == std::string_view::npos) return {};
    return {line.substr(0, space), line.substr(space + 1)};
  }

  [[nodiscard]] bool seen(std::string_view key) const {
    return std::find(seen_.begin(), seen_.end(), key) != seen_.end();
  }

  std::string context_;
  std::vector<std::string> seen_;
};

}  // namespace tscclock
