#include "common/csv.hpp"

#include <array>
#include <stdexcept>

#include "common/contracts.hpp"

namespace tscclock {

std::string csv_escape(std::string_view field) {
  const bool needs_quoting =
      field.find_first_of(",\"\r\n") != std::string_view::npos;
  if (!needs_quoting) return std::string(field);
  std::string out;
  out.reserve(field.size() + 2);
  out += '"';
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::size_t csv_decode_field(std::string_view line, std::size_t pos,
                             std::string& field) {
  field.clear();
  bool quoted = false;
  for (; pos < line.size(); ++pos) {
    const char c = line[pos];
    if (quoted) {
      if (c != '"') {
        field += c;
      } else if (pos + 1 < line.size() && line[pos + 1] == '"') {
        field += '"';
        ++pos;
      } else {
        quoted = false;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      return pos;
    } else {
      field += c;
    }
  }
  return quoted ? std::string_view::npos : pos;
}

std::vector<std::string> csv_split_row(std::string_view line) {
  std::vector<std::string> fields;
  for (std::size_t pos = 0;; ++pos) {
    pos = csv_decode_field(line, pos, fields.emplace_back());
    if (pos == std::string_view::npos) {
      throw std::runtime_error("csv_split_row: unterminated quote in '" +
                               std::string(line) + "'");
    }
    if (pos == line.size()) return fields;
  }
}

CsvWriter::CsvWriter(const std::string& path,
                     const std::vector<std::string>& columns)
    : out_(path), columns_(columns.size()) {
  TSC_EXPECTS(!columns.empty());
  if (!out_) throw std::runtime_error("CsvWriter: cannot open " + path);
  // Mid-run failures (disk full, quota) must surface as exceptions, not as
  // a silently truncated file reported as success.
  out_.exceptions(std::ios::badbit | std::ios::failbit);
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (i) out_ << ',';
    out_ << csv_escape(columns[i]);
  }
  out_ << '\n';
}

CsvWriter::CsvWriter(const std::string& path,
                     const std::vector<std::string>& columns, Append)
    // in|out|ate (not app): fails when the file is missing — an append
    // resume against a vanished dump is an error, not a silent restart —
    // and tellp reports real absolute offsets.
    : out_(path, std::ios::in | std::ios::out | std::ios::ate),
      columns_(columns.size()) {
  TSC_EXPECTS(!columns.empty());
  if (!out_) {
    throw std::runtime_error("CsvWriter: cannot open " + path +
                             " for append");
  }
  out_.exceptions(std::ios::badbit | std::ios::failbit);
}

CsvWriter::CsvWriter(const std::string& path,
                     const std::vector<std::string>& columns, NoHeader)
    : out_(path), columns_(columns.size()) {
  TSC_EXPECTS(!columns.empty());
  if (!out_) throw std::runtime_error("CsvWriter: cannot open " + path);
  out_.exceptions(std::ios::badbit | std::ios::failbit);
}

void CsvWriter::close() {
  if (out_.is_open()) out_.close();  // throws via the enabled exceptions
}

std::uint64_t CsvWriter::byte_offset() {
  return static_cast<std::uint64_t>(out_.tellp());
}

void CsvWriter::write_row(std::span<const double> values) {
  TSC_EXPECTS(values.size() == columns_);
  out_.precision(12);
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out_ << ',';
    out_ << values[i];
  }
  out_ << '\n';
  ++rows_;
}

void CsvWriter::write_row(const std::vector<std::string>& cells) {
  TSC_EXPECTS(cells.size() == columns_);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) out_ << ',';
    out_ << csv_escape(cells[i]);
  }
  out_ << '\n';
  ++rows_;
}

void CsvWriter::write_line(std::string_view line) {
  TSC_EXPECTS(!line.empty() && line.back() == '\n');
  out_.write(line.data(), static_cast<std::streamsize>(line.size()));
  ++rows_;
}

void CsvWriter::append_rows_of(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("CsvWriter: cannot open " + path);
  std::array<char, 64 * 1024> buffer;
  while (in) {
    in.read(buffer.data(), buffer.size());
    out_.write(buffer.data(), in.gcount());
  }
  if (in.bad()) throw std::runtime_error("CsvWriter: cannot read " + path);
}

}  // namespace tscclock
