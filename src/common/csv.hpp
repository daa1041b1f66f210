// Minimal CSV export for trace inspection (every bench can dump its series
// for external plotting). Writes are unconditional overwrites.
//
// String cells are RFC-4180-quoted when they need it (comma, quote or
// newline — e.g. multi-override estimator labels like
// "robust(use_local_rate=0,enable_aging=0)"), so labels round-trip through
// the dumps unambiguously; csv_decode_field is the matching reader (one
// field) and csv_split_row splits a row with it.
#pragma once

#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace tscclock {

/// RFC-4180 field quoting: returns the field verbatim unless it contains a
/// comma, double quote, CR or LF, in which case it is wrapped in quotes with
/// embedded quotes doubled.
std::string csv_escape(std::string_view field);

/// Decode the field of `line` that starts at `pos` into `field` (replacing
/// its contents), undoing csv_escape (quoted runs, doubled quotes). Returns
/// the position of the comma that ends the field, line.size() after the
/// last field, or std::string_view::npos when a quote is left open.
std::size_t csv_decode_field(std::string_view line, std::size_t pos,
                             std::string& field);

/// Split one CSV row into its fields through csv_decode_field. Throws
/// std::runtime_error on an unterminated quote.
std::vector<std::string> csv_split_row(std::string_view line);

class CsvWriter {
 public:
  /// Tag selecting the resume mode of the appending constructor.
  struct Append {};
  /// Tag selecting the header-less constructor.
  struct NoHeader {};

  /// Opens `path` for writing and emits the header row.
  /// Throws std::runtime_error if the file cannot be opened.
  CsvWriter(const std::string& path, const std::vector<std::string>& columns);

  /// Opens an *existing* `path` positioned at its end and appends rows
  /// without re-emitting the header (the sweep's checkpoint-resume path:
  /// the committed prefix of a trace dump is kept byte-for-byte and only
  /// the tail is regenerated). Throws if the file cannot be opened.
  CsvWriter(const std::string& path, const std::vector<std::string>& columns,
            Append);

  /// Opens `path` (overwriting) without a header row: a part file of rows
  /// that append_rows_of() later copies under another writer's header.
  /// Throws if the file cannot be opened.
  CsvWriter(const std::string& path, const std::vector<std::string>& columns,
            NoHeader);

  void write_row(std::span<const double> values);
  void write_row(const std::vector<std::string>& cells);

  /// Write one row the caller has already formatted: every cell escaped,
  /// commas between them and the trailing newline included.
  void write_line(std::string_view line);

  /// Append every byte of the file at `path` (rows a NoHeader writer of the
  /// same columns wrote), copied through a fixed-size buffer. Those rows
  /// are not counted by rows_written(). Throws std::runtime_error if the
  /// file cannot be opened or read, and on a failed write.
  void append_rows_of(const std::string& path);

  /// Flush and close, surfacing a failed final flush (disk full at the end
  /// of a long dump) as an exception — the ofstream destructor would
  /// swallow it. Idempotent; the writer is unusable afterwards.
  void close();

  [[nodiscard]] std::size_t rows_written() const { return rows_; }

  /// Byte offset after everything written so far (absolute file position —
  /// in append mode the pre-existing prefix counts). The sweep records this
  /// watermark in its checkpoint so a resumed run knows where the committed
  /// trace prefix ends.
  [[nodiscard]] std::uint64_t byte_offset();

 private:
  std::ofstream out_;
  std::size_t columns_;
  std::size_t rows_ = 0;
};

}  // namespace tscclock
