#include "trace/trace_io.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <istream>
#include <string_view>
#include <system_error>
#include <vector>

#include "common/serialize.hpp"
#include "common/time_types.hpp"

namespace tscclock::trace {

namespace {

constexpr const char* kTraceMagic = "tscclock-trace";

/// Fields of one `x` record after the tag, per declared mode.
constexpr std::size_t kRelativeFields = 10;
constexpr std::size_t kReferenceFields = kRelativeFields + 3;

/// write_trace hands the stream a block once it holds this many bytes.
constexpr std::size_t kTraceWriteBlock = std::size_t{1} << 20;

std::string mode_token(harness::GroundTruthMode mode) {
  return mode == harness::GroundTruthMode::kReference ? "reference"
                                                      : "relative";
}

std::string record_context(std::size_t index) {
  return "record " + std::to_string(index);
}

// -- Record formatting -------------------------------------------------------
//
// Integers are appended with the text of operator<<, doubles with
// append_double_exact, without a temporary string per field.

void append_u64(std::string& out, std::uint64_t value) {
  char buffer[20];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  out.append(buffer, result.ptr);
}

/// The header block, from the magic line through `samples`.
void append_header(std::string& out, const TraceMeta& meta) {
  out += kTraceMagic;
  out += ' ';
  append_u64(out, kTraceFormatVersion);
  out += "\nground_truth ";
  out += mode_token(meta.mode);
  out += "\nnominal_period ";
  append_double_exact(out, meta.nominal_period);
  out += "\npoll_period ";
  append_double_exact(out, meta.poll_period);
  out += "\nclient ";
  append_u64(out, meta.client_id);
  out += '\n';
  if (!meta.label.empty()) {
    out += "label ";
    out += escape_field(meta.label);
    out += '\n';
  }
  out += "samples\n";
}

/// One `x` record. Without `reference` the truth columns are left out and
/// the reference flag is written as 0.
void append_record(std::string& out, const harness::ReplaySample& sample,
                   bool reference) {
  const bool ref = reference && sample.ref_available;
  out += "x\t";
  append_u64(out, sample.index);
  out += sample.lost ? "\t1\t" : "\t0\t";
  out += sample.in_warmup ? "1\t" : "0\t";
  out += sample.server_changed ? "1\t" : "0\t";
  out += ref ? "1\t" : "0\t";
  append_u64(out, sample.raw.ta);
  out += '\t';
  append_double_exact(out, sample.raw.tb);
  out += '\t';
  append_double_exact(out, sample.raw.te);
  out += '\t';
  append_u64(out, sample.raw.tf);
  out += '\t';
  append_u64(out, sample.tf_counts_corrected);
  if (reference) {
    out += '\t';
    append_double_exact(out, sample.truth_ta);
    out += '\t';
    append_double_exact(out, sample.truth_tb);
    out += '\t';
    append_double_exact(out, sample.tg);
  }
  out += '\n';
}

void append_end(std::string& out, std::uint64_t exchanges, std::uint64_t lost,
                std::uint64_t polls_enumerated) {
  out += "end ";
  append_u64(out, exchanges);
  out += ' ';
  append_u64(out, lost);
  out += ' ';
  append_u64(out, polls_enumerated);
  out += '\n';
}

void write_text(std::ofstream& out, const std::string& text) {
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

/// Opens `path` (overwriting), validates `meta` and writes the header.
std::ofstream open_trace(const std::string& path, const TraceMeta& meta) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw TraceIoError("cannot open trace " + path + " for writing");
  }
  if (!(meta.nominal_period > 0)) {
    throw TraceIoError("trace meta: nominal_period must be positive");
  }
  if (!(meta.poll_period > 0)) {
    throw TraceIoError("trace meta: poll_period must be positive");
  }
  out.exceptions(std::ios::badbit | std::ios::failbit);
  std::string header;
  append_header(header, meta);
  write_text(out, header);
  return out;
}

bool is_reference(const TraceMeta& meta) {
  return meta.mode == harness::GroundTruthMode::kReference;
}

}  // namespace

// -- TraceWriter -------------------------------------------------------------

TraceWriter::TraceWriter(const std::string& path, const TraceMeta& meta)
    : out_(open_trace(path, meta)), path_(path), meta_(meta) {
  out_.flush();
}

void TraceWriter::write(const harness::ReplaySample& sample) {
  if (closed_) throw TraceIoError("trace " + path_ + " already closed");
  line_.clear();
  append_record(line_, sample, is_reference(meta_));
  write_text(out_, line_);
  ++exchanges_;
  if (sample.lost) ++lost_;
  // One flush per record bounds a kill's loss window to the in-flight line,
  // which read_trace then refuses as a torn tail — never half-trusts.
  out_.flush();
}

void TraceWriter::close(std::uint64_t polls_enumerated) {
  if (closed_) return;
  line_.clear();
  append_end(line_, exchanges_, lost_, polls_enumerated);
  write_text(out_, line_);
  out_.close();
  closed_ = true;
}

void write_trace(const std::string& path, const TraceMeta& meta,
                 const harness::ReplayTrace& trace) {
  std::ofstream out = open_trace(path, meta);
  const bool reference = is_reference(meta);
  // Records collect in one reused block, written whole once it is full:
  // one stream write per block, not per record, and no flush.
  std::string block;
  block.reserve(kTraceWriteBlock + 4096);  // plus the record crossing it
  std::uint64_t lost = 0;
  for (const auto& sample : trace.samples) {
    append_record(block, sample, reference);
    if (sample.lost) ++lost;
    if (block.size() >= kTraceWriteBlock) {
      write_text(out, block);
      block.clear();
    }
  }
  append_end(block, trace.samples.size(), lost, trace.polls_enumerated);
  write_text(out, block);
  out.close();
}

// -- read_trace --------------------------------------------------------------

namespace {

/// Line reader over a stream, through a fixed read window (kTraceReadWindow
/// bytes, doubled only to hold a longer line), so a trace is never held
/// whole in memory. What it hands out is a view into the window, valid
/// until the next next_line or next_lines call. A final line without its
/// newline is torn, not returned. A read error ends the input early like
/// end of file; the end-marker check then refuses the file. Same torn-tail
/// policy as result_io's reader (each artifact format owns its own).
class LineReader {
 public:
  explicit LineReader(std::istream& in)
      : in_(in), window_(kTraceReadWindow, '\0') {}

  /// The next complete line, without its newline.
  bool next_line(std::string_view& line) {
    const auto first = [](std::string_view unread) {
      return unread.find('\n');
    };
    if (!take(first, line)) return false;
    line.remove_suffix(1);
    return true;
  }

  /// Every complete line in the window, newlines included: at least one
  /// line, reading more input while the window holds none.
  bool next_lines(std::string_view& lines) {
    const auto last = [](std::string_view unread) {
      return unread.rfind('\n');
    };
    return take(last, lines);
  }

  [[nodiscard]] bool torn() const { return torn_; }

  /// Bytes of input handed out so far.
  [[nodiscard]] std::size_t offset() const { return discarded_ + begin_; }

 private:
  /// Hand out the window from the next line through the newline `find`
  /// picks among the bytes not yet scanned, refilling until it picks one
  /// or the input ends.
  template <typename Find>
  bool take(const Find& find, std::string_view& out) {
    for (;;) {
      const std::size_t newline = find(
          std::string_view(window_.data() + scanned_, filled_ - scanned_));
      if (newline != std::string_view::npos) {
        const std::size_t end = scanned_ + newline + 1;
        out = std::string_view(window_.data() + begin_, end - begin_);
        begin_ = scanned_ = end;
        return true;
      }
      scanned_ = filled_;
      if (at_end_) {
        torn_ = begin_ < filled_;
        return false;
      }
      refill();
    }
  }

  /// Move the unfinished line to the front of the window, double the window
  /// if that line fills it, and read to the window's end.
  void refill() {
    const std::size_t partial = filled_ - begin_;
    std::memmove(window_.data(), window_.data() + begin_, partial);
    discarded_ += begin_;
    begin_ = 0;
    scanned_ = filled_ = partial;
    if (filled_ == window_.size()) window_.resize(2 * window_.size());
    in_.read(window_.data() + filled_,
             static_cast<std::streamsize>(window_.size() - filled_));
    filled_ += static_cast<std::size_t>(in_.gcount());
    at_end_ = filled_ < window_.size();  // a short read: end of input
  }

  std::istream& in_;
  std::string window_;
  std::size_t discarded_ = 0;  ///< input bytes moved out of the window
  std::size_t begin_ = 0;      ///< start of the next line
  std::size_t scanned_ = 0;    ///< [begin_, scanned_) holds no newline
  std::size_t filled_ = 0;     ///< bytes of the window read so far
  bool at_end_ = false;
  bool torn_ = false;
};

/// The fields of one record line as views into it. `count` is the true
/// number of fields; only the first kReferenceFields are kept, which is all
/// a well-formed record of either mode has.
struct Fields {
  std::array<std::string_view, kReferenceFields> at;
  std::size_t count = 0;
};

Fields split_record(std::string_view line, char sep) {
  Fields fields;
  std::size_t start = 0;
  for (;;) {
    const std::size_t pos = line.find(sep, start);
    if (fields.count < fields.at.size()) {
      fields.at[fields.count] = line.substr(
          start, pos == std::string_view::npos ? pos : pos - start);
    }
    ++fields.count;
    if (pos == std::string_view::npos) return fields;
    start = pos + 1;
  }
}

double parse_positive(std::string_view text, const char* key,
                      const std::string& context) {
  double value = 0;
  try {
    value = parse_double_exact(text);
  } catch (const std::exception& e) {
    throw TraceIoError(context + ": malformed " + key + " '" +
                       std::string(text) + "': " + e.what());
  }
  if (!(value > 0) || !std::isfinite(value)) {
    throw TraceIoError(context + ": " + key +
                       " must be positive and finite, got '" +
                       std::string(text) + "'");
  }
  return value;
}

/// Parse one sample record line into `sample`, a fresh slot. Every fault
/// the line alone shows throws std::runtime_error with its text; the order
/// checks across records are read_trace's serial pass.
void parse_record(std::string_view line, bool reference,
                  std::uint32_t client_id, harness::ReplaySample& sample) {
  if (!line.starts_with("x\t")) {
    throw std::runtime_error("expected a sample record, got '" +
                             std::string(line) + "'");
  }
  const std::size_t expected_fields =
      reference ? kReferenceFields : kRelativeFields;
  const Fields fields = split_record(line.substr(2), '\t');
  if (fields.count != expected_fields) {
    if (!reference && fields.count == kReferenceFields) {
      throw std::runtime_error(
          "carries reference-mode truth fields in a relative-only trace");
    }
    if (reference && fields.count == kRelativeFields) {
      throw std::runtime_error(
          "missing the truth fields a reference-mode trace declares");
    }
    throw std::runtime_error("has " + std::to_string(fields.count) +
                             " fields, expected " +
                             std::to_string(expected_fields));
  }
  std::size_t f = 0;
  const auto next_bool = [&]() {
    const std::string_view token = fields.at[f++];
    if (token == "0") return false;
    if (token == "1") return true;
    throw std::runtime_error("malformed bool field '" + std::string(token) +
                             "'");
  };
  // Every double column must be finite: a NaN or infinite stamp cannot be
  // scored, only fail deep inside the reduction.
  const auto next_finite = [&](const char* name) {
    const std::string_view token = fields.at[f++];
    const double value = parse_double_exact(token);
    if (!std::isfinite(value)) {
      throw std::runtime_error(std::string("non-finite ") + name + " '" +
                               std::string(token) + "'");
    }
    return value;
  };
  sample.index = parse_u64_exact(fields.at[f++]);
  sample.lost = next_bool();
  sample.in_warmup = next_bool();
  sample.server_changed = next_bool();
  sample.ref_available = next_bool();
  sample.raw.ta = parse_u64_exact(fields.at[f++]);
  sample.raw.tb = next_finite("tb");
  sample.raw.te = next_finite("te");
  sample.raw.tf = parse_u64_exact(fields.at[f++]);
  sample.tf_counts_corrected = parse_u64_exact(fields.at[f++]);
  if (reference) {
    sample.truth_ta = next_finite("truth_ta");
    sample.truth_tb = next_finite("truth_tb");
    sample.tg = next_finite("tg");
  }
  if (!reference && sample.ref_available) {
    throw std::runtime_error(
        "declares a reference sample inside a relative-only trace");
  }
  sample.client_id = client_id;
  if (!sample.lost) sample.t_day = sample.raw.tb / duration::kDay;
}

/// One parse task: whole lines of a read window, parsed into consecutive
/// slots up to the first line that is not a well-formed record.
struct ParseChunk {
  enum class Stop { kNone, kEnd, kFault };
  std::string_view text;       ///< the chunk's lines, newlines included
  std::size_t line_count = 0;  ///< lines in `text`
  std::size_t first = 0;       ///< slot of its first line in trace.samples
  std::size_t parsed = 0;      ///< records parsed before the stop line
  Stop stop = Stop::kNone;
  std::string_view stop_line;  ///< an end marker or a fault
  std::string fault;           ///< why a kFault line is not a record

  void count_lines() {
    const char* at = text.data();
    const char* const end = at + text.size();
    while ((at = static_cast<const char*>(
                std::memchr(at, '\n', static_cast<std::size_t>(end - at))))) {
      ++line_count;
      ++at;
    }
  }

  void parse(bool reference, std::uint32_t client_id,
             harness::ReplaySample* slots) {
    std::string_view rest = text;
    while (!rest.empty()) {
      const std::size_t eol = rest.find('\n');
      const std::string_view next = rest.substr(0, eol);
      rest.remove_prefix(eol + 1);
      if (next.starts_with("end ")) {
        stop = Stop::kEnd;
        stop_line = next;
        return;
      }
      try {
        parse_record(next, reference, client_id, slots[first + parsed]);
      } catch (const std::exception& e) {
        stop = Stop::kFault;
        stop_line = next;
        fault = e.what();
        return;
      }
      ++parsed;
    }
  }
};

}  // namespace

ReadTrace read_trace(const std::string& path, ThreadPool* pool) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw TraceIoError("trace " + path + ": cannot open");
  const std::string context = "trace " + path;
  LineReader lines(in);
  std::string_view line;
  const auto input_ended = [&] {
    return TraceIoError(context + (lines.torn()
                                       ? ": torn trailing line (the file "
                                         "ends mid-record)"
                                       : ": truncated (unexpected end of "
                                         "file)"));
  };
  const auto next_line = [&] {
    if (!lines.next_line(line)) throw input_ended();
  };

  // Magic + version gate, naming both versions on skew.
  {
    const std::string expected_prefix = std::string(kTraceMagic) + " ";
    next_line();
    if (!line.starts_with(expected_prefix)) {
      throw TraceIoError(context + ": not a " + kTraceMagic +
                         " file (first line '" + std::string(line) + "')");
    }
    const std::string version(line.substr(expected_prefix.size()));
    if (version != std::to_string(kTraceFormatVersion)) {
      throw TraceIoError(context + ": format version " + version +
                         " is not supported by this build (expected version " +
                         std::to_string(kTraceFormatVersion) + ")");
    }
  }

  // Header block: key-value lines until the `samples` marker. Every key is
  // required once (label optional); unknown keys are refused, not skipped —
  // a trace from a future minor variant must fail loudly, not half-load.
  ReadTrace out;
  bool have_mode = false, have_nominal = false, have_poll = false,
       have_client = false;
  for (;;) {
    next_line();
    if (line == "samples") break;
    const std::size_t space = line.find(' ');
    if (space == std::string_view::npos || space == 0) {
      throw TraceIoError(context + ": malformed header line '" +
                         std::string(line) + "'");
    }
    const std::string_view key = line.substr(0, space);
    const std::string_view value = line.substr(space + 1);
    const auto require_fresh = [&](bool& have) {
      if (have) {
        throw TraceIoError(context + ": duplicate header key '" +
                           std::string(key) + "'");
      }
      have = true;
    };
    if (key == "ground_truth") {
      require_fresh(have_mode);
      if (value == "reference") {
        out.meta.mode = harness::GroundTruthMode::kReference;
      } else if (value == "relative") {
        out.meta.mode = harness::GroundTruthMode::kRelativeOnly;
      } else {
        throw TraceIoError(context + ": unknown ground_truth mode '" +
                           std::string(value) +
                           "' (expected 'reference' or 'relative')");
      }
    } else if (key == "nominal_period") {
      require_fresh(have_nominal);
      out.meta.nominal_period =
          parse_positive(value, "nominal_period", context);
    } else if (key == "poll_period") {
      require_fresh(have_poll);
      out.meta.poll_period = parse_positive(value, "poll_period", context);
    } else if (key == "client") {
      require_fresh(have_client);
      try {
        const std::uint64_t id = parse_u64_exact(value);
        if (id > 0xffffffffull) throw std::runtime_error("out of range");
        out.meta.client_id = static_cast<std::uint32_t>(id);
      } catch (const std::exception& e) {
        throw TraceIoError(context + ": malformed client id '" +
                           std::string(value) + "': " + e.what());
      }
    } else if (key == "label") {
      if (!out.meta.label.empty()) {
        throw TraceIoError(context + ": duplicate header key 'label'");
      }
      try {
        out.meta.label = unescape_field(value);
      } catch (const std::exception& e) {
        throw TraceIoError(context + ": malformed label: " + e.what());
      }
    } else {
      throw TraceIoError(context + ": unknown header key '" +
                         std::string(key) + "'");
    }
  }
  if (!have_mode) throw TraceIoError(context + ": missing ground_truth");
  if (!have_nominal) throw TraceIoError(context + ": missing nominal_period");
  if (!have_poll) throw TraceIoError(context + ": missing poll_period");
  if (!have_client) throw TraceIoError(context + ": missing client");

  const bool reference = is_reference(out.meta);
  harness::ReplayTrace& trace = out.trace;
  std::vector<harness::ReplaySample>& samples = trace.samples;
  trace.ground_truth = out.meta.mode;

  // A regular file's size projects the record count from the records read
  // so far, so `samples` is allocated about once, never grown by copying a
  // long prefix; a pipe has no size and grows by half each time.
  std::error_code size_error;
  const std::uintmax_t file_bytes =
      std::filesystem::file_size(path, size_error);
  const auto make_room = [&](std::size_t slots, std::size_t block_start) {
    if (slots <= samples.capacity()) return;
    std::size_t room =
        std::max(slots, samples.capacity() + samples.capacity() / 2);
    if (!size_error && !samples.empty()) {
      const double projected = static_cast<double>(samples.size()) *
                               static_cast<double>(file_bytes) /
                               static_cast<double>(block_start);
      room = std::max(room, static_cast<std::size_t>(projected * 17 / 16));
    }
    samples.reserve(room);
  };

  // Sample records until the end marker, a read window at a time: the
  // window's complete lines are cut into line-aligned chunks, each parsed
  // into its own slots (on the pool, if any), then a serial pass applies
  // the checks that depend on record order and throws the earliest fault.
  // The "trace <path>, record N" prefix is built only once a record is
  // being refused.
  const auto record_error = [&](std::size_t index, const std::string& what) {
    return TraceIoError(context + ", " + record_context(index) + ": " + what);
  };
  std::vector<ParseChunk> chunks;
  const auto for_each_chunk = [&](const auto& task) {
    if (pool != nullptr && chunks.size() > 1) {
      parallel_for(*pool, chunks.size(), task);
    } else {
      for (std::size_t c = 0; c < chunks.size(); ++c) task(c);
    }
  };
  std::string_view block;
  bool have_end = false;
  std::string_view end_line;   // the end marker
  std::string_view after_end;  // the lines of its window after it
  bool prev_arrived = false;
  bool warned_tb_backwards = false;
  TscCount prev_ta = 0;
  Seconds prev_tb = 0;
  while (!have_end) {
    if (!lines.next_lines(block)) throw input_ended();
    chunks.clear();
    for (std::size_t begin = 0; begin < block.size();) {
      const std::size_t cut = begin + kTraceParseChunk;
      const std::size_t end = cut >= block.size()
                                  ? block.size()
                                  : block.find('\n', cut - 1) + 1;
      chunks.emplace_back().text = block.substr(begin, end - begin);
      begin = end;
    }
    // Each chunk counts its lines, so it knows its first slot, then parses
    // its records into them.
    for_each_chunk([&](std::size_t c) { chunks[c].count_lines(); });
    std::size_t slots = samples.size();
    for (ParseChunk& chunk : chunks) {
      chunk.first = slots;
      slots += chunk.line_count;
    }
    make_room(slots, lines.offset() - block.size());
    samples.resize(slots);
    for_each_chunk([&](std::size_t c) {
      chunks[c].parse(reference, out.meta.client_id, samples.data());
    });

    for (const ParseChunk& chunk : chunks) {
      const std::size_t stop_at = chunk.first + chunk.parsed;
      for (std::size_t r = chunk.first; r < stop_at; ++r) {
        const harness::ReplaySample& sample = samples[r];
        if (sample.lost) {
          ++trace.lost;
        } else {
          if (prev_arrived && sample.raw.ta <= prev_ta) {
            throw record_error(
                r, "send time Ta " + std::to_string(sample.raw.ta) +
                       " is not after the previous arrival's " +
                       std::to_string(prev_ta) +
                       " (records out of order, or two interleaved "
                       "captures)");
          }
          if (prev_arrived && sample.raw.tb < prev_tb &&
              !warned_tb_backwards) {
            // Warning, not error: a server stepping backwards is exactly
            // the kind of real-world artifact a trace exists to preserve.
            warned_tb_backwards = true;
            out.warnings.push_back(
                record_context(r) +
                ": server receive stamp moves backwards (server step?)");
          }
          prev_arrived = true;
          prev_ta = sample.raw.ta;
          prev_tb = sample.raw.tb;
        }
        ++trace.exchanges;
      }
      if (chunk.stop == ParseChunk::Stop::kFault)
        throw record_error(stop_at, chunk.fault);
      if (chunk.stop == ParseChunk::Stop::kEnd) {
        samples.resize(stop_at);
        have_end = true;
        end_line = chunk.stop_line;
        after_end = block.substr(
            static_cast<std::size_t>(end_line.data() - block.data()) +
            end_line.size() + 1);
        break;
      }
    }
  }

  std::uint64_t end_exchanges = 0, end_lost = 0, end_polls = 0;
  {
    const Fields fields = split_record(end_line.substr(4), ' ');
    if (fields.count != 3) {
      throw TraceIoError(context + ": malformed end marker '" +
                         std::string(end_line) + "'");
    }
    try {
      end_exchanges = parse_u64_exact(fields.at[0]);
      end_lost = parse_u64_exact(fields.at[1]);
      end_polls = parse_u64_exact(fields.at[2]);
    } catch (const std::exception& e) {
      throw TraceIoError(context + ": malformed end marker '" +
                         std::string(end_line) + "': " + e.what());
    }
  }

  // The end marker is the completeness witness: its counts must match what
  // was actually read (a truncated-then-reglued file fails here).
  if (end_exchanges != trace.exchanges || end_lost != trace.lost) {
    throw TraceIoError(
        context + ": end marker declares " + std::to_string(end_exchanges) +
        " exchanges / " + std::to_string(end_lost) + " lost, file holds " +
        std::to_string(trace.exchanges) + " / " + std::to_string(trace.lost));
  }
  if (end_polls < trace.exchanges) {
    throw TraceIoError(context + ": end marker declares " +
                       std::to_string(end_polls) +
                       " enumerated polls, fewer than the " +
                       std::to_string(trace.exchanges) + " records present");
  }
  trace.polls_enumerated = end_polls;
  bool more = !after_end.empty();
  if (more) {
    line = after_end.substr(0, after_end.find('\n'));
  } else {
    more = lines.next_line(line);
  }
  if (more) {
    throw TraceIoError(context + ": content after the end marker ('" +
                       std::string(line) + "')");
  }
  if (lines.torn()) {
    throw TraceIoError(context + ": torn trailing line after the end marker");
  }

  // Recoverable oddities, in record order where applicable.
  if (reference) {
    bool any_ref = false;
    for (const auto& sample : trace.samples) any_ref |= sample.ref_available;
    if (!trace.samples.empty() && !any_ref) {
      out.warnings.push_back(
          "declared reference-mode but no record carries a reference sample "
          "(re-export with ground_truth relative?)");
    }
  }
  if (trace.arrived() < 2) {
    out.warnings.push_back("only " + std::to_string(trace.arrived()) +
                           " arrived exchange(s): not scorable (replay "
                           "needs at least 2)");
  }
  return out;
}

}  // namespace tscclock::trace
