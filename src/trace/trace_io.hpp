// Trace file format + I/O: the seam that lets real internet data ride the
// replay pipeline.
//
// Everything downstream of TraceRecorder — ReplaySession scoring, the
// ReducerSink reduction, the sweep's comparison tables — consumes a
// ReplayTrace and does not care where it came from. This module gives that
// trace a durable on-disk form:
//
//   * a versioned, self-describing text format ("tscclock-trace 1") whose
//     doubles are C99 hexfloats via common/serialize, so write∘read is
//     bit-identity — a sim-exported trace replays byte-identical to the
//     in-memory recording (tests/test_trace_replay.cpp pins this);
//   * a ground-truth mode designed into the header, not bolted on: a
//     reference-bearing trace (simulation, GPS-disciplined capture) carries
//     the truth columns, a relative-only trace (anything a real collector
//     can produce) structurally has none — see GroundTruthMode in
//     harness/replay.hpp for what that does to the reduction;
//   * precise validation errors on read — version skew, torn tails, mixed
//     clients, non-monotone send times, non-finite numbers — naming the
//     offending record, plus recoverable warnings (unscorable length, zero
//     reference coverage) that tools/trace-import surfaces as exit 1.
//
// Layout (tab-separated, newline-terminated, strings escape_field-encoded):
//
//   tscclock-trace 1
//   ground_truth reference|relative
//   nominal_period <hexfloat>          # [s/count] of the Ta/Tf counter
//   poll_period <hexfloat>             # [s] nominal polling period (tau0)
//   client <u64>
//   label <escaped>                    # optional provenance line
//   samples
//   x\t<index>\t<lost>\t<in_warmup>\t<server_changed>\t<ref>\t<ta>\t<tb>
//     \t<te>\t<tf>\t<tf_corrected>[\t<truth_ta>\t<truth_tb>\t<tg>]
//   ...
//   end <exchanges> <lost> <polls_enumerated>
//
// The three truth fields exist exactly when the header declares `reference`;
// a record with the wrong field count for its declared mode is malformed
// (the reader never guesses). The end marker is the completeness witness:
// counts must match what was read, and a missing/torn final line is
// refused as a kill-mid-write signature (same contract as sweep/result_io).
//
// The two writers differ only in when bytes reach the file. TraceWriter
// flushes after every record, so a killed live collector leaves every
// completed line on disk; write_trace formats records into one reused
// block of about 1 MiB, hands the stream a block at a time and flushes
// once, when the file is complete. Both produce the same bytes.
#pragma once

#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "harness/replay.hpp"

namespace tscclock::trace {

class TraceIoError : public std::runtime_error {
 public:
  explicit TraceIoError(const std::string& what) : std::runtime_error(what) {}
};

/// Format version this build writes and the only one it reads.
constexpr int kTraceFormatVersion = 1;

/// read_trace parses through a read window of this many bytes, grown only
/// for a longer line, instead of loading the whole file.
constexpr std::size_t kTraceReadWindow = std::size_t{1} << 20;

/// read_trace cuts the complete lines of each read window into parse tasks
/// of about this many bytes, each ending on a line boundary.
constexpr std::size_t kTraceParseChunk = std::size_t{1} << 16;

/// Header block of a trace file: everything a replay needs besides the
/// samples themselves.
struct TraceMeta {
  harness::GroundTruthMode mode = harness::GroundTruthMode::kReference;
  /// Nominal period of the Ta/Tf counter [s/count] (1e-9 for the
  /// ntp-collect monotonic-nanosecond clock; the testbed oscillator's
  /// nominal for sim exports).
  double nominal_period = 0;
  /// Nominal polling period [s]: the reduction's tau0 and the replayed
  /// estimator's window unit.
  Seconds poll_period = 0;
  std::uint32_t client_id = 0;
  /// Optional free-form provenance ("pool.ntp.org via ntp-collect", a
  /// scenario name, ...). Empty means the line is omitted.
  std::string label;
};

/// Everything read_trace() returns: the reconstructed trace (ground_truth
/// already set from the header) plus recoverable oddities.
struct ReadTrace {
  TraceMeta meta;
  harness::ReplayTrace trace;
  /// Recoverable warnings (trace-import exit 1): declared-reference trace
  /// with zero reference samples, fewer than two arrivals (unscorable),
  /// non-monotone server stamps. Each names the offending record.
  std::vector<std::string> warnings;
};

/// Streaming writer: header at construction, one record per write(), end
/// marker at close(). A file abandoned before close() has no end marker and
/// is refused by read_trace — exactly the torn-tail contract. Used as a
/// live sink by ntp-collect (one record per poll, flushed, so a ^C keeps
/// every completed exchange on disk).
class TraceWriter {
 public:
  /// Opens `path` (overwriting). Throws TraceIoError on open failure or a
  /// meta with non-positive periods.
  TraceWriter(const std::string& path, const TraceMeta& meta);

  /// Append one sample. Under a relative-only meta the truth columns are
  /// not written and the reference flag is forced to 0 — exporting a
  /// reference trace through a relative writer deliberately strips the
  /// ground truth (how a "what would the field see" trace is made).
  void write(const harness::ReplaySample& sample);

  /// Write the end marker and close. `polls_enumerated` includes
  /// outage-skipped slots (== samples written when no enumeration gaps).
  void close(std::uint64_t polls_enumerated);

  [[nodiscard]] std::size_t exchanges() const { return exchanges_; }
  [[nodiscard]] std::size_t lost() const { return lost_; }

 private:
  std::ofstream out_;
  std::string path_;
  TraceMeta meta_;
  std::string line_;  ///< reused formatting buffer for one record
  std::size_t exchanges_ = 0;
  std::size_t lost_ = 0;
  bool closed_ = false;
};

/// One-shot export of a recorded trace (TraceRecorder output or a replayed
/// import). Writes the same bytes as TraceWriter + write per sample +
/// close(trace.polls_enumerated), but a block of records per write and no
/// per-record flush.
void write_trace(const std::string& path, const TraceMeta& meta,
                 const harness::ReplayTrace& trace);

/// Parse and validate a trace file. Throws TraceIoError with a precise
/// message (naming the record index where applicable) on: unreadable file,
/// version skew, unknown/duplicate/missing header keys, a non-positive or
/// non-finite header period, wrong per-mode field count, a non-finite
/// double field, a reference sample declared inside a relative-only trace,
/// client ids mixing mid-file, non-monotone Ta across non-lost records,
/// torn tails, missing end marker, end-marker count mismatches, and
/// trailing content after `end`. Recoverable oddities land in warnings.
///
/// With a `pool`, each read window's records are parsed in
/// kTraceParseChunk tasks on it (without one the same tasks run on the
/// calling thread), then checked in record order. The samples, warnings and
/// the error thrown (the earliest fault in the file) are identical at every
/// worker count.
ReadTrace read_trace(const std::string& path, ThreadPool* pool = nullptr);

}  // namespace tscclock::trace
