// Machine-readable sweep artifacts: versioned per-shard result dumps,
// append-only resumable checkpoints, and the merge that reassembles an
// N-way shard split into the exact single-process sweep.
//
// Three artifacts share one cell serialization (serialize_result /
// parse_result — every ScenarioResult field, doubles in exact hexfloat so
// parse ∘ serialize is bit-identity):
//
//   * shard dump  — `sweep --shard i/N --dump-results FILE` writes a header
//     (format version, run fingerprint, shard shape, grid totals) plus one
//     line per (scenario, estimator) cell. tools/sweep-merge validates a
//     set of dumps (same version, same fingerprint, indices 1..N exactly
//     once, disjoint exact coverage) and reassembles the global grid-order
//     result vector — print_sweep_report over it is byte-identical to the
//     unsharded run, pinned by golden tests.
//
//   * checkpoint  — `sweep --checkpoint FILE` appends each owned scenario's
//     cells plus a `done` watermark as the grid-order drainer commits it.
//     A resumed run loads the longest valid committed prefix (a torn
//     trailing record — kill mid-write — is discarded and recomputed),
//     refuses fingerprint/shard/option mismatches with a precise error, and
//     produces bit-identical final output. The `done` record carries the
//     trace-CSV byte watermark so a resume can keep the committed CSV
//     prefix and regenerate only the tail.
//
//   * trace merge — per-shard `--csv` dumps are re-interleaved into the
//     single-process trace CSV by walking the merged grid order and
//     streaming each scenario's contiguous rows from its owning shard's
//     file into the output.
//
// Every reader here goes through common/record_reader: one streaming line
// source, one field cursor and one magic/version + key-value header reader,
// the same layer trace files read through.
#pragma once

#include <cstdint>
#include <fstream>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "sweep/shard.hpp"
#include "sweep/sweep.hpp"

namespace tscclock::sweep {

/// Format version shared by shard dumps and checkpoints. Bump on any layout
/// change; readers refuse other versions with a message naming both.
/// v2: the fleet axis — four cell fields appended (clients,
/// fleet_dispersion, fleet_worst_p99, fleet_pairwise_spread).
/// v3: the trace-input axis — two cell fields appended (from_trace,
/// relative_only).
constexpr int kResultFormatVersion = 3;

/// Malformed, truncated, version-skewed or mutually inconsistent sweep
/// artifacts. tools/sweep-merge prints the message verbatim and exits 2.
class ResultIoError : public std::runtime_error {
 public:
  explicit ResultIoError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Fingerprint of everything that determines a sweep's numbers: the full
/// grid descriptor (axes, schedules' contents, estimator labels, duration,
/// seed — see grid_descriptor) plus the result-affecting options (warm-up
/// cut, reduction engine). Shards/checkpoints with different fingerprints
/// must never be mixed; paths and thread counts deliberately do not enter.
std::uint64_t sweep_run_hash(const GridSpec& grid, Seconds discard_warmup,
                             bool streaming_reduction);

// -- Cell serialization ------------------------------------------------------

/// One ScenarioResult as a single tab-separated line (no trailing newline):
/// identity, grid coordinates, estimator label, failure state, counters,
/// both SeriesSummaries, ADEV points, steps and the full ClockStatus.
/// Doubles are hexfloat, strings are escape_field'ed — parse_result returns
/// a bit-identical value and serialize_result(parse_result(x)) == x.
std::string serialize_result(const ScenarioResult& result);

/// Inverse of serialize_result. Throws ResultIoError on a wrong field
/// count or any malformed field (the torn-record detector of the resume
/// path: a partial trailing line never parses).
ScenarioResult parse_result(std::string_view line);

// -- Shard result dumps ------------------------------------------------------

struct ShardDumpHeader {
  int version = kResultFormatVersion;
  std::uint64_t run_hash = 0;
  ShardSpec shard;
  /// Size of the *full* expanded grid (all shards), so merge can verify
  /// exact coverage and reprint the single-process banner.
  std::size_t scenario_total = 0;
  Seconds duration = 0;           ///< per-scenario simulated duration [s]
  std::uint64_t master_seed = 0;
  /// Canonical estimator labels in grid axis order (the cell minor order).
  std::vector<std::string> estimator_labels;

  bool operator==(const ShardDumpHeader&) const = default;
};

struct ShardDump {
  ShardDumpHeader header;
  /// This shard's cells in shard grid order, scenario-major (exactly
  /// owned_scenarios × estimator_labels.size() rows).
  std::vector<ScenarioResult> results;
};

/// Open `path` (truncating) and write the header immediately — the sweep
/// calls this before any scenario runs so an unwritable dump path fails
/// fast — then write_cells() completes the file when the results exist.
class ShardDumpWriter {
 public:
  /// `cell_count` is the number of result lines the dump will hold (known
  /// up front: owned scenarios × lanes; FAILED cells are ordinary lines).
  ShardDumpWriter(const std::string& path, const ShardDumpHeader& header,
                  std::size_t cell_count);

  /// Write every cell plus the end marker, flush and close. Throws on any
  /// write failure; `results.size()` must equal the promised cell count.
  void write_cells(std::span<const ScenarioResult> results);

 private:
  std::string path_;
  std::size_t cell_count_;
};

/// Read and validate one shard dump (header sanity, promised cell count,
/// end marker present). Throws ResultIoError with a precise message on
/// version skew, truncation or any malformed line.
ShardDump read_shard_dump(const std::string& path);

// -- Merge -------------------------------------------------------------------

struct MergedSweep {
  /// Representative header (shard = 1/1): run fingerprint, totals, banner
  /// fields — everything needed to reprint the single-process report.
  ShardDumpHeader header;
  /// The full grid's cells in global grid order, scenario-major — exactly
  /// what the unsharded ScenarioSweep::run would have returned.
  std::vector<ScenarioResult> results;
};

/// Validate a set of shard dumps as one N-way split — same version and run
/// fingerprint, same totals, shard indices 1..N each exactly once, every
/// scenario covered exactly once by its round-robin owner — and reassemble
/// the global result vector. Throws ResultIoError naming the first
/// inconsistency (missing shard, duplicate shard, skewed fingerprint, …).
MergedSweep merge_shard_dumps(const std::vector<ShardDump>& dumps);

/// Re-interleave per-shard `--csv` trace dumps into the single-process
/// trace CSV: `trace_paths` pairs positionally with `dumps` (any shard
/// order); rows stream per scenario block, following `merged`'s global
/// grid order, from each shard file's read window into `out_path`, so
/// memory does not grow with the CSVs. Headers must agree; leftover
/// unclaimed rows, torn final rows and unterminated quotes are errors.
void merge_trace_csv(const MergedSweep& merged,
                     const std::vector<ShardDump>& dumps,
                     const std::vector<std::string>& trace_paths,
                     const std::string& out_path);

// -- Checkpoints -------------------------------------------------------------

struct CheckpointHeader {
  int version = kResultFormatVersion;
  std::uint64_t run_hash = 0;
  ShardSpec shard;
  /// Whether the run maintains a --csv trace dump alongside the checkpoint.
  /// Recorded so a resume cannot silently change its mind: the committed
  /// prefix's trace rows exist only if the original run wrote them.
  bool with_csv = false;

  bool operator==(const CheckpointHeader&) const = default;
};

/// What survives of an existing checkpoint, validated against the resuming
/// invocation's expectations.
struct CheckpointLoad {
  /// Cells of the committed scenario prefix, shard grid order,
  /// scenario-major (committed_scenarios × lanes entries).
  std::vector<ScenarioResult> results;
  std::size_t committed_scenarios = 0;
  /// Trace-CSV byte watermark of the last committed scenario (0 when none
  /// committed or the run has no --csv).
  std::uint64_t csv_bytes = 0;
  /// File offset of the end of the valid committed prefix; a resume
  /// truncates the checkpoint here before appending.
  std::uint64_t valid_bytes = 0;
  /// True when trailing bytes after the committed prefix were discarded
  /// (torn record from a kill mid-write, or trailing corruption).
  bool discarded_tail = false;
};

/// Load `path` for a resume. Header mismatches against `expected` —
/// version skew, run-fingerprint mismatch (different grid/options), shard
/// shape mismatch, --csv presence mismatch — throw SweepUsageError with a
/// precise message (tools/sweep exits 2). Body records are validated
/// against the invocation's own scenario identities (`scenarios` filtered
/// by expected.shard) and estimator labels; the longest valid committed
/// prefix wins and anything after it is reported via discarded_tail.
CheckpointLoad load_checkpoint(const std::string& path,
                               const CheckpointHeader& expected,
                               const std::vector<SweepScenario>& scenarios,
                               std::span<const std::string> estimator_labels);

/// Append-only checkpoint writer. Construct fresh (truncate + header) or
/// resuming (truncate to the loaded valid_bytes, then append). Each
/// record_scenario call appends the scenario's lane cells plus its `done`
/// watermark and flushes, so a kill loses at most the in-flight scenario.
class CheckpointWriter {
 public:
  /// Start a fresh checkpoint (truncates `path`, writes the header).
  CheckpointWriter(const std::string& path, const CheckpointHeader& header);

  /// Resume an existing checkpoint: truncate to `valid_bytes` (dropping a
  /// torn tail) and append after the committed prefix.
  CheckpointWriter(const std::string& path, std::uint64_t valid_bytes);

  /// Append one committed scenario: its cells (every estimator lane, in
  /// lane order) and the done record carrying the scenario's grid index
  /// and the trace-CSV byte watermark after its rows were flushed.
  void record_scenario(std::span<const ScenarioResult> cells,
                       std::size_t scenario_index, std::uint64_t csv_bytes);

  /// Flush and close with error checking; idempotent.
  void close();

 private:
  std::ofstream out_;
};

}  // namespace tscclock::sweep
