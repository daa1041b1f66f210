#include "sweep/result_io.hpp"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <memory>
#include <sstream>

#include "common/contracts.hpp"
#include "common/csv.hpp"
#include "common/record_reader.hpp"
#include "common/serialize.hpp"
#include "common/spec.hpp"
#include "common/table.hpp"

namespace tscclock::sweep {

namespace {

constexpr const char* kDumpMagic = "tscclock-sweep-results";
constexpr const char* kCheckpointMagic = "tscclock-sweep-checkpoint";

// -- Token helpers ----------------------------------------------------------

std::string server_token(sim::ServerKind kind) { return sim::to_string(kind); }

sim::ServerKind parse_server_token(std::string_view token) {
  if (token == "ServerLoc") return sim::ServerKind::kLoc;
  if (token == "ServerInt") return sim::ServerKind::kInt;
  if (token == "ServerExt") return sim::ServerKind::kExt;
  throw ResultIoError("unknown server token '" + std::string(token) + "'");
}

sim::Environment parse_environment_token(std::string_view token) {
  if (token == "laboratory") return sim::Environment::kLaboratory;
  if (token == "machine-room") return sim::Environment::kMachineRoom;
  throw ResultIoError("unknown environment token '" + std::string(token) +
                      "'");
}

/// Reconstruct an EstimatorSpec from its canonical label without consulting
/// the registry: the merge tool must render results for any family a shard
/// binary knew, including out-of-tree ones this binary never linked. The
/// grammar's syntax check still applies, and the label must re-render to
/// itself, so a tampered field is refused rather than renamed.
harness::EstimatorSpec spec_from_label(const std::string& label) {
  try {
    const SpecSyntax syntax = parse_spec_syntax(label, "estimator");
    harness::EstimatorSpec spec{syntax.family, syntax.items};
    if (spec.label() != label) {
      throw SpecError(syntax.context + ": not canonical (renders as '" +
                      spec.label() + "')");
    }
    return spec;
  } catch (const SpecError& error) {
    throw ResultIoError(std::string("malformed estimator field: ") +
                        error.what());
  }
}

void append_summary(std::ostringstream& out, const SeriesSummary& s) {
  out << '\t' << s.count << '\t' << format_double_exact(s.min) << '\t'
      << format_double_exact(s.max) << '\t' << format_double_exact(s.mean)
      << '\t' << format_double_exact(s.stddev) << '\t'
      << format_double_exact(s.percentiles.p01) << '\t'
      << format_double_exact(s.percentiles.p25) << '\t'
      << format_double_exact(s.percentiles.p50) << '\t'
      << format_double_exact(s.percentiles.p75) << '\t'
      << format_double_exact(s.percentiles.p99);
}

SeriesSummary read_summary(FieldCursor& fields) {
  SeriesSummary s;
  s.count = fields.u64();
  s.min = fields.f64();
  s.max = fields.f64();
  s.mean = fields.f64();
  s.stddev = fields.f64();
  s.percentiles.p01 = fields.f64();
  s.percentiles.p25 = fields.f64();
  s.percentiles.p50 = fields.f64();
  s.percentiles.p75 = fields.f64();
  s.percentiles.p99 = fields.f64();
  return s;
}

/// serialize_result field count; parse_result enforces it exactly so a
/// record from a different (future) layout can never half-parse.
constexpr std::size_t kCellFields = 64;

/// Opens `path` for a LineReader; `what` names the artifact in the errors.
template <typename Error = ResultIoError>
std::ifstream open_input(const std::string& path, const char* what) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error(std::string(what) + ": cannot open " + path);
  return in;
}

/// A LineReader ends its input at a read error as at end of file; the
/// artifacts refuse it instead of taking what came before for the whole.
template <typename Error = ResultIoError>
void check_read(const std::ifstream& in, const char* what,
                const std::string& path) {
  if (in.bad()) throw Error(std::string(what) + ": read error on " + path);
}

std::string format_hash(std::uint64_t hash) {
  return strfmt("0x%016llx", static_cast<unsigned long long>(hash));
}

std::uint64_t parse_hash(std::string_view text, const std::string& context) {
  std::uint64_t value = 0;
  if (text.size() != 18 || !text.starts_with("0x") ||
      text.find_first_not_of("0123456789abcdef", 2) != text.npos) {
    throw ResultIoError(context + ": malformed hash '" + std::string(text) +
                        "'");
  }
  std::from_chars(text.data() + 2, text.data() + text.size(), value, 16);
  return value;
}

ShardSpec parse_shard_token(std::string_view text,
                            const std::string& context) {
  try {
    return parse_shard(text);
  } catch (const SweepUsageError&) {
    throw ResultIoError(context + ": malformed shard '" + std::string(text) +
                        "'");
  }
}

}  // namespace

std::uint64_t sweep_run_hash(const GridSpec& grid, Seconds discard_warmup,
                             bool streaming_reduction) {
  std::string descriptor = grid_descriptor(grid);
  descriptor += "discard_warmup " + format_double_exact(discard_warmup) + "\n";
  descriptor += streaming_reduction ? "reduction streaming\n"
                                    : "reduction exact\n";
  return fnv1a64(descriptor);
}

// -- Cell serialization ------------------------------------------------------

std::string serialize_result(const ScenarioResult& r) {
  std::ostringstream out;
  out << r.scenario_index << '\t' << escape_field(r.name) << '\t' << r.seed
      << '\t' << server_token(r.server) << '\t' << sim::to_string(r.environment)
      << '\t' << escape_field(r.estimator.label()) << '\t'
      << (r.failed ? 1 : 0) << '\t' << escape_field(r.error) << '\t' << r.polls
      << '\t' << r.skipped << '\t' << r.exchanges << '\t' << r.lost << '\t'
      << r.evaluated;
  append_summary(out, r.clock_error);
  append_summary(out, r.offset_error);
  out << '\t' << format_double_exact(r.adev_short_tau) << '\t'
      << format_double_exact(r.adev_short) << '\t'
      << format_double_exact(r.adev_long_tau) << '\t'
      << format_double_exact(r.adev_long) << '\t' << r.steps;
  const core::ClockStatus& s = r.final_status;
  out << '\t' << s.packets_processed << '\t' << s.rate_accepted << '\t'
      << s.offset_sanity_triggers << '\t' << s.offset_fallbacks << '\t'
      << s.gap_blends << '\t' << s.local_rate_sanity_blocks << '\t'
      << s.rate_sanity_blocks << '\t' << s.rate_sanity_releases << '\t'
      << s.offset_sanity_releases << '\t' << s.upshifts << '\t'
      << s.downshifts << '\t' << s.top_window_updates << '\t'
      << s.server_changes << '\t' << (s.warmed_up ? 1 : 0) << '\t'
      << format_double_exact(s.period) << '\t'
      << format_double_exact(s.period_quality) << '\t'
      << (s.local_rate_usable ? 1 : 0) << '\t'
      << format_double_exact(s.local_rate_residual) << '\t'
      << format_double_exact(s.offset) << '\t'
      << format_double_exact(s.min_rtt);
  // v2: the fleet fields ride at the end so a v1 record is exactly a v2
  // record minus this suffix (the version gate still refuses the mix; the
  // ordering just keeps diffs of mixed-era dumps readable).
  out << '\t' << r.clients << '\t' << format_double_exact(r.fleet_dispersion)
      << '\t' << format_double_exact(r.fleet_worst_p99) << '\t'
      << format_double_exact(r.fleet_pairwise_spread);
  // v3: the imported-trace flags ride behind the fleet suffix.
  out << '\t' << (r.from_trace ? 1 : 0) << '\t' << (r.relative_only ? 1 : 0);
  return out.str();
}

ScenarioResult parse_result(std::string_view line) {
  FieldCursor fields(line);
  const std::size_t count = fields.count();
  if (count != kCellFields) {
    throw ResultIoError(strfmt("cell record has %zu fields, expected %zu",
                               count, kCellFields));
  }
  try {
    ScenarioResult r;
    r.scenario_index = fields.u64();
    r.name = fields.text();
    r.seed = fields.u64();
    r.server = parse_server_token(fields.next());
    r.environment = parse_environment_token(fields.next());
    r.estimator = spec_from_label(fields.text());
    r.failed = fields.flag();
    r.error = fields.text();
    r.polls = fields.u64();
    r.skipped = fields.u64();
    r.exchanges = fields.u64();
    r.lost = fields.u64();
    r.evaluated = fields.u64();
    r.clock_error = read_summary(fields);
    r.offset_error = read_summary(fields);
    r.adev_short_tau = fields.f64();
    r.adev_short = fields.f64();
    r.adev_long_tau = fields.f64();
    r.adev_long = fields.f64();
    r.steps = fields.u64();
    core::ClockStatus& s = r.final_status;
    s.packets_processed = fields.u64();
    s.rate_accepted = fields.u64();
    s.offset_sanity_triggers = fields.u64();
    s.offset_fallbacks = fields.u64();
    s.gap_blends = fields.u64();
    s.local_rate_sanity_blocks = fields.u64();
    s.rate_sanity_blocks = fields.u64();
    s.rate_sanity_releases = fields.u64();
    s.offset_sanity_releases = fields.u64();
    s.upshifts = fields.u64();
    s.downshifts = fields.u64();
    s.top_window_updates = fields.u64();
    s.server_changes = fields.u64();
    s.warmed_up = fields.flag();
    s.period = fields.f64();
    s.period_quality = fields.f64();
    s.local_rate_usable = fields.flag();
    s.local_rate_residual = fields.f64();
    s.offset = fields.f64();
    s.min_rtt = fields.f64();
    r.clients = fields.u64();
    r.fleet_dispersion = fields.f64();
    r.fleet_worst_p99 = fields.f64();
    r.fleet_pairwise_spread = fields.f64();
    r.from_trace = fields.flag();
    r.relative_only = fields.flag();
    TSC_ENSURES(fields.exhausted());
    return r;
  } catch (const ResultIoError&) {
    throw;
  } catch (const std::exception& e) {
    throw ResultIoError(std::string("malformed cell record: ") + e.what());
  }
}

// -- Shard result dumps ------------------------------------------------------

namespace {

void write_dump_header(std::ostream& out, const ShardDumpHeader& header,
                       std::size_t cell_count) {
  out << kDumpMagic << ' ' << header.version << '\n';
  out << "hash " << format_hash(header.run_hash) << '\n';
  out << "shard " << header.shard.label() << '\n';
  out << "scenarios_total " << header.scenario_total << '\n';
  out << "duration " << format_double_exact(header.duration) << '\n';
  out << "master_seed " << header.master_seed << '\n';
  out << "estimators " << header.estimator_labels.size() << '\n';
  for (const auto& label : header.estimator_labels) {
    out << "estimator " << escape_field(label) << '\n';
  }
  out << "cells " << cell_count << '\n';
}

}  // namespace

ShardDumpWriter::ShardDumpWriter(const std::string& path,
                                 const ShardDumpHeader& header,
                                 std::size_t cell_count)
    : path_(path), cell_count_(cell_count) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("cannot open result dump " + path +
                             " for writing");
  }
  out.exceptions(std::ios::badbit | std::ios::failbit);
  write_dump_header(out, header, cell_count);
  out.close();
}

void ShardDumpWriter::write_cells(std::span<const ScenarioResult> results) {
  TSC_EXPECTS(results.size() == cell_count_);
  std::ofstream out(path_, std::ios::binary | std::ios::app);
  if (!out) {
    throw std::runtime_error("cannot reopen result dump " + path_);
  }
  out.exceptions(std::ios::badbit | std::ios::failbit);
  for (const auto& result : results) {
    out << "cell\t" << serialize_result(result) << '\n';
  }
  // The end marker is the completeness witness: a dump that died mid-write
  // (or a partially copied file) is refused by read_shard_dump.
  out << "end\n";
  out.close();
}

ShardDump read_shard_dump(const std::string& path) {
  std::ifstream in = open_input(path, "result dump");
  const std::string context = "result dump " + path;
  LineReader lines(in);
  std::string_view line;
  const auto next_line = [&] {
    if (!lines.next_line(line)) {
      check_read(in, "result dump", path);
      throw ResultIoError(context + ": truncated (unexpected end of file)");
    }
    return line;
  };
  HeaderReader<ResultIoError> header(context);
  const auto value = [&](const char* key) {
    return header.value(next_line(), key);
  };

  ShardDump dump;
  header.check_magic(next_line(), kDumpMagic, kResultFormatVersion);
  dump.header.run_hash = parse_hash(value("hash"), context);
  dump.header.shard = parse_shard_token(value("shard"), context);
  try {
    dump.header.scenario_total = parse_u64_exact(value("scenarios_total"));
    dump.header.duration = parse_double_exact(value("duration"));
    dump.header.master_seed = parse_u64_exact(value("master_seed"));
    const std::size_t estimator_count = parse_u64_exact(value("estimators"));
    for (std::size_t i = 0; i < estimator_count; ++i) {
      dump.header.estimator_labels.push_back(
          unescape_field(value("estimator")));
    }
    // The count is not reserved: only the cell records that follow vouch
    // for it.
    const std::uint64_t cell_count = parse_u64_exact(value("cells"));
    for (std::uint64_t i = 0; i < cell_count; ++i) {
      const std::string_view cell_line = next_line();
      if (cell_line == "end") {
        throw ResultIoError(context + ": truncated: cells " +
                            std::to_string(cell_count) + " declared, " +
                            std::to_string(i) + " present");
      }
      if (!cell_line.starts_with("cell\t")) {
        throw ResultIoError(context + ": expected cell record " +
                            std::to_string(i) + ", got '" +
                            std::string(cell_line) + "'");
      }
      try {
        dump.results.push_back(parse_result(cell_line.substr(5)));
      } catch (const std::exception& e) {
        throw ResultIoError(context + ": cell " + std::to_string(i) + ": " +
                            e.what());
      }
    }
  } catch (const ResultIoError&) {
    throw;
  } catch (const std::exception& e) {
    throw ResultIoError(context + ": " + e.what());
  }
  if (next_line() != "end") {
    throw ResultIoError(context + ": missing end marker (dump incomplete)");
  }
  return dump;
}

// -- Merge -------------------------------------------------------------------

MergedSweep merge_shard_dumps(const std::vector<ShardDump>& dumps) {
  if (dumps.empty()) {
    throw ResultIoError("nothing to merge: no shard dumps given");
  }
  const ShardDumpHeader& first = dumps.front().header;
  const std::size_t shard_count = first.shard.count;

  // Header consistency: every dump must describe the same run.
  std::vector<const ShardDump*> by_index(shard_count, nullptr);
  for (const auto& dump : dumps) {
    const ShardDumpHeader& h = dump.header;
    if (h.run_hash != first.run_hash) {
      throw ResultIoError(strfmt(
          "shard %s does not belong to the same sweep: run fingerprint %s "
          "vs %s (different grid, seed, warm-up or reduction options)",
          h.shard.label().c_str(), format_hash(h.run_hash).c_str(),
          format_hash(first.run_hash).c_str()));
    }
    if (h.shard.count != shard_count) {
      throw ResultIoError(strfmt(
          "inconsistent shard counts: got shard %s alongside shard %s",
          h.shard.label().c_str(), first.shard.label().c_str()));
    }
    if (h.scenario_total != first.scenario_total ||
        h.estimator_labels != first.estimator_labels ||
        h.master_seed != first.master_seed ||
        h.duration != first.duration) {
      throw ResultIoError(
          strfmt("shard %s header disagrees with shard %s despite matching "
                 "fingerprints (corrupt dump?)",
                 h.shard.label().c_str(), first.shard.label().c_str()));
    }
    const std::size_t slot = h.shard.index - 1;
    if (by_index[slot] != nullptr) {
      throw ResultIoError("duplicate dump for shard " + h.shard.label());
    }
    by_index[slot] = &dump;
  }
  if (dumps.size() != shard_count) {
    // Fewer dumps than N (with no duplicates) means a gap; name the first.
    for (std::size_t i = 0; i < shard_count; ++i) {
      if (by_index[i] == nullptr) {
        throw ResultIoError(strfmt(
            "missing dump for shard %zu/%zu (got %zu of %zu shards)", i + 1,
            shard_count, dumps.size(), shard_count));
      }
    }
  }

  // Coverage: each shard must hold exactly its round-robin slice, in order.
  const std::size_t lanes = first.estimator_labels.size();
  const std::size_t total = first.scenario_total;
  MergedSweep merged;
  merged.header = first;
  merged.header.shard = ShardSpec{1, 1};
  merged.results.resize(total * lanes);
  std::vector<char> covered(total, 0);
  for (std::size_t s = 0; s < shard_count; ++s) {
    const ShardSpec shard{s + 1, shard_count};
    const std::vector<std::size_t> owned = shard_scenarios(total, shard);
    const ShardDump& dump = *by_index[s];
    if (dump.results.size() != owned.size() * lanes) {
      throw ResultIoError(
          strfmt("shard %s holds %zu cells, expected %zu (%zu scenarios x "
                 "%zu estimators)",
                 shard.label().c_str(), dump.results.size(),
                 owned.size() * lanes, owned.size(), lanes));
    }
    for (std::size_t k = 0; k < owned.size(); ++k) {
      const std::size_t scenario = owned[k];
      if (covered[scenario]) {
        throw ResultIoError(strfmt("scenario %zu covered twice", scenario));
      }
      covered[scenario] = 1;
      for (std::size_t e = 0; e < lanes; ++e) {
        const ScenarioResult& cell = dump.results[k * lanes + e];
        if (cell.scenario_index != scenario) {
          throw ResultIoError(
              strfmt("shard %s cell %zu carries scenario index %zu, "
                     "expected %zu (dump out of order?)",
                     shard.label().c_str(), k * lanes + e,
                     cell.scenario_index, scenario));
        }
        if (cell.estimator.label() != first.estimator_labels[e]) {
          throw ResultIoError(
              strfmt("shard %s scenario %zu lane %zu is '%s', expected '%s'",
                     shard.label().c_str(), scenario, e,
                     cell.estimator.label().c_str(),
                     first.estimator_labels[e].c_str()));
        }
        merged.results[scenario * lanes + e] = cell;
      }
    }
  }
  for (std::size_t i = 0; i < total; ++i) {
    // Unreachable when the arithmetic above is right (every scenario has
    // exactly one round-robin owner), kept as a cheap invariant.
    if (!covered[i]) {
      throw ResultIoError(strfmt("scenario %zu covered by no shard", i));
    }
  }
  return merged;
}

namespace {

/// Sequential reader over one shard's trace CSV: hands out the contiguous
/// row block of each scenario in file order (exactly how the sweep's
/// grid-order drainer wrote them), one row at a time through the read
/// window, so a shard's CSV is never held whole in memory.
class TraceCsvReader {
 public:
  explicit TraceCsvReader(const std::string& path)
      : path_(path), in_(open_input(path, "trace csv")), lines_(in_) {
    std::string_view header;
    if (!lines_.next_line(header)) {
      check_read(in_, "trace csv", path_);
      throw ResultIoError("trace csv " + path + ": empty file");
    }
    header_ = header;
    advance();
  }

  [[nodiscard]] const std::string& header() const { return header_; }

  /// Write (with newlines) every consecutive row whose scenario column
  /// equals `scenario`; zero rows is valid (FAILED or empty cells).
  void take_scenario(const std::string& scenario, std::ostream& out) {
    while (have_row_ && row_scenario_ == scenario) {
      out << row_ << '\n';
      advance();
    }
  }

  void expect_exhausted() const {
    if (have_row_) {
      throw ResultIoError("trace csv " + path_ +
                          ": unclaimed rows for scenario '" + row_scenario_ +
                          "' (does the trace belong to this dump?)");
    }
  }

 private:
  void advance() {
    have_row_ = lines_.next_line(row_);
    if (!have_row_) check_read(in_, "trace csv", path_);
    if (lines_.torn()) {
      throw ResultIoError("trace csv " + path_ +
                          ": torn trailing line (incomplete dump)");
    }
    if (!have_row_) return;
    // Only the first column matters here, but it may be RFC-4180-quoted:
    // fleet-axis labels put commas (and parens) into scenario names, so the
    // writer quotes them just like multi-override estimator labels.
    if (csv_decode_field(row_, 0, row_scenario_) == std::string_view::npos) {
      throw ResultIoError("trace csv " + path_ + ": unterminated quote in '" +
                          std::string(row_) + "'");
    }
  }

  std::string path_;
  std::ifstream in_;
  LineReader lines_;
  std::string header_;
  std::string_view row_;  ///< the next row, a view into lines_' window
  std::string row_scenario_;
  bool have_row_ = false;
};

}  // namespace

void merge_trace_csv(const MergedSweep& merged,
                     const std::vector<ShardDump>& dumps,
                     const std::vector<std::string>& trace_paths,
                     const std::string& out_path) {
  TSC_EXPECTS(dumps.size() == trace_paths.size());
  const std::size_t shard_count =
      dumps.empty() ? 0 : dumps.front().header.shard.count;
  if (dumps.size() != shard_count) {
    throw ResultIoError("merge_trace_csv needs every shard's trace");
  }
  std::vector<std::unique_ptr<TraceCsvReader>> readers(shard_count);
  for (std::size_t j = 0; j < dumps.size(); ++j) {
    const std::size_t slot = dumps[j].header.shard.index - 1;
    TSC_EXPECTS(slot < shard_count && readers[slot] == nullptr);
    readers[slot] = std::make_unique<TraceCsvReader>(trace_paths[j]);
  }
  const std::string& header = readers[0]->header();
  for (const auto& reader : readers) {
    if (reader->header() != header) {
      throw ResultIoError("trace csv headers disagree across shards");
    }
  }

  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw ResultIoError("cannot open merged trace csv " + out_path);
  }
  out.exceptions(std::ios::badbit | std::ios::failbit);
  out << header << '\n';

  // Rows go straight from each shard's read window to the output stream.
  const std::size_t lanes = merged.header.estimator_labels.size();
  for (std::size_t scenario = 0; scenario * lanes < merged.results.size();
       ++scenario) {
    const ScenarioResult& cell = merged.results[scenario * lanes];
    readers[scenario % shard_count]->take_scenario(cell.name, out);
  }
  for (const auto& reader : readers) reader->expect_exhausted();
  out.close();
}

// -- Checkpoints -------------------------------------------------------------

namespace {

void write_checkpoint_header(std::ostream& out,
                             const CheckpointHeader& header) {
  out << kCheckpointMagic << ' ' << header.version << '\n';
  out << "hash " << format_hash(header.run_hash) << '\n';
  out << "shard " << header.shard.label() << '\n';
  out << "csv " << (header.with_csv ? 1 : 0) << '\n';
}

}  // namespace

CheckpointLoad load_checkpoint(const std::string& path,
                               const CheckpointHeader& expected,
                               const std::vector<SweepScenario>& scenarios,
                               std::span<const std::string> estimator_labels) {
  const std::string context = "checkpoint " + path;
  std::ifstream in = open_input<SweepUsageError>(path, "checkpoint");
  LineReader lines(in);
  std::string_view line;
  const auto next_header_line = [&] {
    if (!lines.next_line(line)) {
      check_read<SweepUsageError>(in, "checkpoint", path);
      throw SweepUsageError(context +
                            ": truncated before the header completed — "
                            "delete the file to start over");
    }
    return line;
  };
  HeaderReader<ResultIoError> header(context);
  const auto value = [&](const char* key) {
    return header.value(next_header_line(), key);
  };

  // Header mismatches are usage errors (exit 2): the user pointed a resume
  // at the wrong file or changed the invocation under it.
  CheckpointLoad load;
  try {
    header.check_magic(next_header_line(), kCheckpointMagic,
                       kResultFormatVersion);
    const std::uint64_t hash = parse_hash(value("hash"), context);
    if (hash != expected.run_hash) {
      throw SweepUsageError(strfmt(
          "%s was written by a different sweep invocation: run fingerprint "
          "%s vs this invocation's %s — the grid, master seed, warm-up or "
          "reduction options differ; delete the checkpoint or rerun the "
          "original command line",
          context.c_str(), format_hash(hash).c_str(),
          format_hash(expected.run_hash).c_str()));
    }
    const ShardSpec shard = parse_shard_token(value("shard"), context);
    if (!(shard == expected.shard)) {
      throw SweepUsageError(strfmt(
          "%s belongs to shard %s, this invocation is shard %s",
          context.c_str(), shard.label().c_str(),
          expected.shard.label().c_str()));
    }
    const std::string_view csv_flag = value("csv");
    const bool with_csv = csv_flag == "1";
    if (!with_csv && csv_flag != "0") {
      throw ResultIoError(context + ": malformed csv flag '" +
                          std::string(csv_flag) + "'");
    }
    if (with_csv != expected.with_csv) {
      throw SweepUsageError(
          context + (with_csv
                         ? ": was written with --csv; resume with the same "
                           "--csv path or delete the checkpoint"
                         : ": was written without --csv; a resume cannot "
                           "add --csv (the committed scenarios' trace rows "
                           "were never recorded) — delete the checkpoint "
                           "to start over"));
    }
  } catch (const ResultIoError& e) {
    throw SweepUsageError(e.what());
  }
  load.valid_bytes = lines.offset();

  // Body: cells of the owned scenarios in shard grid order, each group
  // sealed by its `done` watermark. The longest valid prefix wins; the
  // first anomaly — torn line, parse failure, identity mismatch, wrong
  // order — ends it (corruption is recomputed, never trusted).
  const std::vector<std::size_t> owned =
      shard_scenarios(scenarios.size(), expected.shard);
  const std::size_t lanes = estimator_labels.size();
  std::vector<ScenarioResult> group;
  // One scenario's lane cells into `group`, then its `done` watermark;
  // false (or a parse exception) at the first anomaly.
  const auto read_group = [&](std::size_t scenario_index) {
    group.clear();
    for (std::size_t e = 0; e < lanes; ++e) {
      if (!lines.next_line(line) || !line.starts_with("cell\t")) return false;
      ScenarioResult cell = parse_result(line.substr(5));
      if (cell.scenario_index != scenario_index ||
          cell.name != scenarios[scenario_index].name ||
          cell.estimator.label() != estimator_labels[e]) {
        return false;
      }
      group.push_back(std::move(cell));
    }
    if (!lines.next_line(line)) return false;
    FieldCursor done(line);
    if (done.count() != 3 || done.next() != "done" ||
        done.u64() != scenario_index) {
      return false;
    }
    load.csv_bytes = done.u64();
    return true;
  };
  while (load.committed_scenarios < owned.size()) {
    bool committed = false;
    try {
      committed = read_group(owned[load.committed_scenarios]);
    } catch (const std::exception&) {
    }
    if (!committed) break;
    for (auto& cell : group) load.results.push_back(std::move(cell));
    ++load.committed_scenarios;
    load.valid_bytes = lines.offset();
  }
  // Anything after the committed prefix is discarded: lines read past it,
  // lines never reached, or a torn tail.
  load.discarded_tail = lines.offset() > load.valid_bytes ||
                        lines.next_line(line) || lines.torn();
  check_read<SweepUsageError>(in, "checkpoint", path);
  return load;
}

CheckpointWriter::CheckpointWriter(const std::string& path,
                                   const CheckpointHeader& header)
    : out_(path, std::ios::binary | std::ios::trunc) {
  if (!out_) {
    throw std::runtime_error("cannot open checkpoint " + path +
                             " for writing");
  }
  out_.exceptions(std::ios::badbit | std::ios::failbit);
  write_checkpoint_header(out_, header);
  out_.flush();
}

CheckpointWriter::CheckpointWriter(const std::string& path,
                                   std::uint64_t valid_bytes) {
  // Truncate away any torn tail first, then append after the committed
  // prefix — the file never holds bytes we would not trust on the next
  // resume.
  std::error_code ec;
  std::filesystem::resize_file(path, valid_bytes, ec);
  if (ec) {
    throw std::runtime_error("cannot truncate checkpoint " + path + ": " +
                             ec.message());
  }
  out_.open(path, std::ios::binary | std::ios::in | std::ios::out |
                      std::ios::ate);
  if (!out_) {
    throw std::runtime_error("cannot reopen checkpoint " + path);
  }
  out_.exceptions(std::ios::badbit | std::ios::failbit);
}

void CheckpointWriter::record_scenario(std::span<const ScenarioResult> cells,
                                       std::size_t scenario_index,
                                       std::uint64_t csv_bytes) {
  TSC_EXPECTS(!cells.empty());
  for (const auto& cell : cells) {
    out_ << "cell\t" << serialize_result(cell) << '\n';
  }
  out_ << "done\t" << scenario_index << '\t' << csv_bytes << '\n';
  // One flush per scenario bounds the loss window of a kill to the
  // in-flight record — which the loader detects as a torn tail.
  out_.flush();
}

void CheckpointWriter::close() {
  if (out_.is_open()) out_.close();
}

}  // namespace tscclock::sweep
