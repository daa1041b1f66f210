// The fleet-scale sweep's artifact layer: cell serialization bit-identity,
// shard dump round-trips and validation, the golden merge property (an
// N-way shard split reassembles into the byte-identical single-process
// report and trace CSV), and the checkpoint resume contract (torn tails
// discarded, incompatible checkpoints refused, FAILED cells propagated,
// resumed output byte-identical).
#include "sweep/result_io.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "common/serialize.hpp"
#include "sweep/shard.hpp"
#include "sweep/sweep.hpp"

namespace tscclock::sweep {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const fs::path& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  ASSERT_TRUE(out.good()) << path;
}

/// A result exercising the serialization's hard cases: negative zero,
/// denormals, infinities, NaN, and strings carrying the record separators.
ScenarioResult gnarly_result() {
  ScenarioResult r;
  r.scenario_index = 7;
  r.name = "ServerInt/machine-room/poll16/steady";
  r.seed = 0xdeadbeefcafe1234ULL;
  r.server = sim::ServerKind::kExt;
  r.environment = sim::Environment::kLaboratory;
  r.estimator =
      harness::EstimatorSpec{"robust", {{"use_local_rate", "0"}}};
  r.failed = true;
  r.error = "tab\there\nnewline \\backslash\r";
  r.polls = 5400;
  r.skipped = 12;
  r.exchanges = 5388;
  r.lost = 54;
  r.evaluated = 5334;
  r.clock_error.count = 5334;
  r.clock_error.min = -0.0;
  r.clock_error.max = std::numeric_limits<double>::denorm_min();
  r.clock_error.mean = -1.23456789e-6;
  r.clock_error.stddev = std::numeric_limits<double>::infinity();
  r.clock_error.percentiles.p01 = -std::numeric_limits<double>::infinity();
  r.clock_error.percentiles.p25 = std::numeric_limits<double>::quiet_NaN();
  r.clock_error.percentiles.p50 = 0.1;  // not exactly representable
  r.clock_error.percentiles.p75 = 1e-300;
  r.clock_error.percentiles.p99 = std::numeric_limits<double>::max();
  r.offset_error = r.clock_error;
  r.adev_short_tau = 256.0;
  r.adev_short = 3.3e-8;
  r.adev_long_tau = 4096.0;
  r.adev_long = 0;
  r.steps = 3;
  r.final_status.packets_processed = 5388;
  r.final_status.upshifts = 2;
  r.final_status.warmed_up = true;
  r.final_status.period = 1.0000000123e-9;
  r.final_status.period_quality = 0.25;
  r.final_status.local_rate_usable = true;
  r.final_status.local_rate_residual = 5e-9;
  r.final_status.offset = -42.5e-6;
  r.final_status.min_rtt = 0.000831;
  r.clients = 16;
  r.fleet_dispersion = 7.25e-6;
  r.fleet_worst_p99 = -0.0;  // sign must round-trip like every double field
  r.fleet_pairwise_spread = 1.5e-305;
  return r;
}

/// Field-exact equality via the serialized form (doubles are hexfloat, so
/// this is bit-identity including -0.0; NaN serializes to the same token).
void expect_results_identical(const ScenarioResult& a,
                              const ScenarioResult& b) {
  EXPECT_EQ(serialize_result(a), serialize_result(b));
}

TEST(CellSerialization, RoundTripsGnarlyValuesExactly) {
  const ScenarioResult original = gnarly_result();
  const std::string line = serialize_result(original);
  // One line, no separators leaking out of escaped fields.
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const ScenarioResult parsed = parse_result(line);
  EXPECT_EQ(serialize_result(parsed), line);
  EXPECT_EQ(parsed.name, original.name);
  EXPECT_EQ(parsed.error, original.error);
  EXPECT_EQ(parsed.estimator.label(), "robust(use_local_rate=0)");
  EXPECT_TRUE(parsed.failed);
  EXPECT_EQ(parsed.seed, original.seed);
  EXPECT_TRUE(std::signbit(parsed.clock_error.min));
  EXPECT_TRUE(std::isnan(parsed.clock_error.percentiles.p25));
  EXPECT_EQ(parsed.clock_error.percentiles.p50, 0.1);
  EXPECT_EQ(parsed.final_status.period, original.final_status.period);
  EXPECT_EQ(parsed.clients, 16u);
  EXPECT_TRUE(std::signbit(parsed.fleet_worst_p99));
  EXPECT_EQ(parsed.fleet_pairwise_spread, original.fleet_pairwise_spread);
}

TEST(CellSerialization, RejectsTornAndReshapedRecords) {
  const std::string line = serialize_result(gnarly_result());
  // Every strict prefix is torn: wrong field count or a half field.
  EXPECT_THROW(parse_result(line.substr(0, line.size() / 2)), ResultIoError);
  EXPECT_THROW(parse_result(line.substr(0, line.rfind('\t'))), ResultIoError);
  EXPECT_THROW(parse_result(line + "\textra"), ResultIoError);
  EXPECT_THROW(parse_result(""), ResultIoError);
  // A corrupted numeric field is rejected, not misread.
  std::string corrupt = line;
  corrupt.replace(corrupt.find('\t'), 1, "x\t");
  EXPECT_THROW(parse_result(corrupt), ResultIoError);
}

TEST(CellSerialization, RefusesTamperedEstimatorLabels) {
  // A dump's estimator field must pass the spec grammar's syntax check and
  // re-render to itself; anything else is a tampered or torn record.
  const std::string line = serialize_result(gnarly_result());
  const std::string label = "robust(use_local_rate=0)";
  const std::size_t at = line.find('\t' + label + '\t');
  ASSERT_NE(at, std::string::npos);
  for (const char* tampered :
       {"robust(a=1,a=2)", "Robust!", "robust()", "robust(a=1", "robust(=1)",
        "robust( a=1)", "robust(A=1)", ""}) {
    std::string corrupt = line;
    corrupt.replace(at + 1, label.size(), tampered);
    try {
      (void)parse_result(corrupt);
      ADD_FAILURE() << "expected ResultIoError for '" << tampered << "'";
    } catch (const ResultIoError& e) {
      EXPECT_NE(std::string(e.what()).find("estimator field"),
                std::string::npos)
          << tampered << " -> " << e.what();
    }
  }
  // Out-of-tree families and keys still read without the registry.
  std::string foreign = line;
  foreign.replace(at + 1, label.size(), "lagged-naive(noop=1,k_2=x)");
  EXPECT_EQ(parse_result(foreign).estimator.label(),
            "lagged-naive(noop=1,k_2=x)");
}

TEST(RunHash, SensitiveToResultAffectingInputsOnly) {
  GridSpec grid;
  grid.duration = 0.2 * duration::kHour;
  const std::uint64_t base = sweep_run_hash(grid, 60.0, false);
  EXPECT_EQ(sweep_run_hash(grid, 60.0, false), base);

  GridSpec reseeded = grid;
  reseeded.master_seed = 43;
  EXPECT_NE(sweep_run_hash(reseeded, 60.0, false), base);

  GridSpec fewer = grid;
  fewer.poll_periods = {16.0};
  EXPECT_NE(sweep_run_hash(fewer, 60.0, false), base);

  GridSpec relabeled = grid;
  relabeled.estimators = {
      harness::EstimatorSpec{"robust", {{"use_local_rate", "0"}}}};
  EXPECT_NE(sweep_run_hash(relabeled, 60.0, false), base);

  EXPECT_NE(sweep_run_hash(grid, 120.0, false), base);
  EXPECT_NE(sweep_run_hash(grid, 60.0, true), base);

  // Schedule *contents* matter, not just the name.
  GridSpec scheduled = grid;
  scheduled.schedules[0].events.add_outage(100.0, 200.0);
  EXPECT_NE(sweep_run_hash(scheduled, 60.0, false), base);
}

// -- Shard dumps --------------------------------------------------------------

class DumpFixture : public ::testing::Test {
 protected:
  fs::path tmp_{::testing::TempDir()};

  ShardDumpHeader header(std::size_t index = 1, std::size_t count = 1) {
    ShardDumpHeader h;
    h.run_hash = 0x1234abcd5678ef00ULL;
    h.shard = ShardSpec{index, count};
    h.scenario_total = 2;
    h.duration = 720.0;
    h.master_seed = 42;
    h.estimator_labels = {"robust", "offline"};
    return h;
  }
};

TEST_F(DumpFixture, WriteReadRoundTrip) {
  const fs::path path = tmp_ / "round_trip.dump";
  std::vector<ScenarioResult> cells;
  for (std::size_t s = 0; s < 2; ++s) {
    for (const char* label : {"robust", "offline"}) {
      ScenarioResult r = gnarly_result();
      r.scenario_index = s;
      r.estimator = harness::EstimatorSpec{label, {}};
      cells.push_back(r);
    }
  }
  ShardDumpWriter writer(path.string(), header(), cells.size());
  writer.write_cells(cells);

  const ShardDump dump = read_shard_dump(path.string());
  EXPECT_EQ(dump.header, header());
  ASSERT_EQ(dump.results.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    expect_results_identical(dump.results[i], cells[i]);
  }
}

TEST_F(DumpFixture, HeaderIsWrittenBeforeCells) {
  // The fail-fast contract: the file exists (with its header) right after
  // construction, before any scenario has produced results.
  const fs::path path = tmp_ / "early_header.dump";
  ShardDumpWriter writer(path.string(), header(), 0);
  const std::string content = read_file(path);
  EXPECT_NE(content.find("tscclock-sweep-results 3"), std::string::npos);
  // ... but without cells + end marker it is refused as incomplete.
  EXPECT_THROW(read_shard_dump(path.string()), ResultIoError);
  writer.write_cells({});
  EXPECT_EQ(read_shard_dump(path.string()).results.size(), 0u);
}

TEST_F(DumpFixture, RejectsVersionSkewNamingBothVersions) {
  const fs::path path = tmp_ / "skew.dump";
  ShardDumpWriter writer(path.string(), header(), 0);
  writer.write_cells({});
  std::string content = read_file(path);
  const std::string old_line = "tscclock-sweep-results 3";
  content.replace(content.find(old_line), old_line.size(),
                  "tscclock-sweep-results 4");
  write_file(path, content);
  try {
    read_shard_dump(path.string());
    FAIL() << "expected ResultIoError";
  } catch (const ResultIoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version 4"), std::string::npos) << what;
    EXPECT_NE(what.find("version 3"), std::string::npos) << what;
  }
}

TEST_F(DumpFixture, RejectsTruncatedDump) {
  const fs::path path = tmp_ / "truncated.dump";
  ScenarioResult r = gnarly_result();
  r.scenario_index = 0;
  r.estimator = harness::EstimatorSpec{"robust", {}};
  ScenarioResult r2 = r;
  r2.estimator = harness::EstimatorSpec{"offline", {}};
  ShardDumpWriter writer(path.string(), header(), 2);
  writer.write_cells(std::vector<ScenarioResult>{r, r2});
  const std::string content = read_file(path);
  // Drop the end marker; then also drop half a cell line.
  write_file(path, content.substr(0, content.size() - 4));
  EXPECT_THROW(read_shard_dump(path.string()), ResultIoError);
  write_file(path, content.substr(0, content.size() / 2));
  EXPECT_THROW(read_shard_dump(path.string()), ResultIoError);
}

TEST_F(DumpFixture, MalformedCellIsRefusedNamingTheFileAndTheCell) {
  const fs::path path = tmp_ / "malformed_cell.dump";
  std::vector<ScenarioResult> cells;
  for (const char* label : {"robust", "offline"}) {
    ScenarioResult r = gnarly_result();
    r.scenario_index = 0;
    r.estimator = harness::EstimatorSpec{label, {}};
    cells.push_back(r);
  }
  ShardDumpWriter(path.string(), header(), cells.size()).write_cells(cells);
  const std::string content = read_file(path);
  for (std::size_t cell = 0; cell < cells.size(); ++cell) {
    SCOPED_TRACE(cell);
    // The FAILED flag is the seventh field after the "cell" tag.
    std::size_t at = content.find("cell\t");
    for (std::size_t k = 0; k < cell; ++k) at = content.find("\ncell\t", at) + 1;
    for (int field = 0; field < 7; ++field) at = content.find('\t', at) + 1;
    std::string edited = content;
    ASSERT_TRUE(edited.compare(at, 2, "0\t") == 0 ||
                edited.compare(at, 2, "1\t") == 0);
    edited[at] = '2';
    write_file(path, edited);
    try {
      read_shard_dump(path.string());
      ADD_FAILURE() << "a FAILED flag of 2 was accepted";
    } catch (const ResultIoError& e) {
      EXPECT_EQ(std::string(e.what()),
                "result dump " + path.string() + ": cell " +
                    std::to_string(cell) +
                    ": malformed cell record: malformed bool field '2'");
    }
  }
}

TEST_F(DumpFixture, CellCountBeyondTheRecordsIsRefusedAsTruncated) {
  const fs::path path = tmp_ / "cell_count.dump";
  ScenarioResult r = gnarly_result();
  r.scenario_index = 0;
  r.estimator = harness::EstimatorSpec{"robust", {}};
  ShardDumpWriter(path.string(), header(), 1)
      .write_cells(std::vector<ScenarioResult>{r});
  const std::string content = read_file(path);
  for (const std::string count : {"2", "18446744073709551615"}) {
    SCOPED_TRACE(count);
    std::string edited = content;
    const std::size_t at = edited.find("\ncells 1\n") + 7;
    edited.replace(at, 1, count);
    write_file(path, edited);
    try {
      read_shard_dump(path.string());
      ADD_FAILURE() << "a dump declaring " << count << " cells was accepted";
    } catch (const ResultIoError& e) {
      EXPECT_EQ(std::string(e.what()),
                "result dump " + path.string() + ": truncated: cells " +
                    count + " declared, 1 present");
    }
  }
}

TEST_F(DumpFixture, MergeRejectsInconsistentSets) {
  // Build two valid shards of a 2-scenario, 2-lane run.
  std::vector<ShardDump> dumps(2);
  for (std::size_t i = 0; i < 2; ++i) {
    dumps[i].header = header(i + 1, 2);
    for (const char* label : {"robust", "offline"}) {
      ScenarioResult r = gnarly_result();
      r.scenario_index = i;  // shard 1 owns scenario 0, shard 2 scenario 1
      r.estimator = harness::EstimatorSpec{label, {}};
      dumps[i].results.push_back(r);
    }
  }
  // The consistent set merges.
  EXPECT_EQ(merge_shard_dumps(dumps).results.size(), 4u);

  // Missing shard.
  EXPECT_THROW(merge_shard_dumps({dumps[0]}), ResultIoError);
  // Duplicate shard index.
  EXPECT_THROW(merge_shard_dumps({dumps[0], dumps[0]}), ResultIoError);
  // Fingerprint skew.
  {
    auto skewed = dumps;
    skewed[1].header.run_hash ^= 1;
    EXPECT_THROW(merge_shard_dumps(skewed), ResultIoError);
  }
  // Disagreeing estimator axes despite equal fingerprints.
  {
    auto skewed = dumps;
    skewed[1].header.estimator_labels = {"robust", "naive"};
    EXPECT_THROW(merge_shard_dumps(skewed), ResultIoError);
  }
  // Wrong cell count for the shard's slice.
  {
    auto skewed = dumps;
    skewed[1].results.pop_back();
    EXPECT_THROW(merge_shard_dumps(skewed), ResultIoError);
  }
  // A cell claiming a scenario the shard does not own.
  {
    auto skewed = dumps;
    skewed[1].results[0].scenario_index = 0;
    EXPECT_THROW(merge_shard_dumps(skewed), ResultIoError);
  }
  EXPECT_THROW(merge_shard_dumps({}), ResultIoError);
}

// -- Golden merge + checkpoint resume over a real mixed grid ------------------

/// Small but real mixed online+replay grid: 6 scenarios (3 servers x 2
/// environments) x 2 lanes, 12 simulated minutes each — heavy enough that
/// cells have data, light enough for tier-1.
GridSpec golden_grid() {
  GridSpec grid;
  grid.poll_periods = {16.0};
  grid.duration = 0.2 * duration::kHour;
  grid.estimators = {harness::EstimatorSpec{"robust", {}},
                     harness::EstimatorSpec{"offline", {}}};
  return grid;
}

SweepOptions golden_options() {
  SweepOptions options;
  options.discard_warmup = 120.0;
  options.threads = 2;
  return options;
}

std::string report_text(const std::vector<ScenarioResult>& results) {
  std::ostringstream os;
  print_sweep_report(os, results);
  return os.str();
}

class GoldenFixture : public ::testing::Test {
 protected:
  fs::path tmp_{::testing::TempDir()};
};

TEST_F(GoldenFixture, ThreeShardSplitMergesByteIdentical) {
  const GridSpec grid = golden_grid();
  ScenarioSweep engine(grid);
  ASSERT_EQ(engine.scenarios().size(), 6u);

  // Single-process reference: report text + trace CSV bytes.
  SweepOptions single = golden_options();
  single.csv_path = (tmp_ / "golden_single.csv").string();
  const auto reference = engine.run(single);
  ASSERT_TRUE(engine.csv_error().empty()) << engine.csv_error();
  const std::string reference_report = report_text(reference);
  const std::string reference_csv = read_file(single.csv_path);

  // 3-shard split, each with a result dump and its own trace file.
  std::vector<ShardDump> dumps;
  std::vector<std::string> traces;
  for (std::size_t i = 1; i <= 3; ++i) {
    SweepOptions options = golden_options();
    options.shard = ShardSpec{i, 3};
    options.csv_path =
        (tmp_ / ("golden_shard" + std::to_string(i) + ".csv")).string();
    options.dump_path =
        (tmp_ / ("golden_shard" + std::to_string(i) + ".dump")).string();
    const auto shard_results = engine.run(options);
    ASSERT_TRUE(engine.csv_error().empty()) << engine.csv_error();
    ASSERT_TRUE(engine.dump_error().empty()) << engine.dump_error();
    EXPECT_EQ(shard_results.size(), 2u * 2u);  // 2 scenarios x 2 lanes
    dumps.push_back(read_shard_dump(options.dump_path));
    traces.push_back(options.csv_path);
  }

  const MergedSweep merged = merge_shard_dumps(dumps);
  ASSERT_EQ(merged.results.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    expect_results_identical(merged.results[i], reference[i]);
  }
  // Byte-identical comparison tables and aggregates...
  EXPECT_EQ(report_text(merged.results), reference_report);
  // ... and byte-identical re-interleaved trace CSV.
  const fs::path merged_csv = tmp_ / "golden_merged.csv";
  merge_trace_csv(merged, dumps, traces, merged_csv.string());
  EXPECT_EQ(read_file(merged_csv), reference_csv);
}

TEST_F(GoldenFixture, ResumeAfterTruncatedCheckpointIsByteIdentical) {
  const GridSpec grid = golden_grid();
  ScenarioSweep engine(grid);

  // Uninterrupted checkpointed run: the reference artifacts.
  SweepOptions options = golden_options();
  options.threads = 1;  // grid-order completion → every scenario committed
  options.csv_path = (tmp_ / "resume.csv").string();
  options.checkpoint_path = (tmp_ / "resume.ck").string();
  fs::remove(options.checkpoint_path);  // TempDir() persists across runs
  const auto reference = engine.run(options);
  ASSERT_TRUE(engine.csv_error().empty()) << engine.csv_error();
  ASSERT_TRUE(engine.checkpoint_error().empty()) << engine.checkpoint_error();
  const std::string full_ck = read_file(options.checkpoint_path);
  const std::string full_csv = read_file(options.csv_path);

  // Simulate a kill mid-write: keep ~60% of the checkpoint, cutting inside
  // a record, and leave the CSV ahead of the surviving watermark (the
  // in-flight scenario's rows were already flushed when the run died).
  write_file(options.checkpoint_path, full_ck.substr(0, full_ck.size() * 3 / 5));

  const auto resumed = engine.run(options);
  ASSERT_TRUE(engine.csv_error().empty()) << engine.csv_error();
  ASSERT_TRUE(engine.checkpoint_error().empty()) << engine.checkpoint_error();
  ASSERT_EQ(resumed.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    expect_results_identical(resumed[i], reference[i]);
  }
  EXPECT_EQ(report_text(resumed), report_text(reference));
  EXPECT_EQ(read_file(options.checkpoint_path), full_ck);
  EXPECT_EQ(read_file(options.csv_path), full_csv);
}

// -- --csv part files ----------------------------------------------------------

/// Every file next to `csv` whose name starts like one of its part files.
std::vector<std::string> part_files(const fs::path& csv) {
  const std::string prefix = csv.filename().string() + ".part.";
  std::vector<std::string> parts;
  for (const auto& entry : fs::directory_iterator(csv.parent_path())) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with(prefix)) parts.push_back(name);
  }
  return parts;
}

TEST_F(GoldenFixture, CsvIsIdenticalOnOneWorkerAndEveryCore) {
  const GridSpec grid = golden_grid();
  ScenarioSweep engine(grid);
  std::string csv[2];
  for (const std::size_t threads : {1u, 0u}) {
    SweepOptions options = golden_options();
    options.threads = threads;
    const fs::path path = tmp_ / ("parts_threads" + std::to_string(threads) +
                                  ".csv");
    options.csv_path = path.string();
    (void)engine.run(options);
    ASSERT_TRUE(engine.csv_error().empty()) << engine.csv_error();
    EXPECT_TRUE(part_files(path).empty()) << "--threads " << threads;
    csv[threads == 0] = read_file(path);
  }
  EXPECT_GT(csv[0].size(), 100000u);
  EXPECT_EQ(csv[0], csv[1]);
}

TEST_F(GoldenFixture, FailedCellContributesNoCsvRows) {
  // One scenario whose --trace-out export fails after the drain: the online
  // lane's rows were already in its part, and the FAILED cell drops them.
  GridSpec grid = golden_grid();
  grid.servers = {sim::ServerKind::kInt};
  grid.environments = {sim::Environment::kMachineRoom};
  grid.estimators = {harness::EstimatorSpec{"robust", {}}};
  ScenarioSweep engine(grid);
  ASSERT_EQ(engine.scenarios().size(), 1u);

  SweepOptions options = golden_options();
  const fs::path path = tmp_ / "failed_cell.csv";
  options.csv_path = path.string();
  const auto kept = engine.run(options);
  ASSERT_FALSE(kept.front().failed);
  const std::string full = read_file(path);
  const std::string header = full.substr(0, full.find('\n') + 1);
  EXPECT_GT(full.size(), header.size());

  options.trace_out = (tmp_ / "no-such-directory" / "cell.trace").string();
  const auto failed = engine.run(options);
  ASSERT_TRUE(failed.front().failed);
  EXPECT_TRUE(engine.csv_error().empty()) << engine.csv_error();
  EXPECT_EQ(read_file(path), header);
  EXPECT_TRUE(part_files(path).empty());
}

TEST_F(GoldenFixture, ResumeRemovesStaleCsvParts) {
  const GridSpec grid = golden_grid();
  ScenarioSweep engine(grid);
  SweepOptions options = golden_options();
  options.csv_path = (tmp_ / "stale.csv").string();
  options.checkpoint_path = (tmp_ / "stale.ck").string();
  fs::remove(options.checkpoint_path);
  const auto reference = engine.run(options);
  ASSERT_TRUE(engine.csv_error().empty()) << engine.csv_error();
  const std::string full_ck = read_file(options.checkpoint_path);
  const std::string full_csv = read_file(options.csv_path);

  // A killed run's leftovers: a cut checkpoint and parts of every cell,
  // holding rows that must not reach the CSV. A file that only looks
  // similar is not a part and stays.
  write_file(options.checkpoint_path, full_ck.substr(0, full_ck.size() / 2));
  for (std::size_t slot = 0; slot < engine.scenarios().size(); ++slot) {
    for (std::size_t lane = 0; lane < grid.estimators.size(); ++lane)
      write_file(csv_part_path(options.csv_path, slot, lane), "stale,row\n");
  }
  const fs::path foreign = options.csv_path + ".part.notes";
  write_file(foreign, "kept\n");

  const auto resumed = engine.run(options);
  ASSERT_TRUE(engine.csv_error().empty()) << engine.csv_error();
  ASSERT_TRUE(engine.checkpoint_error().empty()) << engine.checkpoint_error();
  ASSERT_EQ(resumed.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i)
    expect_results_identical(resumed[i], reference[i]);
  EXPECT_EQ(read_file(options.checkpoint_path), full_ck);
  EXPECT_EQ(read_file(options.csv_path), full_csv);
  EXPECT_EQ(part_files(options.csv_path),
            std::vector<std::string>{foreign.filename().string()});
  fs::remove(foreign);
}

TEST_F(GoldenFixture, UnwritablePartAbortsTheDumpButKeepsEveryResult) {
  // A part path taken by a non-empty directory cannot be opened, even by a
  // privileged user: the dump stops at that cell's scenario, checkpointing
  // is suspended with it, and no cell fails or changes.
  const GridSpec grid = golden_grid();
  ScenarioSweep engine(grid);
  SweepOptions options = golden_options();
  const auto reference = engine.run(options);

  const fs::path path = tmp_ / "unwritable.csv";
  options.csv_path = path.string();
  options.checkpoint_path = (tmp_ / "unwritable.ck").string();
  fs::remove(options.checkpoint_path);
  const fs::path blocker = csv_part_path(options.csv_path, 2, 0);
  fs::create_directories(blocker);
  write_file(blocker / "occupied", "x");
  const auto results = engine.run(options);
  EXPECT_NE(engine.csv_error().find("cannot open"), std::string::npos)
      << engine.csv_error();
  EXPECT_NE(engine.checkpoint_error().find("suspended"), std::string::npos)
      << engine.checkpoint_error();
  ASSERT_EQ(results.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_FALSE(results[i].failed);
    expect_results_identical(results[i], reference[i]);
  }
  fs::remove_all(blocker);
  EXPECT_TRUE(part_files(path).empty());
}

// -- Checkpoint validation ----------------------------------------------------

class CheckpointFixture : public ::testing::Test {
 protected:
  fs::path tmp_{::testing::TempDir()};
  GridSpec grid_ = golden_grid();
  ScenarioSweep engine_{grid_};
  SweepOptions options_ = golden_options();

  CheckpointFixture() {
    options_.threads = 1;
    options_.checkpoint_path = (tmp_ / "ck_fixture.ck").string();
    // TempDir() is one shared directory; never resume a previous test's file.
    fs::remove(options_.checkpoint_path);
  }

  CheckpointHeader expected_header(bool with_csv = false) {
    CheckpointHeader h;
    h.run_hash = sweep_run_hash(grid_, options_.discard_warmup,
                                options_.streaming_reduction);
    h.shard = options_.shard;
    h.with_csv = with_csv;
    return h;
  }

  std::vector<std::string> labels() {
    return {"robust", "offline"};
  }

  /// Runs the whole grid, which writes the checkpoint.
  void run_grid() {
    EXPECT_EQ(engine_.run(options_).size(),
              engine_.scenarios().size() * labels().size());
  }
};

TEST_F(CheckpointFixture, TornTrailingRecordIsDiscardedAndRecomputed) {
  const auto reference = engine_.run(options_);
  const std::string full = read_file(options_.checkpoint_path);

  // Cut inside the final scenario's records: the loader must keep the
  // longest valid committed prefix and flag the discarded tail.
  const std::string torn = full.substr(0, full.size() - full.size() / 6);
  write_file(options_.checkpoint_path, torn);
  const std::vector<std::string> lanes = labels();
  const CheckpointLoad load =
      load_checkpoint(options_.checkpoint_path, expected_header(),
                      engine_.scenarios(), lanes);
  EXPECT_TRUE(load.discarded_tail);
  EXPECT_LT(load.committed_scenarios, engine_.scenarios().size());
  EXPECT_EQ(load.results.size(), load.committed_scenarios * lanes.size());
  EXPECT_LE(load.valid_bytes, torn.size());
  // The committed prefix carries the exact reference cells.
  for (std::size_t i = 0; i < load.results.size(); ++i) {
    expect_results_identical(load.results[i], reference[i]);
  }

  // Resuming recomputes the discarded cell(s) to the identical bytes.
  const auto resumed = engine_.run(options_);
  ASSERT_EQ(resumed.size(), reference.size());
  for (std::size_t i = 0; i < resumed.size(); ++i) {
    expect_results_identical(resumed[i], reference[i]);
  }
  EXPECT_EQ(read_file(options_.checkpoint_path), full);
}

TEST_F(CheckpointFixture, CorruptedMidFileRecordEndsTheCommittedPrefix) {
  run_grid();
  std::string content = read_file(options_.checkpoint_path);
  // Flip a digit inside the *first* done record's scenario index: every
  // later record is unreachable (corruption is never skipped over).
  const std::size_t done = content.find("done\t");
  ASSERT_NE(done, std::string::npos);
  content[done + 5] = '9';
  write_file(options_.checkpoint_path, content);
  const std::vector<std::string> lanes = labels();
  const CheckpointLoad load =
      load_checkpoint(options_.checkpoint_path, expected_header(),
                      engine_.scenarios(), lanes);
  EXPECT_EQ(load.committed_scenarios, 0u);
  EXPECT_TRUE(load.discarded_tail);
}

TEST_F(CheckpointFixture, FingerprintMismatchIsAPreciseUsageError) {
  run_grid();
  CheckpointHeader other = expected_header();
  other.run_hash ^= 0xff;
  try {
    load_checkpoint(options_.checkpoint_path, other, engine_.scenarios(),
                    labels());
    FAIL() << "expected SweepUsageError";
  } catch (const SweepUsageError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("different sweep invocation"), std::string::npos)
        << what;
    EXPECT_NE(what.find("fingerprint"), std::string::npos) << what;
  }
}

TEST_F(CheckpointFixture, ShardAndCsvMismatchesAreUsageErrors) {
  run_grid();
  CheckpointHeader wrong_shard = expected_header();
  wrong_shard.shard = ShardSpec{2, 3};
  EXPECT_THROW(load_checkpoint(options_.checkpoint_path, wrong_shard,
                               engine_.scenarios(), labels()),
               SweepUsageError);
  EXPECT_THROW(load_checkpoint(options_.checkpoint_path,
                               expected_header(/*with_csv=*/true),
                               engine_.scenarios(), labels()),
               SweepUsageError);
}

TEST_F(CheckpointFixture, RunRefusesIncompatibleCheckpointBeforeAnyWork) {
  run_grid();
  // Same checkpoint file, different master seed: the resume must be
  // refused as a usage error before any scenario runs.
  GridSpec reseeded = grid_;
  reseeded.master_seed = 43;
  ScenarioSweep other(reseeded);
  EXPECT_THROW(other.run(options_), SweepUsageError);
}

TEST_F(CheckpointFixture, FailedCellInCheckpointPropagatesOnResume) {
  // Hand-write a checkpoint whose first committed scenario FAILED, then
  // resume: the loaded FAILED cell must flow into the results (and from
  // there into the CLI's non-zero exit), not be silently dropped.
  const auto& scenario = engine_.scenarios().front();
  std::vector<ScenarioResult> cells;
  for (const char* label : {"robust", "offline"}) {
    ScenarioResult r;
    r.scenario_index = scenario.index;
    r.name = scenario.name;
    r.seed = scenario.config.seed;
    r.server = scenario.config.server;
    r.environment = scenario.config.environment;
    r.estimator = harness::EstimatorSpec{label, {}};
    r.failed = true;
    r.error = "injected failure";
    cells.push_back(r);
  }
  {
    CheckpointWriter writer(options_.checkpoint_path, expected_header());
    writer.record_scenario(cells, scenario.index, 0);
    writer.close();
  }
  const auto results = engine_.run(options_);
  ASSERT_EQ(results.size(), engine_.scenarios().size() * 2);
  EXPECT_TRUE(results[0].failed);
  EXPECT_EQ(results[0].error, "injected failure");
  EXPECT_TRUE(results[1].failed);
  // The rest of the grid still ran.
  EXPECT_FALSE(results[2].failed);
}

// -- The shared line source on every artifact --------------------------------
//
// Dumps, checkpoints and trace CSVs read through one streaming line source
// with a 1 MiB read window. These cases cut small artifacts at every byte
// and read synthetic ones (no simulation) larger than the window, with
// lines and cells crossing its refills and one line longer than it.

TEST_F(DumpFixture, EveryTruncationIsRefusedAsTruncated) {
  const fs::path path = tmp_ / "cut_everywhere.dump";
  std::vector<ScenarioResult> cells;
  for (const char* label : {"robust", "offline"}) {
    ScenarioResult r = gnarly_result();
    r.scenario_index = 0;
    r.estimator = harness::EstimatorSpec{label, {}};
    cells.push_back(r);
  }
  ShardDumpWriter(path.string(), header(), cells.size()).write_cells(cells);
  const std::string content = read_file(path);
  const std::string truncated =
      "result dump " + path.string() + ": truncated (unexpected end of file)";
  for (std::size_t cut = 0; cut < content.size(); ++cut) {
    SCOPED_TRACE(cut);
    write_file(path, content.substr(0, cut));
    try {
      read_shard_dump(path.string());
      ADD_FAILURE() << "a dump cut at byte " << cut << " was accepted";
    } catch (const ResultIoError& e) {
      EXPECT_EQ(e.what(), truncated);
    }
  }
  write_file(path, content);
  EXPECT_EQ(read_shard_dump(path.string()).results.size(), cells.size());
}

TEST_F(DumpFixture, DumpWithACellLongerThanTheReadWindowRoundTrips) {
  const fs::path path = tmp_ / "long_cell.dump";
  std::vector<ScenarioResult> cells;
  for (const char* label : {"robust", "offline"}) {
    ScenarioResult r = gnarly_result();
    r.scenario_index = 0;
    r.estimator = harness::EstimatorSpec{label, {}};
    r.error = std::string((std::size_t{3} << 20) / 2, 'e');  // 1.5 MiB
    cells.push_back(r);
  }
  ShardDumpWriter(path.string(), header(), cells.size()).write_cells(cells);
  ASSERT_GT(fs::file_size(path), std::size_t{3} << 20);
  const ShardDump dump = read_shard_dump(path.string());
  ASSERT_EQ(dump.results.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    expect_results_identical(dump.results[i], cells[i]);
  }
}

/// A synthetic checkpoint: `count` scenarios of two lanes, FAILED cells
/// carrying `error_bytes` of error text, written through CheckpointWriter.
class SyntheticCheckpoint : public ::testing::Test {
 protected:
  fs::path path_{fs::path(::testing::TempDir()) / "synthetic.ck"};
  std::vector<SweepScenario> scenarios_;
  const std::vector<std::string> lanes_{"robust", "offline"};

  CheckpointHeader header() const {
    CheckpointHeader h;
    h.run_hash = 0x0123456789abcdefULL;
    return h;
  }

  std::vector<ScenarioResult> cells(std::size_t scenario,
                                    std::size_t error_bytes) const {
    std::vector<ScenarioResult> group;
    for (const std::string& lane : lanes_) {
      ScenarioResult r = gnarly_result();
      r.scenario_index = scenario;
      r.name = scenarios_[scenario].name;
      r.estimator = harness::EstimatorSpec{lane, {}};
      r.error = std::string(error_bytes, static_cast<char>('a' + scenario % 26));
      group.push_back(r);
    }
    return group;
  }

  /// Writes the checkpoint; `error_bytes(i)` sizes scenario i's errors.
  /// Returns every scenario's cells in file order.
  template <typename Size>
  std::vector<ScenarioResult> write(std::size_t count,
                                    const Size& error_bytes) {
    scenarios_.clear();
    for (std::size_t i = 0; i < count; ++i) {
      SweepScenario scenario;
      scenario.index = i;
      scenario.name = "synthetic/" + std::to_string(i);
      scenarios_.push_back(scenario);
    }
    std::vector<ScenarioResult> all;
    CheckpointWriter writer(path_.string(), header());
    for (std::size_t i = 0; i < count; ++i) {
      const std::vector<ScenarioResult> group = cells(i, error_bytes(i));
      writer.record_scenario(group, i, 1000 * (i + 1));
      all.insert(all.end(), group.begin(), group.end());
    }
    writer.close();
    return all;
  }

  CheckpointLoad load() const {
    return load_checkpoint(path_.string(), header(), scenarios_, lanes_);
  }

  /// Every scenario whose `done` line ends at or before `cut` loads, the
  /// valid prefix ends after the last of them, and anything past it is
  /// reported as discarded.
  void expect_committed_prefix(const std::string& content, std::size_t cut,
                               std::size_t header_end,
                               const std::vector<ScenarioResult>& all) {
    std::size_t committed = 0, valid = header_end;
    for (std::size_t at = content.find("\ndone\t"); at < cut;
         at = content.find("\ndone\t", at + 1)) {
      const std::size_t end = content.find('\n', at + 1) + 1;
      if (end > cut) break;
      ++committed;
      valid = end;
    }
    const CheckpointLoad loaded = load();
    EXPECT_EQ(loaded.committed_scenarios, committed);
    EXPECT_EQ(loaded.valid_bytes, valid);
    EXPECT_EQ(loaded.discarded_tail, cut > valid);
    EXPECT_EQ(loaded.csv_bytes, 1000 * committed);
    ASSERT_EQ(loaded.results.size(), committed * lanes_.size());
    for (std::size_t i = 0; i < loaded.results.size(); ++i) {
      expect_results_identical(loaded.results[i], all[i]);
    }
  }
};

TEST_F(SyntheticCheckpoint, EveryTruncationLoadsTheLongestCommittedPrefix) {
  const std::vector<ScenarioResult> all =
      write(3, [](std::size_t) { return std::size_t{5}; });
  const std::string content = read_file(path_);
  const std::size_t header_end = content.find("\ncell\t") + 1;
  const std::string before_header =
      "checkpoint " + path_.string() +
      ": truncated before the header completed — delete the file to start "
      "over";
  for (std::size_t cut = 0; cut <= content.size(); ++cut) {
    SCOPED_TRACE(cut);
    write_file(path_, content.substr(0, cut));
    if (cut < header_end) {
      try {
        load();
        ADD_FAILURE() << "a header cut at byte " << cut << " was accepted";
      } catch (const SweepUsageError& e) {
        EXPECT_EQ(e.what(), before_header);
      }
      continue;
    }
    expect_committed_prefix(content, cut, header_end, all);
  }
  // Every scenario committed, then more: a stray line or a torn tail is
  // still a discarded tail.
  for (const char* tail : {"stray line\n", "torn"}) {
    SCOPED_TRACE(tail);
    write_file(path_, content + tail);
    const CheckpointLoad loaded = load();
    EXPECT_EQ(loaded.committed_scenarios, 3u);
    EXPECT_EQ(loaded.valid_bytes, content.size());
    EXPECT_TRUE(loaded.discarded_tail);
  }
}

TEST_F(SyntheticCheckpoint, CheckpointLargerThanTheReadWindowLoadsWhole) {
  // 2.5 KiB of error text per cell puts cells across several window
  // refills; scenario 300's 1.5 MiB errors are lines longer than the
  // window, which must grow to hold them.
  constexpr std::size_t kLong = 300;
  const auto error_bytes = [](std::size_t i) {
    return i == kLong ? (std::size_t{3} << 20) / 2 : std::size_t{2560};
  };
  const std::vector<ScenarioResult> all = write(400, error_bytes);
  const std::string content = read_file(path_);
  ASSERT_GT(content.size(), std::size_t{4} << 20);
  const std::size_t header_end = content.find("\ncell\t") + 1;
  expect_committed_prefix(content, content.size(), header_end, all);

  // Cut inside the long line: the 300 scenarios before it load.
  const std::size_t long_cell =
      content.find("\ncell\t" + std::to_string(kLong) + "\t") + 1;
  const std::size_t cut = long_cell + (std::size_t{3} << 20) / 4;
  write_file(path_, content.substr(0, cut));
  expect_committed_prefix(content, cut, header_end, all);
  EXPECT_EQ(load().committed_scenarios, kLong);
}

TEST_F(DumpFixture, ShardCsvsLargerThanTheReadWindowMergeRowForRow) {
  // Two shards of a 40-scenario, one-lane grid. Scenario names carry
  // commas and quotes, so the writer quotes them; scenario 7 has no rows
  // (a FAILED cell), and scenario 12's one row is longer than the window.
  constexpr std::size_t kScenarios = 40;
  const auto name = [](std::size_t i) {
    return "fleet(n=2,tag=\"q\")/" + std::to_string(i);
  };
  std::vector<ShardDump> dumps(2);
  std::vector<std::string> shard_csv(2, "scenario,estimator,value\n");
  std::string expected = "scenario,estimator,value\n";
  for (std::size_t s = 0; s < 2; ++s) {
    dumps[s].header = header(s + 1, 2);
    dumps[s].header.scenario_total = kScenarios;
    dumps[s].header.estimator_labels = {"robust"};
  }
  for (std::size_t i = 0; i < kScenarios; ++i) {
    ScenarioResult r = gnarly_result();
    r.scenario_index = i;
    r.name = name(i);
    r.estimator = harness::EstimatorSpec{"robust", {}};
    dumps[i % 2].results.push_back(r);
    const std::size_t rows = i == 7 ? 0 : i == 12 ? 1 : 1500;
    for (std::size_t k = 0; k < rows; ++k) {
      const std::string value =
          i == 12 ? std::string((std::size_t{3} << 20) / 2, '9')
                  : std::to_string(i * 100000 + k);
      const std::string row =
          csv_escape(name(i)) + ",robust," + value + "\n";
      shard_csv[i % 2] += row;
      expected += row;
    }
  }
  std::vector<std::string> paths;
  for (std::size_t s = 0; s < 2; ++s) {
    ASSERT_GT(shard_csv[s].size(), std::size_t{1} << 20);
    paths.push_back((tmp_ / ("large_s" + std::to_string(s + 1) + ".csv"))
                        .string());
    write_file(paths.back(), shard_csv[s]);
  }
  const MergedSweep merged = merge_shard_dumps(dumps);
  const fs::path out = tmp_ / "large_merged.csv";
  merge_trace_csv(merged, dumps, paths, out.string());
  EXPECT_EQ(read_file(out), expected);

  // A shard CSV cut mid-row is refused as torn, wherever the cut falls.
  write_file(paths[1], shard_csv[1].substr(0, shard_csv[1].size() - 3));
  try {
    merge_trace_csv(merged, dumps, paths, out.string());
    ADD_FAILURE() << "a torn shard CSV was merged";
  } catch (const ResultIoError& e) {
    EXPECT_EQ(e.what(), "trace csv " + paths[1] +
                            ": torn trailing line (incomplete dump)");
  }
}

TEST_F(DumpFixture, ReadErrorsAreRefusedNotTakenForTheEnd) {
  // A directory opens but fails its first read: each artifact names the
  // read error instead of reading it as an empty or truncated file.
  const fs::path dir = tmp_ / "read_error_dir";
  fs::create_directories(dir);
  const std::string where = ": read error on " + dir.string();
  const auto error_of = [](const auto& read) -> std::string {
    try {
      read();
    } catch (const std::exception& e) {
      return e.what();
    }
    return {};
  };
  EXPECT_EQ(error_of([&] { read_shard_dump(dir.string()); }),
            "result dump" + where);
  EXPECT_EQ(error_of([&] {
              load_checkpoint(dir.string(), CheckpointHeader{}, {}, {});
            }),
            "checkpoint" + where);
  EXPECT_THROW(load_checkpoint(dir.string(), CheckpointHeader{}, {}, {}),
               SweepUsageError);
  std::vector<ShardDump> dumps(1);
  dumps[0].header = header();
  dumps[0].header.scenario_total = 0;
  EXPECT_EQ(error_of([&] {
              merge_trace_csv(merge_shard_dumps(dumps), dumps, {dir.string()},
                              (tmp_ / "read_error.csv").string());
            }),
            "trace csv" + where);
  fs::remove(dir);
}

}  // namespace
}  // namespace tscclock::sweep
