// The sim→file→replay golden (trace/trace_io.hpp × harness/replay.hpp): a
// trace exported to disk and read back replays bit-identically to the
// in-memory recording — same per-record errors, same reduction — and a
// relative-only export of the same stream scores under the
// GroundTruthMode::kRelativeOnly semantics (structurally empty clock
// series, tracking residual θ̂ − θ̂_naive in the offset columns, ADEV over
// the residual). A reloaded file also feeds core::smooth_offsets directly,
// the offline workflow without a replay estimator.
#include "trace/trace_io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/offline.hpp"
#include "harness/estimator_spec.hpp"
#include "harness/replay.hpp"
#include "harness/sinks.hpp"
#include "sim/scenario.hpp"
#include "sweep/result_io.hpp"
#include "sweep/scenario_grid.hpp"
#include "sweep/sweep.hpp"

namespace tscclock::trace {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

fs::path temp_path(const std::string& name) {
  return fs::temp_directory_path() / ("tscclock_trace_replay_" + name);
}

bool same_bits(double a, double b) {
  std::uint64_t ba = 0, bb = 0;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  return ba == bb;
}

/// An eventful scenario: losses (outage) and a server switch must survive
/// the disk round trip along with the quadruples.
sim::ScenarioConfig trace_scenario() {
  sim::ScenarioConfig scenario;
  scenario.server = sim::ServerKind::kInt;
  scenario.poll_period = 16.0;
  scenario.duration = 3 * duration::kHour;
  scenario.seed = 20040917;
  scenario.events.add_outage(4000.0, 4900.0);
  scenario.server_switches = {{7200.0, sim::ServerKind::kLoc}};
  return scenario;
}

harness::SessionConfig trace_config(const sim::ScenarioConfig& scenario) {
  harness::SessionConfig config;
  config.params = core::Params::for_poll_period(scenario.poll_period);
  config.discard_warmup = 30 * duration::kMinute;
  config.warmup_policy = harness::WarmupPolicy::kObservable;
  config.emit_unevaluated = true;
  return config;
}

struct ReplayOutcome {
  std::vector<harness::SampleRecord> records;
  harness::ReducerSink::Reduction reduction;
  harness::SessionSummary summary;
};

/// Score `trace` through the offline smoother with the mode-aware exact
/// reduction — the same lane shape the sweep's trace cells run.
ReplayOutcome replay_trace(const harness::ReplayTrace& trace,
                           const harness::SessionConfig& config,
                           double nominal_period) {
  harness::ReplaySession replay(
      config, std::make_unique<harness::OfflineSmootherEstimator>(
                  config.params, nominal_period));
  harness::CollectorSink records;
  harness::ReducerSink reducer(16.0, 16, 256, trace.ground_truth);
  replay.add_sink(records);
  replay.add_sink(reducer);
  ReplayOutcome outcome;
  outcome.summary = replay.run(trace);
  outcome.records = records.records();
  outcome.reduction = reducer.reduce();
  return outcome;
}

void expect_summary_bits(const SeriesSummary& got, const SeriesSummary& want) {
  EXPECT_EQ(got.count, want.count);
  EXPECT_TRUE(same_bits(got.min, want.min));
  EXPECT_TRUE(same_bits(got.max, want.max));
  EXPECT_TRUE(same_bits(got.mean, want.mean));
  EXPECT_TRUE(same_bits(got.stddev, want.stddev));
  EXPECT_TRUE(same_bits(got.percentiles.p01, want.percentiles.p01));
  EXPECT_TRUE(same_bits(got.percentiles.p50, want.percentiles.p50));
  EXPECT_TRUE(same_bits(got.percentiles.p99, want.percentiles.p99));
}

TEST(TraceReplayGolden, ExportedTraceReplaysBitIdenticalToInMemory) {
  const auto scenario = trace_scenario();
  const auto config = trace_config(scenario);
  sim::Testbed testbed(scenario);
  harness::MultiEstimatorSession session;
  session.enable_trace_recording(config);
  session.run(testbed);
  const harness::ReplayTrace& recorded = session.trace();
  ASSERT_GT(recorded.lost, 0u) << "the outage must cost polls";

  const ReplayOutcome direct =
      replay_trace(recorded, config, testbed.nominal_period());
  ASSERT_GT(direct.reduction.evaluated, 0u);

  TraceMeta meta;
  meta.mode = harness::GroundTruthMode::kReference;
  meta.nominal_period = testbed.nominal_period();
  meta.poll_period = scenario.poll_period;
  meta.label = "sim export golden";
  const auto path = temp_path("golden.trace");
  write_trace(path.string(), meta, recorded);

  const ReadTrace loaded = read_trace(path.string());
  EXPECT_TRUE(loaded.warnings.empty());
  const ReplayOutcome replayed =
      replay_trace(loaded.trace, config, loaded.meta.nominal_period);

  EXPECT_EQ(replayed.summary.exchanges, direct.summary.exchanges);
  EXPECT_EQ(replayed.summary.lost, direct.summary.lost);
  EXPECT_EQ(replayed.summary.evaluated, direct.summary.evaluated);
  ASSERT_EQ(replayed.records.size(), direct.records.size());
  for (std::size_t i = 0; i < direct.records.size(); ++i) {
    SCOPED_TRACE(i);
    const auto& d = direct.records[i];
    const auto& r = replayed.records[i];
    EXPECT_EQ(r.index, d.index);
    EXPECT_EQ(r.lost, d.lost);
    EXPECT_EQ(r.evaluated, d.evaluated);
    EXPECT_TRUE(same_bits(r.offset_error, d.offset_error));
    EXPECT_TRUE(same_bits(r.abs_clock_error, d.abs_clock_error));
    EXPECT_TRUE(same_bits(r.naive_error, d.naive_error));
    EXPECT_TRUE(same_bits(r.reference_offset, d.reference_offset));
  }
  EXPECT_EQ(replayed.reduction.evaluated, direct.reduction.evaluated);
  expect_summary_bits(replayed.reduction.clock_error,
                      direct.reduction.clock_error);
  expect_summary_bits(replayed.reduction.offset_error,
                      direct.reduction.offset_error);
  EXPECT_TRUE(same_bits(replayed.reduction.adev_short,
                        direct.reduction.adev_short));
  EXPECT_TRUE(
      same_bits(replayed.reduction.adev_long, direct.reduction.adev_long));

  // And the file itself is a fixed point: re-exporting the loaded trace
  // reproduces it byte for byte.
  const auto path2 = temp_path("golden2.trace");
  write_trace(path2.string(), loaded.meta, loaded.trace);
  EXPECT_EQ(read_file(path), read_file(path2));
  fs::remove(path);
  fs::remove(path2);
}

TEST(TraceReplayGolden, RelativeOnlyExportScoresTrackingResidual) {
  const auto scenario = trace_scenario();
  const auto config = trace_config(scenario);
  sim::Testbed testbed(scenario);
  harness::MultiEstimatorSession session;
  session.enable_trace_recording(config);
  session.run(testbed);

  // Strip the ground truth on export — the "what would the field see" view
  // of the identical exchange stream.
  TraceMeta meta;
  meta.mode = harness::GroundTruthMode::kRelativeOnly;
  meta.nominal_period = testbed.nominal_period();
  meta.poll_period = scenario.poll_period;
  const auto path = temp_path("relative.trace");
  write_trace(path.string(), meta, session.trace());

  const ReadTrace loaded = read_trace(path.string());
  EXPECT_EQ(loaded.trace.ground_truth,
            harness::GroundTruthMode::kRelativeOnly);
  const ReplayOutcome outcome =
      replay_trace(loaded.trace, config, loaded.meta.nominal_period);

  // The clock-error series is structurally empty: no reference exists, and
  // a zero-filled summary must never masquerade as a perfect run.
  EXPECT_EQ(outcome.reduction.clock_error.count, 0u);
  ASSERT_GT(outcome.reduction.evaluated, 0u);
  EXPECT_EQ(outcome.reduction.offset_error.count,
            outcome.reduction.evaluated);

  std::size_t evaluated = 0;
  for (const auto& record : outcome.records) {
    if (record.lost) continue;
    // Relative evaluation: every post-warm-up arrival scores (there is no
    // ref_available gate — the mode has no reference to gate on).
    EXPECT_EQ(record.evaluated, !record.in_warmup);
    if (!record.evaluated) continue;
    ++evaluated;
    // The offset column carries θ̂ − θ̂_naive: the estimator's disagreement
    // with the instantaneous symmetric-path measurement, computable from
    // the four wire stamps alone.
    EXPECT_TRUE(same_bits(
        record.offset_error,
        record.report.offset_estimate - record.report.naive_offset));
    EXPECT_TRUE(same_bits(record.abs_clock_error, 0.0));
  }
  EXPECT_EQ(evaluated, outcome.reduction.evaluated);
  // 3 hours at 16 s polls leaves plenty of stretch for the short ADEV
  // scale, now computed over the tracking residual.
  EXPECT_GT(outcome.reduction.adev_short, 0.0);

  // The streaming reduction implements the same relative-mode semantics:
  // identical counts, means and ADEV, bit for bit.
  harness::ReplaySession replay(
      config, std::make_unique<harness::OfflineSmootherEstimator>(
                  config.params, loaded.meta.nominal_period));
  harness::StreamingReducerSink streaming(
      16.0, 16, 256, harness::GroundTruthMode::kRelativeOnly);
  replay.add_sink(streaming);
  replay.run(loaded.trace);
  const auto stream_reduction = streaming.reduce();
  EXPECT_EQ(stream_reduction.evaluated, outcome.reduction.evaluated);
  EXPECT_EQ(stream_reduction.clock_error.count, 0u);
  EXPECT_TRUE(same_bits(stream_reduction.offset_error.mean,
                        outcome.reduction.offset_error.mean));
  EXPECT_TRUE(same_bits(stream_reduction.adev_short,
                        outcome.reduction.adev_short));
  EXPECT_TRUE(
      same_bits(stream_reduction.adev_long, outcome.reduction.adev_long));
  fs::remove(path);
}

TEST(TraceReplayGolden, BackwardsServerStepScoresUnderBothReductionEngines) {
  // One record whose server receive stamp steps backwards (a server clock
  // step): read_trace only warns, and both reduction engines must score the
  // cell — the back-step ends an ADEV stretch instead of failing the cell.
  const auto scenario = trace_scenario();
  const auto config = trace_config(scenario);
  sim::Testbed testbed(scenario);
  harness::MultiEstimatorSession session;
  session.enable_trace_recording(config);
  session.run(testbed);
  harness::ReplayTrace stepped = session.trace();
  // The second arrived record past the midpoint steps 1 s behind the first.
  std::vector<std::size_t> arrived;
  for (std::size_t i = stepped.samples.size() / 2;
       i < stepped.samples.size() && arrived.size() < 2; ++i)
    if (!stepped.samples[i].lost) arrived.push_back(i);
  ASSERT_EQ(arrived.size(), 2u);
  stepped.samples[arrived[1]].raw.tb = stepped.samples[arrived[0]].raw.tb - 1.0;

  TraceMeta meta;
  meta.mode = harness::GroundTruthMode::kReference;
  meta.nominal_period = testbed.nominal_period();
  meta.poll_period = scenario.poll_period;
  const auto path = temp_path("back_step.trace");
  write_trace(path.string(), meta, stepped);
  ASSERT_EQ(read_trace(path.string()).warnings.size(), 1u);

  sweep::GridSpec grid;
  grid.servers = {sim::ServerKind::kInt};
  grid.environments = {sim::Environment::kLaboratory};
  grid.poll_periods = {16.0};
  grid.duration = 2 * duration::kHour;
  grid.estimators = {harness::EstimatorSpec{"offline", {}}};
  grid.trace_inputs = {path.string()};
  const sweep::ScenarioSweep sweep(grid);
  for (const bool streaming : {false, true}) {
    SCOPED_TRACE(streaming ? "streaming reduction" : "exact reduction");
    sweep::SweepOptions options;
    options.threads = 1;
    options.discard_warmup = 600.0;
    options.streaming_reduction = streaming;
    const auto results = sweep.run(options);
    ASSERT_EQ(results.size(), 2u);
    for (const auto& result : results) {
      EXPECT_FALSE(result.failed) << result.name << ": " << result.error;
      EXPECT_GT(result.evaluated, 0u) << result.name;
      EXPECT_GT(result.adev_short, 0.0) << result.name;
    }
    EXPECT_TRUE(results.back().from_trace);
  }
  fs::remove(path);
}

TEST(TraceReplayGolden, SupportsOfflineWorkflow) {
  // The intended offline pipeline without any replay estimator: record a
  // stream, persist it, reload it and smooth the reloaded quadruples
  // directly with core::smooth_offsets.
  sim::ScenarioConfig scenario;
  scenario.duration = 2 * duration::kHour;
  scenario.seed = 99;
  sim::Testbed testbed(scenario);
  harness::SessionConfig config;
  config.params = core::Params::for_poll_period(scenario.poll_period);
  harness::MultiEstimatorSession session;
  session.enable_trace_recording(config);
  session.run(testbed);

  TraceMeta meta;
  meta.mode = harness::GroundTruthMode::kReference;
  meta.nominal_period = testbed.nominal_period();
  meta.poll_period = scenario.poll_period;
  const auto path = temp_path("offline_workflow.trace");
  write_trace(path.string(), meta, session.trace());
  const ReadTrace loaded = read_trace(path.string());
  fs::remove(path);

  std::vector<core::RawExchange> raws;
  for (const auto& sample : loaded.trace.samples)
    if (!sample.lost) raws.push_back(sample.raw);
  core::Params params;
  params.poll_period = loaded.meta.poll_period;
  const auto result =
      core::smooth_offsets(raws, params, loaded.meta.nominal_period);
  EXPECT_EQ(result.offsets.size(), raws.size());
  // Smoothed offsets track the reference within tens of µs.
  std::size_t checked = 0;
  std::size_t k = 0;
  for (const auto& sample : loaded.trace.samples) {
    if (sample.lost) continue;
    const std::size_t i = k++;
    if (!sample.ref_available || i < 50) continue;
    const Seconds theta_g = result.timescale.read(sample.raw.tf) - sample.tg;
    EXPECT_NEAR(result.offsets[i], theta_g, 120e-6);
    ++checked;
  }
  EXPECT_GT(checked, 300u);
}

TEST(TraceReplayPool, TraceCellIsIdenticalOnEveryPool) {
  // Two days at a 16 s poll make several smoothing blocks, and a level
  // shift on day two gives the split variant a cut to smooth around.
  sim::ScenarioConfig scenario = trace_scenario();
  scenario.duration = 2 * duration::kDay;
  scenario.events.add_level_shift(
      {duration::kDay, sim::kForever, 4e-4, 4e-4});
  const auto config = trace_config(scenario);
  sim::Testbed testbed(scenario);
  harness::MultiEstimatorSession session;
  session.enable_trace_recording(config);
  session.run(testbed);
  ASSERT_GT(session.trace().arrived(), 2 * core::kSmoothBlock);
  TraceMeta meta;
  meta.mode = harness::GroundTruthMode::kReference;
  meta.nominal_period = testbed.nominal_period();
  meta.poll_period = scenario.poll_period;
  const auto path = temp_path("pool.trace");
  write_trace(path.string(), meta, session.trace());

  sweep::SweepScenario cell;
  cell.name = "trace:pool";
  cell.trace_path = path.string();
  const auto specs =
      harness::estimator_registry().parse_list("offline,offline(split=shifts)");

  // The serial oracle: each spec replayed without a pool.
  harness::SessionConfig lane;
  lane.params = core::Params::for_poll_period(scenario.poll_period);
  lane.emit_unevaluated = true;
  const ReadTrace loaded = read_trace(path.string());
  std::vector<std::vector<harness::SampleRecord>> oracle;
  std::size_t segments = 0;
  for (const auto& spec : specs) {
    harness::ReplaySession replay(
        lane, harness::estimator_registry().make_replay(
                  spec, lane.params, meta.nominal_period));
    harness::CollectorSink records;
    replay.add_sink(records);
    replay.run(loaded.trace);
    oracle.push_back(records.records());
    segments += dynamic_cast<const harness::OfflineSmootherEstimator&>(
                    replay.estimator())
                    .segments();
  }
  EXPECT_GT(segments, specs.size()) << "the split variant must cut";

  const auto run_cell = [&](ThreadPool* pool,
                            std::vector<harness::CollectorSink>& dumps) {
    std::vector<harness::SampleSink*> sinks;
    for (auto& dump : dumps) sinks.push_back(&dump);
    std::string lines;
    for (const auto& result : sweep::run_scenario_multi(
             cell, specs, 0, sinks, false, {}, pool)) {
      EXPECT_FALSE(result.failed) << result.error;
      lines += sweep::serialize_result(result) + "\n";
    }
    return lines;
  };
  std::vector<harness::CollectorSink> own_dumps(specs.size());
  const std::string own = run_cell(nullptr, own_dumps);
  for (std::size_t e = 0; e < specs.size(); ++e) {
    SCOPED_TRACE(specs[e].label());
    const auto& got = own_dumps[e].records();
    ASSERT_EQ(got.size(), oracle[e].size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(same_bits(got[i].report.offset_estimate,
                            oracle[e][i].report.offset_estimate))
          << "record " << i;
    }
  }
  for (const std::size_t workers : {1, 2, 4}) {
    SCOPED_TRACE(workers);
    ThreadPool pool(workers);
    std::vector<harness::CollectorSink> dumps(specs.size());
    EXPECT_EQ(run_cell(&pool, dumps), own);
    for (std::size_t e = 0; e < specs.size(); ++e) {
      ASSERT_EQ(dumps[e].records().size(), own_dumps[e].records().size());
      for (std::size_t i = 0; i < dumps[e].records().size(); ++i) {
        ASSERT_TRUE(same_bits(dumps[e].records()[i].offset_error,
                              own_dumps[e].records()[i].offset_error))
            << "record " << i;
      }
    }
  }
  fs::remove(path);
}

TEST(TraceReplayCell, OnlineSpecsAreRefusedByName) {
  // An imported trace has no Testbed to drive, so an online spec cannot
  // score it: run_scenario_multi throws naming the spec, and the sweep
  // turns that into a FAILED row for every lane of the cell while the sim
  // cell beside it still scores both specs.
  const auto scenario = trace_scenario();
  sim::Testbed testbed(scenario);
  harness::MultiEstimatorSession session;
  session.enable_trace_recording(trace_config(scenario));
  session.run(testbed);
  TraceMeta meta;
  meta.mode = harness::GroundTruthMode::kReference;
  meta.nominal_period = testbed.nominal_period();
  meta.poll_period = scenario.poll_period;
  const auto path = temp_path("refused.trace");
  write_trace(path.string(), meta, session.trace());

  const auto specs = harness::estimator_registry().parse_list("offline,robust");
  const std::string reason =
      "estimator 'robust' runs online and cannot score an imported trace "
      "cell";
  sweep::SweepScenario cell;
  cell.name = "trace:refused";
  cell.trace_path = path.string();
  try {
    (void)sweep::run_scenario_multi(cell, specs, 0);
    ADD_FAILURE() << "an online spec scored an imported trace cell";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(reason), std::string::npos)
        << e.what();
  }

  sweep::GridSpec grid;
  grid.servers = {sim::ServerKind::kInt};
  grid.environments = {sim::Environment::kLaboratory};
  grid.poll_periods = {16.0};
  grid.duration = 2 * duration::kHour;
  grid.estimators = specs;
  grid.trace_inputs = {path.string()};
  sweep::SweepOptions options;
  options.threads = 1;
  options.discard_warmup = 600.0;
  const auto results = sweep::ScenarioSweep(grid).run(options);
  ASSERT_EQ(results.size(), 4u);
  for (std::size_t e = 0; e < 2; ++e) {
    SCOPED_TRACE(specs[e].label());
    EXPECT_FALSE(results[e].failed) << results[e].error;
    const sweep::ScenarioResult& refused = results[2 + e];
    EXPECT_TRUE(refused.failed);
    EXPECT_EQ(refused.name, "trace:" + path.string());
    EXPECT_NE(refused.error.find(reason), std::string::npos) << refused.error;
  }
  fs::remove(path);
}

}  // namespace
}  // namespace tscclock::trace
