// trace_replay: export a recorded month-scale `stress` trace with
// trace::write_trace, read it back with trace::read_trace, and score it with
// offline and offline(split=shifts) under the exact ReducerSink — the sweep's
// imported-trace cell (run_scenario_multi on a trace scenario). sim and the
// pool are bypassed: the trace writer and hexfloat parser and the non-causal
// core::smooth_offsets do the work, and the exact buffered reduction (sort +
// ADEV) stands in for the other workloads' streaming one.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

#include "common.hpp"
#include "common/table.hpp"
#include "harness/replay.hpp"
#include "sim/scenario.hpp"
#include "spans.hpp"
#include "timed.hpp"
#include "trace/trace_io.hpp"

namespace perfbench {

namespace {

namespace trace = tscclock::trace;

/// One write + replay with its probes and the set-up block after it, at the
/// baseline's speed (run_units).
constexpr double kUnitSeconds = 2.0;

sweep::GridSpec source_grid(std::uint64_t seed) {
  sweep::GridSpec grid;
  grid.servers = {sim::ServerKind::kInt};
  grid.environments = {sim::Environment::kMachineRoom};
  grid.poll_periods = {16.0};
  grid.schedules = {stress_schedule(kMonth)};
  grid.estimators =
      harness::estimator_registry().parse_list("offline,offline(split=shifts)");
  grid.duration = kMonth;
  grid.master_seed = seed;
  return grid;
}

struct Source {
  sweep::SweepScenario cell;  ///< the imported-trace cell replaying the file
  std::vector<harness::EstimatorSpec> estimators;
  harness::ReplayTrace trace;
  trace::TraceMeta meta;
};

/// Simulate and record the source trace: the recording run_scenario_multi
/// makes for replay lanes (one Testbed drain, no online lane).
Source record_source(std::uint64_t seed, const std::string& path) {
  const sweep::GridSpec grid = source_grid(seed);
  const sweep::SweepScenario scenario = sweep::expand_grid(grid).front();
  sim::Testbed testbed(scenario.config);
  harness::MultiEstimatorSession session;
  session.enable_trace_recording(
      sweep_session_config(scenario.config.poll_period));
  session.run_batched(testbed);

  Source source;
  source.trace = session.trace();
  source.meta.mode = harness::GroundTruthMode::kReference;
  source.meta.nominal_period = testbed.nominal_period();
  source.meta.poll_period = scenario.config.poll_period;
  source.meta.label = scenario.name;
  source.estimators = grid.estimators;
  // The cell is named after the source scenario, not the scratch path, so
  // the results digest does not depend on where the file lives.
  source.cell.name = "trace:" + scenario.name;
  source.cell.trace_path = path;
  source.cell.config.seed =
      sweep::scenario_seed(grid.master_seed, source.cell.name);
  return source;
}

/// The scratch trace file, removed when the run ends.
class ScratchFile {
 public:
  explicit ScratchFile(const std::string& dir) {
    std::filesystem::create_directories(dir);
    path_ = dir + "/trace_replay-" + std::to_string(::getpid()) + ".trace";
  }
  ~ScratchFile() {
    std::error_code ignored;
    std::filesystem::remove(path_, ignored);
  }
  ScratchFile(const ScratchFile&) = delete;
  ScratchFile& operator=(const ScratchFile&) = delete;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// A refused file fails every cell of the unit; its records count as
/// refused too.
void count_records(Report& report,
                   std::span<const sweep::ScenarioResult> results,
                   std::size_t records) {
  report.attempted += records;
  bool all_failed = !results.empty();
  for (const auto& result : results) all_failed = all_failed && result.failed;
  if (all_failed) report.failed += records;
}

/// What the per-layer counts read from one offline lane.
struct OfflineStats {
  bool split = false;
  std::size_t segments = 0;
  std::size_t poor_windows = 0;
  std::size_t packets = 0;
};

/// run_scenario_multi's imported-trace drive rebuilt from public pieces so
/// each call into a layer is a span: the smoother's process_trace
/// (core.offline or core.offline_split), the rest of ReplaySession::run
/// (harness.replay: record emission into a CollectorSink), and the exact
/// reducer's feed and reduce() (harness.reduce_exact). ReplaySession hands
/// its sinks one record at a time, so a span per record would time mostly
/// the tracer; the reducer is instead fed the collected records, in emission
/// order, in one span after the replay. harness.replay therefore includes one
/// vector append per record that the untraced drive does not make. The
/// caller checks the cells bit-identical to run_scenario_multi's.
std::vector<sweep::ScenarioResult> replay_lanes(
    const Source& source, const trace::TraceMeta& meta,
    const harness::ReplayTrace& replayed, SpanTracer& tracer,
    std::vector<OfflineStats>& stats) {
  const harness::EstimatorRegistry& registry = harness::estimator_registry();
  harness::SessionConfig config;
  config.params = core::Params::for_poll_period(meta.poll_period);
  config.discard_warmup = 0;  // the in_warmup flags ride the file
  config.client_id = meta.client_id;

  std::vector<sweep::ScenarioResult> results;
  for (const auto& spec : source.estimators) {
    const bool split = registry.resolve(spec).get_choice("split") == "shifts";
    harness::CollectorSink emitted;
    auto estimator = std::make_unique<TimedReplayEstimator>(
        registry.make_replay(spec, config.params, meta.nominal_period), tracer,
        split ? "core.offline_split" : "core.offline");
    const TimedReplayEstimator& timed_estimator = *estimator;
    harness::ReplaySession replay(config, std::move(estimator));
    replay.add_sink(emitted);
    const harness::SessionSummary summary =
        tracer.time("harness.replay", [&] { return replay.run(replayed); });

    sweep::ScenarioResult result = cell_result(source.cell, spec);
    result.from_trace = true;
    result.relative_only = meta.mode == harness::GroundTruthMode::kRelativeOnly;
    fill_summary(result, summary);
    fill_reduction(result, tracer.time("harness.reduce_exact", [&] {
      harness::ReducerSink reducer(meta.poll_period, kAdevShort, kAdevLong,
                                   meta.mode);
      for (const auto& record : emitted.records()) reducer.on_sample(record);
      return reducer.reduce();
    }));
    results.push_back(std::move(result));

    OfflineStats lane;
    lane.split = split;
    if (const auto* offline =
            dynamic_cast<const harness::OfflineSmootherEstimator*>(
                &timed_estimator.inner())) {
      lane.segments = offline->segments();
      lane.poor_windows = offline->result().poor_windows;
      lane.packets = offline->result().offsets.size();
    }
    stats.push_back(lane);
  }
  return results;
}

Report untraced(const RunOptions& options) {
  Report report;
  const ScratchFile file(options.scratch_dir);
  // The unit streams a 28 MB file and 162k-record buffers: the large probe.
  RateMeter meter(1, kProbeLarge);
  // Set-up: simulating and recording the month-long source trace. Each unit
  // below replays the latest recording, so a recording that changed between
  // set-ups shows as a changed digest.
  std::optional<Source> source;
  SetupTimer setup(
      1, [&] { source.emplace(record_source(options.seed, file.path())); });
  setup.block(meter.probe());

  const std::size_t records = source->trace.exchanges;
  std::vector<sweep::ScenarioResult> first;
  std::uint64_t digest = 0;
  run_units(options.seconds, kUnitSeconds, [&] {
    std::vector<sweep::ScenarioResult> results;
    meter.time([&] {
      trace::write_trace(file.path(), source->meta, source->trace);
      results = run_cell(source->cell, source->estimators, false);
      return static_cast<double>(records);
    });
    count_cells(report, results);
    count_records(report, results, records);
    const std::uint64_t d = results_digest(results);
    if (first.empty()) {
      digest = d;
      first = std::move(results);
    } else {
      report.check(d == digest, "results digest changed between replays");
    }
    setup.block(meter.last_speed());
  });
  check_cells(report, first);
  for (const auto& cell : first) {
    report.check(cell.failed || (cell.exchanges == records &&
                                 cell.lost == source->trace.lost),
                 "replayed cell counts differ from the recording");
  }
  report.notes.push_back("results digest " + hex64(digest) + " over " +
                         std::to_string(meter.wall_rates().size()) +
                         " replays of " +
                         std::to_string(records) + " records");
  set_end_to_end(report, meter, setup, lane_accuracy(first, "offline"));
  return report;
}

Report traced(const RunOptions& options) {
  Report report;
  const ScratchFile file(options.scratch_dir);
  const Source source = record_source(options.seed, file.path());
  const harness::ReplayTrace& recorded = source.trace;

  double start = now_s();
  trace::write_trace(file.path(), source.meta, recorded);
  const double written = now_s();
  const auto untraced_cells = run_cell(source.cell, source.estimators, false);
  const double stop = now_s();
  const double cell_s = stop - written;
  const std::uint64_t digest = results_digest(untraced_cells);
  count_cells(report, untraced_cells);
  count_records(report, untraced_cells, recorded.exchanges);
  check_cells(report, untraced_cells);

  SteadyClock clock;
  SpanTracer tracer(clock);
  std::vector<OfflineStats> stats;
  const double traced_start = clock.now();
  tracer.time("trace.write", [&] {
    trace::write_trace(file.path(), source.meta, recorded);
  });
  const trace::ReadTrace loaded =
      tracer.time("trace.read", [&] { return trace::read_trace(file.path()); });
  const auto hand = replay_lanes(source, loaded.meta, loaded.trace, tracer, stats);
  const double traced_wall = clock.now() - traced_start;
  report.check(results_digest(hand) == digest,
               "traced replay differs from run_scenario_multi");
  for (const auto& warning : loaded.warnings)
    report.check(false, "read_trace warned: " + warning);

  // The exported file replays bit-identical to the in-memory recording.
  SpanTracer unused_tracer(clock);
  std::vector<OfflineStats> unused_stats;
  report.check(results_digest(replay_lanes(source, source.meta, recorded,
                                           unused_tracer, unused_stats)) ==
                   digest,
               "the in-memory recording replays differently from its file");

  const double bytes =
      static_cast<double>(std::filesystem::file_size(file.path()));
  const double write_s = tracer.stats("trace.write").self_s;
  const double read_s = tracer.stats("trace.read").self_s;
  const double exchanges = static_cast<double>(recorded.exchanges);
  report.set("trace.write_s", write_s);
  report.set("trace.bytes", bytes);
  report.set("trace.write_mb_per_s", bytes / 1e6 / write_s);
  report.set("trace.read_s", read_s);
  report.set("trace.read_rec_per_s", exchanges / read_s);
  report.set("core.offline_s", tracer.stats("core.offline").self_s);
  report.set("core.offline_split_s", tracer.stats("core.offline_split").self_s);
  report.set("harness.replay_emit_s", tracer.stats("harness.replay").self_s);
  report.set("harness.reduce_exact_s",
             tracer.stats("harness.reduce_exact").self_s);
  report.set("sweep.cell_s_p50", cell_s);
  report.set("sweep.cell_s_max", cell_s);
  report.set("sim.exchanges", exchanges);
  report.set("sim.lost", static_cast<double>(recorded.lost));
  report.set("harness.evaluated", static_cast<double>(hand.front().evaluated));
  for (const auto& lane : stats) {
    if (lane.split) {
      report.set("core.offline_segments", static_cast<double>(lane.segments));
    } else if (lane.packets > 0) {
      report.set("core.poor_window_frac",
                 static_cast<double>(lane.poor_windows) /
                     static_cast<double>(lane.packets));
    }
  }
  set_accounting(report, tracer, traced_wall, stop - start);
  report.notes.push_back(tscclock::strfmt(
      "results digest %s: %zu records, %.0f bytes; run_scenario_multi %.3f s, "
      "traced write+read+replay %.3f s",
      hex64(digest).c_str(), recorded.exchanges, bytes, cell_s, traced_wall));
  return report;
}

}  // namespace

Report run_trace_replay(const RunOptions& options) {
  return options.trace ? traced(options) : untraced(options);
}

}  // namespace perfbench
