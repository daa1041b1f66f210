#include "sweep/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <span>
#include <stdexcept>

#include "common/contracts.hpp"
#include "common/table.hpp"
#include "harness/fleet_session.hpp"
#include "harness/replay.hpp"
#include "harness/sinks.hpp"
#include "sim/fleet.hpp"
#include "sweep/result_io.hpp"
#include "sweep/thread_pool.hpp"
#include "trace/trace_io.hpp"

namespace tscclock::sweep {

namespace {

/// Seed a result with the scenario's identity/grid coordinates (shared by
/// the success and failure paths so FAILED rows group correctly).
ScenarioResult result_for(const SweepScenario& scenario,
                          const harness::EstimatorSpec& estimator) {
  ScenarioResult result;
  result.scenario_index = scenario.index;
  result.name = scenario.name;
  result.seed = scenario.config.seed;
  result.server = scenario.config.server;
  result.environment = scenario.config.environment;
  result.estimator = estimator;
  return result;
}

/// Either reduction engine behind one reduce() call: the exact buffered
/// sink (golden determinism) or the O(1)-memory streaming sink.
struct LaneReducer {
  std::optional<harness::ReducerSink> exact;
  std::optional<harness::StreamingReducerSink> streaming;

  LaneReducer(double tau0, bool use_streaming,
              harness::GroundTruthMode mode =
                  harness::GroundTruthMode::kReference) {
    if (use_streaming)
      streaming.emplace(tau0, 16, 256, mode);
    else
      exact.emplace(tau0, 16, 256, mode);
  }
  [[nodiscard]] harness::SampleSink& sink() {
    return streaming ? static_cast<harness::SampleSink&>(*streaming)
                     : static_cast<harness::SampleSink&>(*exact);
  }
  [[nodiscard]] harness::ReducerSink::Reduction reduce() const {
    return streaming ? streaming->reduce() : exact->reduce();
  }
};

/// Pools every fleet lane's evaluated stream into one population summary of
/// the clock and offset errors. The pooled interleaving is deterministic
/// (client-major within each merged chunk) but its tb stamps are
/// non-monotone across clients, so the pool never computes ADEV — a fleet
/// cell's ADEV columns come from a client-0 LaneReducer instead. Exact mode
/// buffers and summarize()s (sorted percentiles, order-insensitive);
/// streaming mode runs the same Welford/P² arithmetic as the lane sinks.
class FleetPoolSink final : public harness::SampleSink {
 public:
  explicit FleetPoolSink(bool use_streaming) : streaming_(use_streaming) {}

  void on_sample(const harness::SampleRecord& record) override {
    if (record.evaluated) add(record.abs_clock_error, record.offset_error);
  }
  [[nodiscard]] bool wants_batch() const override { return true; }
  void on_batch(const harness::SampleBatch& batch) override {
    for (std::size_t i = 0; i < batch.size(); ++i)
      add(batch.abs_clock_error[i], batch.offset_error[i]);
  }

  [[nodiscard]] SeriesSummary clock_error() const {
    return streaming_ ? clock_stream_.summary() : summarize(clock_errors_);
  }
  [[nodiscard]] SeriesSummary offset_error() const {
    return streaming_ ? offset_stream_.summary() : summarize(offset_errors_);
  }

 private:
  void add(double clock_error, double offset_error) {
    if (streaming_) {
      clock_stream_.add(clock_error);
      offset_stream_.add(offset_error);
    } else {
      clock_errors_.push_back(clock_error);
      offset_errors_.push_back(offset_error);
    }
  }

  bool streaming_;
  std::vector<double> clock_errors_;
  std::vector<double> offset_errors_;
  StreamingSeriesSummary clock_stream_;
  StreamingSeriesSummary offset_stream_;
};

/// The sink slot a cell's lane `e` dumps its records into, if any.
harness::SampleSink* trace_sink_for(
    std::span<harness::SampleSink* const> trace_sinks, std::size_t e) {
  return trace_sinks.empty() ? nullptr : trace_sinks[e];
}

/// The SessionConfig every lane of every cell kind starts from: default
/// parameters for the cell's polling period and the sweep's warm-up
/// convention (cut on the observable tb_stamp, not ground truth). A lane
/// with a trace dump attached also emits its unevaluated records (lost and
/// warm-up rows, flagged) so dumps are gap-visible; the reducer filters on
/// `evaluated` either way.
harness::SessionConfig lane_config(Seconds poll_period, Seconds discard_warmup,
                                   const harness::SampleSink* trace_sink) {
  harness::SessionConfig config;
  config.params = core::Params::for_poll_period(poll_period);
  config.discard_warmup = discard_warmup;
  config.warmup_policy = harness::WarmupPolicy::kObservable;
  config.emit_unevaluated = trace_sink != nullptr;
  return config;
}

/// One lane's ScenarioResult: the grid coordinates, the drive counters of
/// its summary and the error/ADEV columns of its reduction. The testbed owns
/// the slot arithmetic and each lane records its counter after the drain,
/// so polls/skipped are exact by construction.
ScenarioResult scored_result(const SweepScenario& scenario,
                             const harness::EstimatorSpec& estimator,
                             const harness::SessionSummary& summary,
                             const harness::ReducerSink::Reduction& reduction) {
  ScenarioResult result = result_for(scenario, estimator);
  result.exchanges = summary.exchanges;
  result.lost = summary.lost;
  result.evaluated = summary.evaluated;
  result.polls = static_cast<std::size_t>(summary.polls_enumerated);
  result.skipped = result.polls - result.exchanges;
  result.final_status = summary.final_status;
  result.clock_error = reduction.clock_error;
  result.offset_error = reduction.offset_error;
  result.adev_short_tau = reduction.adev_short_tau;
  result.adev_short = reduction.adev_short;
  result.adev_long_tau = reduction.adev_long_tau;
  result.adev_long = reduction.adev_long;
  return result;
}

/// Score one replay spec over a recorded trace — a sim recording or an
/// imported file alike — through ReplaySession into a fresh LaneReducer.
/// The reduction's tau0 is the lane's polling period and its ground-truth
/// mode the trace's own. Replay estimators never step, so steps stay 0.
ScenarioResult score_replay_lane(const SweepScenario& scenario,
                                 const harness::EstimatorSpec& spec,
                                 const harness::SessionConfig& config,
                                 double nominal_period,
                                 const harness::ReplayTrace& trace,
                                 harness::SampleSink* trace_sink,
                                 bool streaming_reduction) {
  LaneReducer reducer(config.params.poll_period, streaming_reduction,
                      trace.ground_truth);
  harness::ReplaySession replay(
      config, harness::estimator_registry().make_replay(spec, config.params,
                                                        nominal_period));
  replay.add_sink(reducer.sink());
  if (trace_sink != nullptr) replay.add_sink(*trace_sink);
  const harness::SessionSummary summary = replay.run(trace);
  return scored_result(scenario, spec, summary, reducer.reduce());
}

/// The fleet-cell drive behind run_scenario_multi: one FleetTestbed +
/// FleetSession per estimator spec instead of one shared Testbed drain.
/// Each spec regenerates the fleet's merged stream from scratch — the
/// generator is deterministic in the scenario identity, so every spec
/// scores the identical packets (the estimator axis never reseeds), at the
/// cost of one extra generation pass per extra spec.
std::vector<ScenarioResult> run_fleet_scenario_multi(
    const SweepScenario& scenario,
    std::span<const harness::EstimatorSpec> estimators,
    Seconds discard_warmup, std::span<harness::SampleSink* const> trace_sinks,
    bool streaming_reduction) {
  const harness::EstimatorRegistry& registry = harness::estimator_registry();
  for (const auto& spec : estimators) {
    if (registry.is_replay(spec)) {
      throw std::runtime_error(
          "estimator '" + spec.label() +
          "' replays a recorded single-client trace and cannot score a "
          "multi-client fleet cell — drop the fleet(...) axis value or the "
          "replay spec");
    }
  }

  std::vector<ScenarioResult> results;
  results.reserve(estimators.size());
  for (std::size_t e = 0; e < estimators.size(); ++e) {
    harness::SampleSink* trace = trace_sink_for(trace_sinks, e);
    const harness::SessionConfig config =
        lane_config(scenario.config.poll_period, discard_warmup, trace);
    sim::FleetTestbed fleet(scenario.config, scenario.fleet.config);
    harness::FleetSession session;
    FleetPoolSink pool(streaming_reduction);
    LaneReducer reference(scenario.config.poll_period, streaming_reduction);
    for (std::size_t k = 0; k < fleet.client_count(); ++k) {
      session.add_client(config, registry.make_online(
                                     estimators[e], config.params,
                                     fleet.client(k).nominal_period()));
    }
    // Population summaries pool every lane; ADEV comes from client 0 alone
    // (a gap-aware ADEV over the interleaved-oscillator pool would be
    // meaningless). The trace sink sees every lane, rows tagged by the
    // client column.
    session.add_shared_sink(pool);
    session.add_sink(0, reference.sink());
    if (trace != nullptr) session.add_shared_sink(*trace);
    session.run(fleet);

    ScenarioResult result =
        scored_result(scenario, estimators[e], session.combined_summary(),
                      reference.reduce());
    for (std::size_t k = 0; k < session.client_count(); ++k)
      result.steps += session.client(k).estimator().steps();
    result.clock_error = pool.clock_error();
    result.offset_error = pool.offset_error();

    const harness::FleetReduction fleet_reduction = session.fleet_reduction();
    result.clients = fleet_reduction.clients;
    result.fleet_dispersion = fleet_reduction.dispersion;
    result.fleet_worst_p99 = fleet_reduction.worst_p99;
    result.fleet_pairwise_spread = fleet_reduction.pairwise_spread;
    results.push_back(std::move(result));
  }
  return results;
}

/// The imported-trace drive behind run_scenario_multi: no Testbed, no
/// randomness — the file IS the exchange stream, and every spec replays it
/// through the identical ReplaySession → LaneReducer path a sim-recorded
/// trace takes. The file is re-read here (cells are independent work units);
/// a read failure throws and the caller contains it as this cell's FAILED
/// rows. The reduction's tau0 and the estimator's window unit come from the
/// file header, not the grid — an imported trace carries its own polling
/// period.
std::vector<ScenarioResult> run_trace_scenario_multi(
    const SweepScenario& scenario,
    std::span<const harness::EstimatorSpec> estimators,
    std::span<harness::SampleSink* const> trace_sinks,
    bool streaming_reduction) {
  const harness::EstimatorRegistry& registry = harness::estimator_registry();
  for (const auto& spec : estimators) {
    if (!registry.is_replay(spec)) {
      throw std::runtime_error(
          "estimator '" + spec.label() +
          "' runs online and cannot score an imported trace cell — score "
          "--trace-in files with replay specs (e.g. offline)");
    }
  }
  const trace::ReadTrace loaded = trace::read_trace(scenario.trace_path);

  std::vector<ScenarioResult> results;
  results.reserve(estimators.size());
  for (std::size_t e = 0; e < estimators.size(); ++e) {
    harness::SampleSink* trace_sink = trace_sink_for(trace_sinks, e);
    // No warm-up re-cut: the in_warmup flags ride the file (set by whoever
    // recorded or imported it), and ReplaySession scores exactly those.
    harness::SessionConfig config =
        lane_config(loaded.meta.poll_period, 0, trace_sink);
    config.client_id = loaded.meta.client_id;
    ScenarioResult result = score_replay_lane(
        scenario, estimators[e], config, loaded.meta.nominal_period,
        loaded.trace, trace_sink, streaming_reduction);
    result.from_trace = true;
    result.relative_only =
        loaded.meta.mode == harness::GroundTruthMode::kRelativeOnly;
    results.push_back(std::move(result));
  }
  return results;
}

}  // namespace

std::vector<ScenarioResult> run_scenario_multi(
    const SweepScenario& scenario,
    std::span<const harness::EstimatorSpec> estimators,
    Seconds discard_warmup, std::span<harness::SampleSink* const> trace_sinks,
    bool streaming_reduction, const std::string& trace_export_path) {
  TSC_EXPECTS(!estimators.empty());
  TSC_EXPECTS(trace_sinks.empty() || trace_sinks.size() == estimators.size());

  // Imported-trace cells replay their file; nothing below applies.
  if (scenario.is_trace()) {
    TSC_EXPECTS(trace_export_path.empty());
    return run_trace_scenario_multi(scenario, estimators, trace_sinks,
                                    streaming_reduction);
  }

  // Fleet cells take the multi-client drive (FleetTestbed + FleetSession);
  // everything below is the classic single-client path, which a single()
  // fleet spec must reproduce bit-for-bit — so it stays exactly as it was.
  if (!scenario.fleet.single()) {
    if (!trace_export_path.empty()) {
      throw std::runtime_error(
          "--trace-out cannot export a multi-client fleet cell: a trace "
          "file holds exactly one client's stream");
    }
    return run_fleet_scenario_multi(scenario, estimators, discard_warmup,
                                    trace_sinks, streaming_reduction);
  }

  // The drive loop is the shared harness layer — the same canonical
  // exchange-processing sequence the figure benches use — with one
  // ClockSession lane per online estimator spec fed the identical Testbed
  // stream; the registry builds each lane's estimator from its family and
  // resolved tunables. Replay families cannot run online; the session
  // records the estimator-independent stream once and each replay lane is
  // scored post-hoc over it — same packets, same ground truth, same seeds,
  // same reduction.
  const harness::EstimatorRegistry& registry = harness::estimator_registry();
  sim::Testbed testbed(scenario.config);
  const Seconds poll_period = scenario.config.poll_period;

  const bool any_replay =
      std::any_of(estimators.begin(), estimators.end(),
                  [&](const auto& spec) { return registry.is_replay(spec); });

  harness::MultiEstimatorSession session;
  // One recording serves both consumers: the replay lanes and the trace
  // export (a --trace-out file is the recorded stream, serialized).
  if (any_replay || !trace_export_path.empty())
    session.enable_trace_recording(
        lane_config(poll_period, discard_warmup, nullptr));
  constexpr std::size_t kReplayLane = static_cast<std::size_t>(-1);
  std::vector<std::size_t> lane_of(estimators.size(), kReplayLane);
  std::vector<LaneReducer> reducers;  // one per online lane, by lane index
  reducers.reserve(estimators.size());
  for (std::size_t e = 0; e < estimators.size(); ++e) {
    if (registry.is_replay(estimators[e])) continue;
    harness::SampleSink* trace = trace_sink_for(trace_sinks, e);
    const harness::SessionConfig config =
        lane_config(poll_period, discard_warmup, trace);
    lane_of[e] = session.add_lane(
        config, registry.make_online(estimators[e], config.params,
                                     testbed.nominal_period()));
    reducers.emplace_back(poll_period, streaming_reduction);
    session.add_sink(lane_of[e], reducers.back().sink());
    if (trace != nullptr) session.add_sink(lane_of[e], *trace);
  }

  // Reducer-only lanes take the record-free fast path; lanes with a trace
  // sink attached run the per-exchange sequence inside process_batch, so
  // dumps stay row-for-row identical.
  session.run(testbed);

  if (!trace_export_path.empty()) {
    // Sim recordings carry the DAG reference; the exported file replays
    // byte-identical to the in-memory trace (the round-trip golden pins
    // this). A write failure throws and fails this scenario's cells.
    trace::TraceMeta meta;
    meta.mode = harness::GroundTruthMode::kReference;
    meta.nominal_period = testbed.nominal_period();
    meta.poll_period = poll_period;
    meta.label = scenario.name;
    trace::write_trace(trace_export_path, meta, session.trace());
  }

  std::vector<ScenarioResult> results;
  results.reserve(estimators.size());
  for (std::size_t e = 0; e < estimators.size(); ++e) {
    if (lane_of[e] == kReplayLane) {
      harness::SampleSink* trace = trace_sink_for(trace_sinks, e);
      results.push_back(score_replay_lane(
          scenario, estimators[e],
          lane_config(poll_period, discard_warmup, trace),
          testbed.nominal_period(), session.trace(), trace,
          streaming_reduction));
      continue;
    }
    harness::ClockSession& lane = session.lane(lane_of[e]);
    ScenarioResult result = scored_result(scenario, estimators[e],
                                          lane.summary(),
                                          reducers[lane_of[e]].reduce());
    result.steps = lane.estimator().steps();
    results.push_back(std::move(result));
  }
  return results;
}

ScenarioResult run_scenario(const SweepScenario& scenario,
                            Seconds discard_warmup,
                            harness::SampleSink* trace_sink) {
  const harness::EstimatorSpec specs[] = {
      harness::EstimatorSpec{"robust", {}}};
  harness::SampleSink* const sinks[] = {trace_sink};
  auto results = run_scenario_multi(
      scenario, specs, discard_warmup,
      trace_sink != nullptr ? std::span<harness::SampleSink* const>(sinks)
                            : std::span<harness::SampleSink* const>());
  return std::move(results.front());
}

namespace {

ScenarioResult failed_result(const SweepScenario& scenario,
                             const harness::EstimatorSpec& estimator,
                             std::string error) {
  ScenarioResult result = result_for(scenario, estimator);
  result.failed = true;
  result.error = std::move(error);
  return result;
}

}  // namespace

ScenarioSweep::ScenarioSweep(GridSpec grid)
    : grid_(std::move(grid)), scenarios_(expand_grid(grid_)) {}

std::vector<ScenarioResult> ScenarioSweep::run(
    const SweepOptions& options) const {
  // One result row per (owned scenario, estimator spec), scenario-major.
  // The shard slice partitions by *scenario* — the estimator fan-out of a
  // scenario shares one Testbed drain (and a replay lane its recording), so
  // a scenario is the indivisible work unit.
  const std::vector<harness::EstimatorSpec>& estimators = grid_.estimators;
  const std::size_t lanes = estimators.size();
  const ShardSpec shard = options.shard;
  const std::vector<std::size_t> owned =
      shard_scenarios(scenarios_.size(), shard);
  std::vector<ScenarioResult> results(owned.size() * lanes);

  csv_error_.clear();
  checkpoint_error_.clear();
  dump_error_.clear();
  const bool dump_csv = !options.csv_path.empty();

  // --trace-out exports THE scenario's recorded stream: with several
  // scenarios (or a fleet, or an imported trace as the source) the file's
  // contents would be ambiguous or impossible, so anything but the
  // single-plain-scenario shape is a usage error, before any work runs.
  if (!options.trace_out.empty()) {
    if (scenarios_.size() != 1) {
      throw SweepUsageError(strfmt(
          "--trace-out exports exactly one scenario's stream, but this grid "
          "expands to %zu scenarios — narrow the axes to a single cell",
          scenarios_.size()));
    }
    if (scenarios_.front().is_trace()) {
      throw SweepUsageError(
          "--trace-out cannot re-export a --trace-in file (it already is a "
          "trace; use tools/trace-import to canonicalize)");
    }
    if (!scenarios_.front().fleet.single()) {
      throw SweepUsageError(
          "--trace-out cannot export a multi-client fleet cell: a trace "
          "file holds exactly one client's stream");
    }
  }

  std::vector<std::string> labels;
  labels.reserve(lanes);
  for (const auto& spec : estimators) labels.push_back(spec.label());
  const std::uint64_t run_hash = sweep_run_hash(
      grid_, options.discard_warmup, options.streaming_reduction);

  // Shard result dump: the header is written (fail fast on an unwritable
  // path) before any scenario runs; the cells complete the file at the end.
  std::optional<ShardDumpWriter> dump;
  if (!options.dump_path.empty()) {
    ShardDumpHeader header;
    header.run_hash = run_hash;
    header.shard = shard;
    header.scenario_total = scenarios_.size();
    header.duration = grid_.duration;
    header.master_seed = grid_.master_seed;
    header.estimator_labels = labels;
    dump.emplace(options.dump_path, header, results.size());
  }

  // Checkpoint: an existing file resumes (its committed scenario prefix is
  // loaded into the result slots and skipped below; a torn tail is
  // truncated away), a missing one starts fresh. Incompatible checkpoints
  // throw SweepUsageError here, before any scenario runs.
  std::size_t committed = 0;
  std::uint64_t csv_resume_bytes = 0;
  std::optional<CheckpointWriter> checkpoint;
  if (!options.checkpoint_path.empty()) {
    CheckpointHeader header;
    header.run_hash = run_hash;
    header.shard = shard;
    header.with_csv = dump_csv;
    if (std::filesystem::exists(options.checkpoint_path)) {
      CheckpointLoad load =
          load_checkpoint(options.checkpoint_path, header, scenarios_, labels);
      committed = load.committed_scenarios;
      csv_resume_bytes = load.csv_bytes;
      TSC_ENSURES(load.results.size() == committed * lanes);
      for (std::size_t k = 0; k < load.results.size(); ++k)
        results[k] = std::move(load.results[k]);
      checkpoint.emplace(options.checkpoint_path, load.valid_bytes);
    } else {
      checkpoint.emplace(options.checkpoint_path, header);
    }
  }

  // Trace dumping buffers each remaining (scenario, estimator) cell's
  // records in its own collector (the workers must not share a file writer)
  // and serializes them to the CSV in grid order, so the dump is
  // deterministic like the rest of the reduction. The sink is opened before
  // any work runs — an unwritable path must fail fast, not after a long
  // sweep has completed. On a resume with committed scenarios, the file is
  // truncated to the last committed watermark (dropping rows of the
  // scenario that was in flight when the run died) and appended to — the
  // committed prefix is kept byte-for-byte.
  std::optional<harness::CsvTraceSink> csv;
  if (dump_csv) {
    if (committed > 0) {
      std::error_code ec;
      const auto size =
          std::filesystem::file_size(options.csv_path, ec);
      if (ec || size < csv_resume_bytes) {
        throw SweepUsageError(
            "checkpoint " + options.checkpoint_path + " commits " +
            std::to_string(csv_resume_bytes) + " trace-CSV bytes but " +
            options.csv_path +
            (ec ? " is missing" : " is shorter than that") +
            " — restore the matching trace file or delete the checkpoint");
      }
      std::filesystem::resize_file(options.csv_path, csv_resume_bytes);
      csv.emplace(options.csv_path, harness::CsvTraceSink::Append{});
    } else {
      csv.emplace(options.csv_path);
    }
  }

  const std::size_t remaining = owned.size() - committed;
  std::vector<std::unique_ptr<harness::CollectorSink>> collectors;
  if (dump_csv) {
    collectors.resize(remaining * lanes);
    for (auto& c : collectors) c = std::make_unique<harness::CollectorSink>();
  }

  // The commit pipeline: workers finish scenarios in pool order, one
  // drainer at a time commits them in grid order — first the scenario's
  // trace rows, then its checkpoint record carrying the post-row CSV byte
  // watermark. The file I/O happens outside the lock, so other finishing
  // workers only ever take the mutex to mark completion (never stalling
  // behind a write); scenarios completed while the drainer was writing are
  // picked up when it re-checks under the lock.
  std::mutex commit_mutex;
  std::vector<char> scenario_ready(remaining, 0);
  std::size_t next_to_commit = 0;
  bool draining = false;
  const bool need_drainer = dump_csv || checkpoint.has_value();

  if (remaining > 0) {
    // No point spawning more workers than there are scenarios left.
    ThreadPool pool(std::min(
        ThreadPool::resolve_thread_count(options.threads), remaining));
    const Seconds warmup = options.discard_warmup;
    parallel_for(pool, remaining, [&](std::size_t j) {
      const std::size_t slot = committed + j;
      const SweepScenario& scenario = scenarios_[owned[slot]];
      // Contain failures to their grid cells: one throwing scenario must
      // not discard the rest of a long sweep.
      try {
        std::vector<harness::SampleSink*> trace_sinks;
        if (dump_csv) {
          trace_sinks.reserve(lanes);
          for (std::size_t e = 0; e < lanes; ++e)
            trace_sinks.push_back(collectors[j * lanes + e].get());
        }
        auto cell_results = run_scenario_multi(scenario, estimators, warmup,
                                               trace_sinks,
                                               options.streaming_reduction,
                                               options.trace_out);
        for (std::size_t e = 0; e < lanes; ++e)
          results[slot * lanes + e] = std::move(cell_results[e]);
      } catch (const std::exception& e) {
        for (std::size_t k = 0; k < lanes; ++k)
          results[slot * lanes + k] =
              failed_result(scenario, estimators[k], e.what());
      } catch (...) {
        for (std::size_t k = 0; k < lanes; ++k)
          results[slot * lanes + k] =
              failed_result(scenario, estimators[k], "unknown exception");
      }
      if (!need_drainer) return;
      std::unique_lock<std::mutex> lock(commit_mutex);
      scenario_ready[j] = 1;
      if (draining) return;
      draining = true;
      while (next_to_commit < remaining && scenario_ready[next_to_commit]) {
        const std::size_t ready = next_to_commit;
        const std::size_t ready_slot = committed + ready;
        std::vector<std::unique_ptr<harness::CollectorSink>> buffers;
        if (dump_csv) {
          buffers.reserve(lanes);
          for (std::size_t e = 0; e < lanes; ++e)
            buffers.push_back(std::move(collectors[ready * lanes + e]));
        }
        ++next_to_commit;
        lock.unlock();
        // A FAILED cell's buffer holds a silently truncated trace — drop
        // it (its absence from the dump mirrors the FAILED row in the
        // report). A mid-run write failure (disk full) aborts the dump but
        // not the sweep: buffers still drain (bounded memory) and the
        // error is reported via csv_error() alongside the intact results.
        if (csv) {
          try {
            for (std::size_t e = 0; e < lanes; ++e) {
              const ScenarioResult& cell = results[ready_slot * lanes + e];
              if (cell.failed) continue;
              csv->set_scenario(cell.name);
              csv->set_estimator(labels[e]);
              for (const auto& record : buffers[e]->records())
                csv->on_sample(record);
            }
          } catch (const std::exception& e) {
            csv_error_ = e.what();
            csv.reset();
            // Later checkpoint records would carry watermarks into a file
            // that stopped growing; a resume would then silently lose the
            // missing rows. Suspend checkpointing too — the committed
            // prefix stays valid and a resume recomputes the rest.
            if (checkpoint) {
              checkpoint_error_ =
                  "suspended after the trace CSV dump failed: " + csv_error_;
              checkpoint.reset();
            }
          }
        }
        if (checkpoint) {
          try {
            checkpoint->record_scenario(
                std::span<const ScenarioResult>(&results[ready_slot * lanes],
                                                lanes),
                owned[ready_slot], csv ? csv->byte_offset() : 0);
          } catch (const std::exception& e) {
            // Same containment as the CSV: keep the sweep's results, stop
            // extending the checkpoint, report via checkpoint_error().
            checkpoint_error_ = e.what();
            checkpoint.reset();
          }
        }
        lock.lock();
      }
      draining = false;
    });
  }
  if (csv) {
    try {
      csv->close();  // surface a failed final flush, not just failed writes
    } catch (const std::exception& e) {
      csv_error_ = e.what();
    }
  }
  if (checkpoint) {
    try {
      checkpoint->close();
    } catch (const std::exception& e) {
      checkpoint_error_ = e.what();
    }
  }
  if (dump) {
    try {
      dump->write_cells(results);
    } catch (const std::exception& e) {
      dump_error_ = e.what();
    }
  }
  return results;
}

namespace {

/// Medians-of-medians aggregate for one group key (server kind or
/// environment).
struct GroupAggregate {
  std::vector<double> medians;       ///< per-scenario |median| clock error
  std::vector<double> tails;         ///< per-scenario worst |tail| clock error
  std::size_t scenarios = 0;
  std::size_t evaluated = 0;
  std::size_t lost = 0;
};

void add_to_group(GroupAggregate& group, const ScenarioResult& r) {
  ++group.scenarios;
  group.evaluated += r.evaluated;
  group.lost += r.lost;
  // A scenario with no evaluable points has no error summary; counting its
  // zero-initialized percentiles would misread total data loss as perfect
  // synchronization.
  if (r.evaluated == 0) return;
  group.medians.push_back(std::fabs(r.clock_error.percentiles.p50));
  // The error distributions are negatively biased (asymmetric forward
  // paths), so the worst tail can sit at either percentile extreme.
  group.tails.push_back(std::max(std::fabs(r.clock_error.percentiles.p01),
                                 std::fabs(r.clock_error.percentiles.p99)));
}

void print_group_table(std::ostream& os, const std::string& axis,
                       const std::map<std::string, GroupAggregate>& groups) {
  TablePrinter table({axis, "scenarios", "evaluated", "lost",
                      "median |err| [us]", "worst |tail| [us]"});
  for (const auto& [key, group] : groups) {
    const bool has_data = !group.medians.empty();
    table.add_row(
        {key, format_count(group.scenarios), format_count(group.evaluated),
         format_count(group.lost),
         has_data ? strfmt("%.1f", percentile(group.medians, 0.5) * 1e6)
                  : std::string("n/a"),
         has_data ? strfmt("%.1f", *std::max_element(group.tails.begin(),
                                                     group.tails.end()) *
                                       1e6)
                  : std::string("n/a")});
  }
  table.print(os);
}

}  // namespace

void print_sweep_report(std::ostream& os,
                        const std::vector<ScenarioResult>& results) {
  // Distinct estimator labels, in order of first appearance (= grid axis
  // order). The canonical label is the spec's identity, so parameterized
  // variants of one family group as separate lanes.
  std::vector<std::string> estimators;
  for (const auto& r : results) {
    const std::string label = r.estimator.label();
    if (std::find(estimators.begin(), estimators.end(), label) ==
        estimators.end()) {
      estimators.push_back(label);
    }
  }
  // Relative-only cells surface their tracking percentiles only in the
  // comparison table (the summary's absolute columns are structurally n/a
  // for them), so any such cell forces the table even single-estimator.
  const bool any_relative =
      std::any_of(results.begin(), results.end(),
                  [](const ScenarioResult& r) { return r.relative_only; });
  const bool multi = estimators.size() > 1 || any_relative;

  print_banner(os, "Per-scenario summary");
  TablePrinter table({"scenario", "estimator", "polls", "skip", "lost",
                      "eval", "sw", "steps", "median [us]", "p99 [us]",
                      "ADEV(short)", "ADEV(long)"});
  for (const auto& r : results) {
    const std::string estimator = r.estimator.label();
    if (r.failed) {
      table.add_row({r.name, estimator, "FAILED", "-", "-", "-", "-", "-",
                     "-", "-", "-", "-"});
      continue;
    }
    // No points in the clock-error series → no absolute statistics; zeros
    // here would be indistinguishable from a perfect run. Relative-only
    // trace cells land here by construction (count 0): their absolute
    // columns are structurally n/a while eval/ADEV stay populated.
    const bool has_data = r.clock_error.count > 0;
    table.add_row({r.name, estimator, format_count(r.polls),
                   format_count(r.skipped),
                   format_count(r.lost), format_count(r.evaluated),
                   format_count(r.final_status.server_changes),
                   format_count(r.steps),
                   has_data ? strfmt("%.1f", r.clock_error.percentiles.p50 * 1e6)
                            : std::string("n/a"),
                   has_data ? strfmt("%.1f", r.clock_error.percentiles.p99 * 1e6)
                            : std::string("n/a"),
                   r.adev_short > 0 ? strfmt("%.3f PPM", to_ppm(r.adev_short))
                                    : std::string("n/a"),
                   r.adev_long > 0 ? strfmt("%.3f PPM", to_ppm(r.adev_long))
                                   : std::string("n/a")});
  }
  table.print(os);
  for (const auto& r : results) {
    if (r.failed) {
      os << "FAILED " << r.name << " [" << r.estimator.label()
         << "]: " << r.error << "\n";
    }
  }

  if (multi) {
    // Per-cell head-to-head: every estimator's clock-error percentiles on
    // the identical seed/exchange stream, rendered by the same
    // percentile_row_us the figure benches use.
    print_banner(os, "Estimator comparison (identical seeds per scenario)");
    auto headers = percentile_headers("scenario / estimator");
    headers.push_back("steps");
    TablePrinter comparison(headers);
    for (const auto& r : results) {
      std::string label = r.name + " / " + r.estimator.label();
      // Relative-only rows have no absolute percentiles; their tracking
      // residual rides the same columns, marked so the two error kinds are
      // never silently compared across rows.
      const SeriesSummary& series =
          r.relative_only ? r.offset_error : r.clock_error;
      if (r.failed || series.count == 0) {
        comparison.add_row({label, "-", "-", "-", "-", "-", "-",
                            r.failed ? "FAILED" : "n/a"});
        continue;
      }
      if (r.relative_only) label += " (rel)";
      auto row = percentile_row_us(label, series.percentiles);
      row.push_back(format_count(r.steps));
      comparison.add_row(std::move(row));
    }
    comparison.print(os);
  }

  // Fleet cells get their population metrics alongside the pooled summary
  // rows above: how tightly the fleet agrees (dispersion, pairwise spread)
  // and how bad its worst client's tail is.
  if (std::any_of(results.begin(), results.end(),
                  [](const ScenarioResult& r) { return r.clients > 1; })) {
    print_banner(os, "Fleet metrics (multi-client cells)");
    TablePrinter fleet_table({"scenario", "estimator", "clients", "eval",
                              "dispersion [us]", "worst p99 [us]",
                              "spread [us]"});
    for (const auto& r : results) {
      if (r.failed || r.clients <= 1) continue;
      const bool has_data = r.evaluated > 0;
      fleet_table.add_row(
          {r.name, r.estimator.label(), format_count(r.clients),
           format_count(r.evaluated),
           has_data ? strfmt("%.2f", r.fleet_dispersion * 1e6)
                    : std::string("n/a"),
           has_data ? strfmt("%.1f", r.fleet_worst_p99 * 1e6)
                    : std::string("n/a"),
           has_data ? strfmt("%.2f", r.fleet_pairwise_spread * 1e6)
                    : std::string("n/a")});
    }
    fleet_table.print(os);
  }

  // Aggregates stay per estimator: mixing algorithms in one group would
  // average incomparable error regimes.
  std::map<std::string, GroupAggregate> by_server;
  std::map<std::string, GroupAggregate> by_environment;
  for (const auto& r : results) {
    // Imported-trace cells carry placeholder grid coordinates (a file has
    // no server/environment axis) and would silently skew the aggregates.
    if (r.failed || r.from_trace) continue;
    const std::string suffix =
        multi ? " / " + r.estimator.label() : std::string();
    add_to_group(by_server[sim::to_string(r.server) + suffix], r);
    add_to_group(by_environment[sim::to_string(r.environment) + suffix], r);
  }

  print_banner(os, "Aggregate by server");
  print_group_table(os, "server", by_server);
  print_banner(os, "Aggregate by environment");
  print_group_table(os, "environment", by_environment);
}

}  // namespace tscclock::sweep
