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
#include <string_view>
#include <system_error>

#include "common/contracts.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "harness/fleet_session.hpp"
#include "harness/replay.hpp"
#include "harness/sinks.hpp"
#include "sim/fleet.hpp"
#include "sweep/result_io.hpp"
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

}  // namespace

std::vector<ScenarioResult> run_scenario_multi(
    const SweepScenario& scenario,
    std::span<const harness::EstimatorSpec> estimators,
    Seconds discard_warmup, std::span<harness::SampleSink* const> trace_sinks,
    bool streaming_reduction, const std::string& trace_export_path,
    ThreadPool* pool) {
  TSC_EXPECTS(!estimators.empty());
  TSC_EXPECTS(trace_sinks.empty() || trace_sinks.size() == estimators.size());
  const harness::Percentiles percentiles = streaming_reduction
                                               ? harness::Percentiles::kSketch
                                               : harness::Percentiles::kExact;

  // Fleet cells, trace files and replay lanes spread their work over the
  // caller's pool, or over one of their own with a thread per usable CPU.
  std::optional<ThreadPool> own_pool;
  const auto cell_pool = [&]() -> ThreadPool& {
    if (pool != nullptr) return *pool;
    if (!own_pool) own_pool.emplace();
    return *own_pool;
  };

  // One session scores every (client, online spec) lane: single() cells
  // drain a Testbed, fleet cells a FleetTestbed on the pool, and each
  // client's stream is generated once however many specs score it; the
  // registry builds each lane's estimator from its family and resolved
  // tunables. Replay families cannot run online: each replay lane is scored
  // post-hoc over one trace — a single() cell's recording of its drain (same
  // packets, ground truth and seeds as the online lanes), or an imported
  // cell's file, which has no online lanes.
  const harness::EstimatorRegistry& registry = harness::estimator_registry();
  const bool trace_cell = scenario.is_trace();
  const bool fleet_cell = !scenario.fleet.single();
  const auto is_replay = [&](const harness::EstimatorSpec& spec) {
    return registry.is_replay(spec);
  };
  TSC_EXPECTS(!trace_cell || trace_export_path.empty());
  const auto online_spec =
      std::find_if_not(estimators.begin(), estimators.end(), is_replay);
  if (trace_cell && online_spec != estimators.end()) {
    throw std::runtime_error(
        "estimator '" + online_spec->label() +
        "' runs online and cannot score an imported trace cell — score "
        "--trace-in files with replay specs (e.g. offline)");
  }
  const auto replay_spec =
      std::find_if(estimators.begin(), estimators.end(), is_replay);
  const bool any_replay = replay_spec != estimators.end();
  if (fleet_cell && any_replay) {
    throw std::runtime_error(
        "estimator '" + replay_spec->label() +
        "' replays a recorded single-client trace and cannot score a "
        "multi-client fleet cell — drop the fleet(...) axis value or the "
        "replay spec");
  }
  if (fleet_cell && !trace_export_path.empty()) {
    throw std::runtime_error(
        "--trace-out cannot export a multi-client fleet cell: a trace "
        "file holds exactly one client's stream");
  }

  // The file is re-read here (cells are independent work units); a read
  // failure throws and the caller contains it as this cell's FAILED rows.
  std::optional<trace::ReadTrace> imported;
  std::optional<sim::Testbed> testbed;
  std::optional<sim::FleetTestbed> fleet;
  if (trace_cell)
    imported.emplace(trace::read_trace(scenario.trace_path, &cell_pool()));
  else if (fleet_cell)
    fleet.emplace(scenario.config, scenario.fleet.config);
  else
    testbed.emplace(scenario.config);
  const std::size_t clients = fleet_cell ? fleet->client_count() : 1;
  const auto client = [&](std::size_t k) -> sim::Testbed& {
    return fleet_cell ? fleet->client(k) : *testbed;
  };
  const Seconds poll_period = scenario.config.poll_period;

  harness::MultiEstimatorSession session;
  // One recording serves both consumers: the replay lanes and the trace
  // export (a --trace-out file is the recorded stream, serialized).
  const bool record = testbed && (any_replay || !trace_export_path.empty());
  if (record)
    session.enable_trace_recording(
        lane_config(poll_period, discard_warmup, nullptr));

  // Per online spec: one lane per client, a client-0 reducer (the cell's
  // summaries, and its ADEV: an ADEV over the pool would interleave
  // unrelated oscillators) and, in a fleet cell, a pooled reducer and one
  // probe per client. The trace sink sees every lane of its spec, rows
  // tagged by the client column.
  struct OnlineSpec {
    std::vector<std::size_t> lanes;  ///< client k's lane at position k
    harness::ReducerSink reference;
    harness::ReducerSink population;
    std::vector<harness::FleetClientProbe> probes;
  };
  std::vector<std::unique_ptr<OnlineSpec>> online(estimators.size());
  for (std::size_t e = 0; e < estimators.size(); ++e) {
    if (is_replay(estimators[e])) continue;
    harness::SampleSink* trace = trace_sink_for(trace_sinks, e);
    harness::SessionConfig config =
        lane_config(poll_period, discard_warmup, trace);
    online[e] = std::make_unique<OnlineSpec>(OnlineSpec{
        {},
        harness::ReducerSink(poll_period, 16, 256,
                             harness::GroundTruthMode::kReference,
                             percentiles),
        harness::ReducerSink(percentiles),
        std::vector<harness::FleetClientProbe>(fleet_cell ? clients : 0)});
    OnlineSpec& spec = *online[e];
    for (std::size_t k = 0; k < clients; ++k) {
      config.client_id = static_cast<std::uint32_t>(k);
      spec.lanes.push_back(session.add_lane(
          config, registry.make_online(estimators[e], config.params,
                                       client(k).nominal_period())));
      if (fleet_cell) session.add_sink(spec.lanes.back(), spec.probes[k]);
    }
    session.add_sink(spec.lanes.front(), spec.reference);
    if (fleet_cell) session.add_shared_sink(spec.lanes, spec.population);
    if (trace != nullptr) session.add_shared_sink(spec.lanes, *trace);
  }

  // Reducer-only lanes take the record-free fast path; lanes with a trace
  // sink attached run the per-exchange sequence inside process_batch, so
  // dumps stay row-for-row identical.
  if (fleet_cell)
    session.run(*fleet, &cell_pool());
  else if (testbed)
    session.run(*testbed);

  // The replay lanes' trace and its header. A file's header carries its
  // polling period, counter period and client; its in_warmup flags ride the
  // file (set by whoever recorded or imported it), so nothing is re-cut. A
  // recording carries the DAG reference, the grid's polling period and the
  // Testbed's counter period.
  const harness::ReplayTrace* replayed = nullptr;
  trace::TraceMeta meta;
  Seconds replay_warmup = 0;
  if (imported) {
    replayed = &imported->trace;
    meta = imported->meta;
  } else if (record) {
    replayed = &session.trace();
    meta.mode = harness::GroundTruthMode::kReference;
    meta.nominal_period = testbed->nominal_period();
    meta.poll_period = poll_period;
    meta.label = scenario.name;
    replay_warmup = discard_warmup;
  }

  // The exported file replays byte-identical to the in-memory trace (the
  // round-trip golden pins this). A write failure throws and fails this
  // scenario's cells.
  if (!trace_export_path.empty())
    trace::write_trace(trace_export_path, meta, *replayed);

  std::vector<ScenarioResult> results;
  results.reserve(estimators.size());
  for (std::size_t e = 0; e < estimators.size(); ++e) {
    if (online[e] == nullptr) {
      harness::SampleSink* trace = trace_sink_for(trace_sinks, e);
      harness::SessionConfig config =
          lane_config(meta.poll_period, replay_warmup, trace);
      config.client_id = meta.client_id;
      // The reduction's tau0 is the lane's polling period and its
      // ground-truth mode the trace's own. Replay estimators never step, so
      // steps stay 0.
      harness::ReducerSink reducer(meta.poll_period, 16, 256,
                                   replayed->ground_truth, percentiles);
      harness::ReplaySession replay(
          config, registry.make_replay(estimators[e], config.params,
                                       meta.nominal_period, &cell_pool()));
      replay.add_sink(reducer);
      if (trace != nullptr) replay.add_sink(*trace);
      const harness::SessionSummary& summary = replay.run(*replayed);
      ScenarioResult result =
          scored_result(scenario, estimators[e], summary, reducer.reduce());
      result.from_trace = trace_cell;
      result.relative_only =
          meta.mode == harness::GroundTruthMode::kRelativeOnly;
      results.push_back(std::move(result));
      continue;
    }
    // Counters are summed over the spec's lanes; the final status is
    // client 0's, the reference client's.
    OnlineSpec& spec = *online[e];
    harness::SessionSummary summary;
    std::uint64_t steps = 0;
    for (const std::size_t lane : spec.lanes) {
      const harness::SessionSummary& part = session.lane(lane).summary();
      summary.exchanges += part.exchanges;
      summary.lost += part.lost;
      summary.evaluated += part.evaluated;
      summary.polls_enumerated += part.polls_enumerated;
      steps += session.lane(lane).estimator().steps();
    }
    summary.final_status =
        session.lane(spec.lanes.front()).summary().final_status;
    ScenarioResult result = scored_result(scenario, estimators[e], summary,
                                          spec.reference.reduce());
    result.steps = steps;
    if (fleet_cell) {
      const harness::ReducerSink::Reduction pooled = spec.population.reduce();
      result.clock_error = pooled.clock_error;
      result.offset_error = pooled.offset_error;
      const harness::FleetReduction population =
          harness::reduce_fleet(spec.probes);
      result.clients = population.clients;
      result.fleet_dispersion = population.dispersion;
      result.fleet_worst_p99 = population.worst_p99;
      result.fleet_pairwise_spread = population.pairwise_spread;
    }
    results.push_back(std::move(result));
  }
  return results;
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

/// One (scenario, estimator) cell's --csv rows, formatted on the cell's
/// worker into its part file. A failed open or write never fails the cell:
/// the part drops its remaining rows and keeps the first error for the
/// drainer, which aborts the dump with it.
class CsvPart final : public harness::SampleSink {
 public:
  CsvPart(const std::string& path, std::string_view scenario,
          std::string_view estimator) {
    try {
      csv_.emplace(path, harness::CsvTraceSink::NoHeader{});
      csv_->set_scenario(scenario);
      csv_->set_estimator(estimator);
    } catch (const std::exception& e) {
      fail(e.what());
    }
  }

  void on_sample(const harness::SampleRecord& record) override {
    if (!csv_) return;
    try {
      csv_->on_sample(record);
    } catch (const std::exception& e) {
      fail(e.what());
    }
  }

  /// Flush and close; the first error, empty when every row was written.
  std::string close() {
    if (csv_) {
      try {
        csv_->close();
      } catch (const std::exception& e) {
        fail(e.what());
      }
      csv_.reset();
    }
    return error_;
  }

 private:
  void fail(const char* what) {
    csv_.reset();
    if (error_.empty()) error_ = what;
  }

  std::optional<harness::CsvTraceSink> csv_;
  std::string error_;
};

/// Remove every part file of `csv_path` (csv_part_path's names, whatever
/// the slot and lane). Errors are ignored: a part that cannot be removed
/// is truncated when a cell writes it again.
void remove_csv_parts(const std::string& csv_path) {
  namespace fs = std::filesystem;
  const fs::path csv(csv_path);
  const std::string prefix = csv.filename().string() + ".part.";
  const auto is_part = [&](const std::string& name) {
    if (!name.starts_with(prefix)) return false;
    const std::string_view rest = std::string_view(name).substr(prefix.size());
    const std::size_t dot = rest.find('.');
    const auto digits = [](std::string_view text) {
      return !text.empty() &&
             std::all_of(text.begin(), text.end(),
                         [](char c) { return c >= '0' && c <= '9'; });
    };
    return dot != std::string_view::npos && digits(rest.substr(0, dot)) &&
           digits(rest.substr(dot + 1));
  };
  std::error_code ec;
  const fs::path dir = csv.has_parent_path() ? csv.parent_path() : ".";
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (is_part(it->path().filename().string())) {
      std::error_code ignored;
      fs::remove(it->path(), ignored);
    }
  }
}

}  // namespace

std::string csv_part_path(const std::string& csv_path, std::size_t slot,
                          std::size_t lane) {
  return csv_path + ".part." + std::to_string(slot) + "." +
         std::to_string(lane);
}

ScenarioSweep::ScenarioSweep(GridSpec grid)
    : grid_(std::move(grid)), scenarios_(expand_grid(grid_)) {}

std::vector<ScenarioResult> ScenarioSweep::run(
    const SweepOptions& options) const {
  // One result row per (owned scenario, estimator spec), scenario-major.
  // The shard slice partitions by *scenario* — the estimator fan-out of a
  // scenario shares one generation pass (and a replay lane its recording),
  // so a scenario is the indivisible work unit.
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

  // Trace dumping: each remaining (scenario, estimator) cell's worker
  // formats its records into its own part file (the workers must not share
  // a file writer), and the drainer appends the parts to the CSV in grid
  // order, so the dump is deterministic like the rest of the reduction. The
  // CSV is opened before any work runs — an unwritable path must fail
  // fast, not after a long sweep has completed. On a resume with committed
  // scenarios, the file is truncated to the last committed watermark
  // (dropping rows of the scenario that was in flight when the run died)
  // and appended to — the committed prefix is kept byte-for-byte. Parts a
  // killed run left behind are removed before any cell starts, and every
  // part is gone when run() returns or throws.
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
    remove_csv_parts(options.csv_path);
  }
  struct PartSweeper {
    const std::string* csv_path;
    ~PartSweeper() {
      if (csv_path != nullptr) remove_csv_parts(*csv_path);
    }
  } part_sweeper{dump_csv ? &options.csv_path : nullptr};
  const auto part_path = [&](std::size_t slot, std::size_t lane) {
    return csv_part_path(options.csv_path, slot, lane);
  };

  // The commit pipeline: workers finish scenarios in pool order, one
  // drainer at a time commits them in grid order — first the scenario's
  // trace rows, then its checkpoint record carrying the post-row CSV byte
  // watermark. The file I/O happens outside the lock, so other finishing
  // workers only ever take the mutex to mark completion (never stalling
  // behind a write); scenarios completed while the drainer was writing are
  // picked up when it re-checks under the lock. A worker hands the drainer
  // its scenario's first part error with the completion mark.
  const std::size_t remaining = owned.size() - committed;
  std::mutex commit_mutex;
  std::vector<char> scenario_ready(remaining, 0);
  std::vector<std::string> part_errors(remaining);
  std::size_t next_to_commit = 0;
  bool draining = false;
  const bool need_drainer = dump_csv || checkpoint.has_value();

  if (remaining > 0) {
    // One thread budget: cells run on the pool, and a fleet cell spreads
    // its clients over the same workers.
    ThreadPool pool(options.threads);
    const Seconds warmup = options.discard_warmup;
    parallel_for(pool, remaining, [&](std::size_t j) {
      const std::size_t slot = committed + j;
      const SweepScenario& scenario = scenarios_[owned[slot]];
      std::vector<std::unique_ptr<CsvPart>> parts;
      for (std::size_t e = 0; dump_csv && e < lanes; ++e) {
        parts.push_back(std::make_unique<CsvPart>(part_path(slot, e),
                                                  scenario.name, labels[e]));
      }
      // Contain failures to their grid cells: one throwing scenario must
      // not discard the rest of a long sweep.
      try {
        std::vector<harness::SampleSink*> trace_sinks(parts.size());
        for (std::size_t e = 0; e < parts.size(); ++e)
          trace_sinks[e] = parts[e].get();
        auto cell_results = run_scenario_multi(scenario, estimators, warmup,
                                               trace_sinks,
                                               options.streaming_reduction,
                                               options.trace_out, &pool);
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
      // A FAILED cell's parts are dropped unread, so only a kept cell's
      // part error reaches the dump.
      const bool kept = !results[slot * lanes].failed;
      std::string part_error;
      for (auto& part : parts) {
        std::string error = part->close();
        if (part_error.empty() && kept) part_error = std::move(error);
      }
      if (!need_drainer) return;
      std::unique_lock<std::mutex> lock(commit_mutex);
      scenario_ready[j] = 1;
      part_errors[j] = std::move(part_error);
      if (draining) return;
      draining = true;
      while (next_to_commit < remaining && scenario_ready[next_to_commit]) {
        const std::size_t ready = next_to_commit;
        const std::size_t ready_slot = committed + ready;
        const std::string ready_part_error = std::move(part_errors[ready]);
        ++next_to_commit;
        lock.unlock();
        // A FAILED cell's part holds a silently truncated trace — drop it
        // (its absence from the dump mirrors the FAILED row in the report).
        // A part that could not be written, or a failed append (disk
        // full), aborts the dump but not the sweep: parts are still
        // deleted and the error is reported via csv_error() alongside the
        // intact results.
        if (csv) {
          try {
            if (!ready_part_error.empty())
              throw std::runtime_error(ready_part_error);
            for (std::size_t e = 0; e < lanes; ++e) {
              if (!results[ready_slot * lanes + e].failed)
                csv->append_rows_of(part_path(ready_slot, e));
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
        if (dump_csv) {
          for (std::size_t e = 0; e < lanes; ++e) {
            std::error_code ignored;
            std::filesystem::remove(part_path(ready_slot, e), ignored);
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
