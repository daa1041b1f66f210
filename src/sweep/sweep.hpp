// ScenarioSweep: play many Testbed + TscNtpClock pipelines in parallel and
// reduce them into aggregate error/ADEV summary tables.
//
// Determinism contract: results are bit-identical for a fixed GridSpec
// regardless of thread count. Each scenario runs on its own Testbed seeded
// purely from the scenario identity (see scenario_grid.hpp), writes into its
// own pre-allocated result slot, and the reduction happens single-threaded
// in grid order after the pool drains — the work-stealing schedule can never
// leak into the output.
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "core/clock.hpp"
#include "harness/estimator_spec.hpp"
#include "harness/session.hpp"
#include "sweep/scenario_grid.hpp"
#include "sweep/shard.hpp"

namespace tscclock::sweep {

/// Reduced outcome of one (scenario, estimator) cell (everything
/// deterministic; no wall-clock quantities, so results can be compared
/// bit-for-bit in tests).
struct ScenarioResult {
  std::size_t scenario_index = 0;
  std::string name;
  std::uint64_t seed = 0;
  // Grid coordinates, carried so reporting never has to re-parse `name`.
  sim::ServerKind server = sim::ServerKind::kInt;
  sim::Environment environment = sim::Environment::kMachineRoom;
  /// Which estimator spec scored this row (family + non-default tunables;
  /// estimator.label() is the reporting/CSV identity). Every spec of a
  /// scenario shares the scenario's seed — the axis never reseeds the trace.
  harness::EstimatorSpec estimator{"robust", {}};

  /// Set when the scenario's run threw instead of completing; the rest of
  /// the sweep still finishes, and `error` holds the exception text.
  bool failed = false;
  std::string error;

  std::size_t polls = 0;       ///< poll slots in the configured duration
  std::size_t skipped = 0;     ///< polls suppressed by scheduled outages
  std::size_t exchanges = 0;   ///< generated exchanges (incl. lost)
  std::size_t lost = 0;        ///< exchanges lost in transit
  /// Non-lost exchanges with a DAG reference that also survived the
  /// warm-up discard (the error summaries are computed over exactly these).
  std::size_t evaluated = 0;

  /// Absolute clock error Ca(Tf_i) − Tg_i against the DAG monitor [s],
  /// post warm-up discard.
  SeriesSummary clock_error;
  /// Offset tracking error θ̂(t_i) − θg_i [s], post warm-up discard.
  SeriesSummary offset_error;

  /// Allan deviation of the absolute clock error at two scales
  /// (16 and 256 polling periods), computed over the longest outage-free
  /// stretch of the trace; 0 is the not-computable sentinel (stretch too
  /// short for the scale), rendered as "n/a" in reports.
  double adev_short_tau = 0;
  double adev_short = 0;
  double adev_long_tau = 0;
  double adev_long = 0;

  /// Clock resets performed by the estimator (the SW-NTP failure mode the
  /// paper's comparison centres on; 0 for step-free algorithms).
  std::uint64_t steps = 0;

  core::ClockStatus final_status;

  // -- Fleet cells (clients > 1) ------------------------------------------
  /// Fleet size of the cell (1 for classic single-client cells). For fleet
  /// cells the counters above are population totals, clock/offset summaries
  /// pool every client's evaluated samples (deterministic merge order), and
  /// the ADEV columns are computed over client 0 — the reference client —
  /// since the pooled stream interleaves unrelated oscillators.
  std::size_t clients = 1;
  /// Population offset dispersion: stddev across clients of the per-client
  /// median clock error (harness::FleetReduction).
  double fleet_dispersion = 0;
  /// Max over clients of max(|p01|, |p99|) of the client's clock error.
  double fleet_worst_p99 = 0;
  /// Max − min across clients of the per-client median clock error.
  double fleet_pairwise_spread = 0;

  // -- Imported-trace cells (scenario.is_trace()) ---------------------------
  /// The cell replayed an imported trace file instead of driving a Testbed.
  /// Aggregate tables (by-server / by-environment) skip these: their
  /// server/environment coordinates are placeholders, not grid axes.
  bool from_trace = false;
  /// The trace declared ground_truth relative (no reference clock): the
  /// clock-error summary is structurally empty (count 0 → n/a columns) and
  /// the offset/ADEV columns grade tracking against the server's own clock
  /// (see harness::GroundTruthMode).
  bool relative_only = false;
};

struct SweepOptions {
  std::size_t threads = 0;  ///< 0 = one per CPU the process may run on
  /// Points earlier than this (by server receive time) are excluded from the
  /// error summaries, matching the paper's post-warm-up analyses.
  Seconds discard_warmup = duration::kHour;
  /// Reduce each cell's ReducerSinks under Percentiles::kSketch (a P²
  /// sketch, O(1) memory) instead of kExact (the two error series buffered
  /// and their order statistics selected). Counts, means, stddevs and ADEV
  /// are bit-identical either way; only the percentiles differ. For grids ×
  /// durations too large to buffer every evaluated exchange. Default off —
  /// the determinism tests pin the exact percentiles.
  bool streaming_reduction = false;
  /// When non-empty, every scenario's per-exchange trace (including lost and
  /// warm-up records, flagged) is dumped to this CSV file in grid order via
  /// harness::CsvTraceSink — with multiple estimators, grouped by scenario
  /// then estimator, labelled by the scenario/estimator columns. Each
  /// (scenario, estimator) cell's worker formats its rows into its own
  /// part file next to the CSV (csv_part_path) while the cell runs; the
  /// parts are appended in grid order and deleted as their scenario
  /// commits, so memory follows the cells in flight, not the grid. FAILED
  /// cells contribute no rows (their part is a silently truncated trace);
  /// see ScenarioSweep::csv_error() for mid-run dump failures.
  std::string csv_path;
  /// Which slice of the expanded grid this invocation runs (default: the
  /// whole grid). Partition is by scenario, round-robin on grid index; see
  /// sweep/shard.hpp for the determinism contract that makes an N-way
  /// split merge back into the exact single-process tables.
  ShardSpec shard;
  /// When non-empty, an append-only per-scenario checkpoint: each committed
  /// scenario's full results (every estimator lane, FAILED cells included)
  /// are appended in grid order as it completes, so an interrupted shard
  /// resumes by skipping the committed prefix — final tables, result dump
  /// and --csv trace are bit-identical to an uninterrupted run. A torn
  /// trailing record (kill mid-write) is detected and recomputed; a
  /// checkpoint from an incompatible invocation (different grid, options or
  /// shard) is refused with a precise error. See sweep/result_io.hpp.
  std::string checkpoint_path;
  /// When non-empty, the run's results are written to this file as a
  /// versioned machine-readable shard dump (full ScenarioResult fidelity,
  /// n/a and FAILED cells included) for tools/sweep-merge. The file is
  /// created before any scenario runs (unwritable paths fail fast); see
  /// ScenarioSweep::dump_error() for end-of-run write failures.
  std::string dump_path;
  /// When non-empty, export the run's recorded exchange stream as a
  /// reference-bearing trace file (trace/trace_io.hpp) replayable via
  /// --trace-in. Restricted to a single-scenario, single-client grid with
  /// no trace inputs — a trace file holds exactly one client's stream —
  /// and refused (SweepUsageError) otherwise. Export failures fail the
  /// scenario's cells, not the process.
  std::string trace_out;
};

/// Run one scenario's exchange stream through every estimator spec at once
/// (the unit the pool executes): one harness::MultiEstimatorSession with a
/// ClockSession lane per (client, online spec), so all specs — families and
/// their parameterized variants alike — score identical packets from the
/// scenario's one seed, and each client's stream is generated once however
/// many specs score it. Replay families (e.g. the §5.3 offline smoother) are
/// scored post-hoc over the drain's recorded trace through the identical
/// reduction — same packets, ground truth and seed as the online lanes.
/// Returns one result per spec, in `estimators` order. `trace_sinks`, when
/// non-empty, must hold one distinct sink per spec (entries may be null).
/// A non-single() scenario.fleet drives a FleetTestbed instead of a Testbed
/// (one lane per client and spec, summed counters, pooled summaries,
/// client-0 ADEV, fleet_* metrics); replay specs throw std::runtime_error
/// there — a fleet trace mixes clients, which ReplaySession refuses.
/// An is_trace() scenario is a cell with no online lanes: its replay lanes
/// score the file instead of a recording, with the polling period, counter
/// period and client id of its header and no warm-up re-cut. An online spec
/// there throws std::runtime_error naming the spec. `trace_export_path`,
/// when non-empty, additionally writes the drain's recorded trace as a
/// reference-bearing trace file.
/// A fleet cell spreads its clients over `pool`, an is_trace() cell its
/// file parse (trace::read_trace), and every replay lane its smoothing
/// windows; without one such a cell makes a pool with one thread per
/// usable CPU for the call. Other cells run on the calling thread. The
/// results, and a trace cell's read error, do not depend on the pool.
std::vector<ScenarioResult> run_scenario_multi(
    const SweepScenario& scenario,
    std::span<const harness::EstimatorSpec> estimators,
    Seconds discard_warmup,
    std::span<harness::SampleSink* const> trace_sinks = {},
    bool streaming_reduction = false,
    const std::string& trace_export_path = {}, ThreadPool* pool = nullptr);

/// The part file of `csv_path` that holds the --csv rows of the run's
/// `slot`-th owned scenario (its position in this run's shard slice) under
/// estimator `lane`: "<csv_path>.part.<slot>.<lane>". A run removes every
/// such file of its CSV, stale ones of a killed run first.
std::string csv_part_path(const std::string& csv_path, std::size_t slot,
                          std::size_t lane);

class ScenarioSweep {
 public:
  explicit ScenarioSweep(GridSpec grid);

  [[nodiscard]] const GridSpec& grid() const { return grid_; }
  [[nodiscard]] const std::vector<SweepScenario>& scenarios() const {
    return scenarios_;
  }

  /// Expand, fan out over a work-stealing pool, and return per-cell results
  /// in grid order: scenario-major, the grid's estimators minor, i.e.
  /// results[i * estimators.size() + e]. With a non-default options.shard,
  /// only the shard's scenarios run and the results cover exactly those, in
  /// the same scenario-major order. An unwritable `csv_path`, `dump_path`
  /// or `checkpoint_path` — and a checkpoint incompatible with this
  /// invocation — throws before any scenario runs (fail fast); a *mid-run*
  /// artifact write failure (disk full) must not discard hours of computed
  /// results, so it aborts only that artifact and is reported via
  /// csv_error() / checkpoint_error() / dump_error() instead.
  [[nodiscard]] std::vector<ScenarioResult> run(
      const SweepOptions& options = {}) const;

  /// Empty, or the reason the last run's CSV trace dump was aborted (the
  /// dumped file is incomplete and should be discarded).
  [[nodiscard]] const std::string& csv_error() const { return csv_error_; }

  /// Empty, or the reason checkpointing was suspended mid-run (the
  /// checkpoint keeps its valid committed prefix — a resume recomputes the
  /// rest — but this run stopped extending it).
  [[nodiscard]] const std::string& checkpoint_error() const {
    return checkpoint_error_;
  }

  /// Empty, or the reason the shard result dump could not be completed (the
  /// dump file is unusable for sweep-merge and should be discarded).
  [[nodiscard]] const std::string& dump_error() const { return dump_error_; }

 private:
  GridSpec grid_;
  std::vector<SweepScenario> scenarios_;
  mutable std::string csv_error_;         ///< set by run(), see csv_error()
  mutable std::string checkpoint_error_;  ///< set by run()
  mutable std::string dump_error_;        ///< set by run()
};

/// Print the per-scenario summary table plus aggregates grouped by server
/// and by environment: the median of the per-scenario |median| errors and
/// the worst |tail| — max over scenarios of max(|p01|, |p99|), since the
/// negatively-biased error distributions can put the worst tail at either
/// extreme.
void print_sweep_report(std::ostream& os,
                        const std::vector<ScenarioResult>& results);

}  // namespace tscclock::sweep
