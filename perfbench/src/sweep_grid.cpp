// sweep_grid: the sweep's full comparison grid — servers loc,int,ext ×
// environments lab,machine × polls 16,64 × schedules steady,stress (24
// scenarios), 30 simulated days each, estimators robust and swntp, streaming
// reduction (the CLI default) — through ScenarioSweep::run on the pool with
// one worker per available CPU. Most of the time goes to sim generation and
// the core and baseline estimators; a 64 s cell is a quarter of a 16 s one,
// so the pool's straggler tail shows in the makespan.
#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/table.hpp"
#include "harness/estimator.hpp"
#include "sim/scenario.hpp"
#include "spans.hpp"
#include "timed.hpp"

namespace perfbench {

namespace {

/// One grid run with its probes and set-up block, at the baseline's speed
/// on 4 CPUs (run_units).
constexpr double kUnitSeconds = 2.5;

sweep::GridSpec grid_spec(std::uint64_t seed) {
  sweep::GridSpec grid;  // servers loc,int,ext × envs lab,machine × polls 16,64
  grid.schedules = {sweep::ScheduleVariant{}, stress_schedule(kMonth)};
  grid.estimators = harness::estimator_registry().parse_list("robust,swntp");
  grid.duration = kMonth;
  grid.master_seed = seed;
  return grid;
}

sweep::SweepOptions pool_options(unsigned threads) {
  sweep::SweepOptions options;
  options.threads = threads;
  options.discard_warmup = kWarmup;
  options.streaming_reduction = true;
  return options;
}

/// Exchanges generated over the grid, once per scenario stream (not once per
/// estimator lane scoring it).
double stream_exchanges(std::span<const sweep::ScenarioResult> results,
                        std::size_t lanes) {
  double total = 0;
  for (std::size_t i = 0; i + lanes <= results.size(); i += lanes) {
    std::size_t most = 0;
    for (std::size_t e = 0; e < lanes; ++e)
      most = std::max(most, results[i + e].exchanges);
    total += static_cast<double>(most);
  }
  return total;
}

/// run_scenario_multi's single-client drive, rebuilt from the library's
/// public pieces so each call into a layer is a span: Testbed::generate_batch
/// (sim.generate), each lane's ClockSession::process_batch (core.robust or
/// baseline.swntp, whose self time excludes the reducer running inside it),
/// and the streaming reducer's on_batch and reduce() (harness.reduce). The
/// caller checks the cells bit-identical to run_scenario_multi's.
std::vector<sweep::ScenarioResult> traced_cell(
    const sweep::SweepScenario& scenario,
    std::span<const harness::EstimatorSpec> estimators, SpanTracer& tracer,
    SinkCalls& calls) {
  const harness::EstimatorRegistry& registry = harness::estimator_registry();
  sim::Testbed testbed(scenario.config);
  const harness::SessionConfig config =
      sweep_session_config(scenario.config.poll_period);
  harness::MultiEstimatorSession session;
  std::vector<std::unique_ptr<harness::StreamingReducerSink>> reducers;
  std::vector<std::unique_ptr<TimedSink>> timed;
  std::vector<const char*> lane_span;
  for (const auto& spec : estimators) {
    reducers.push_back(std::make_unique<harness::StreamingReducerSink>(
        scenario.config.poll_period, kAdevShort, kAdevLong));
    timed.push_back(
        std::make_unique<TimedSink>(*reducers.back(), tracer, "harness.reduce"));
    const std::size_t lane = session.add_lane(
        config, registry.make_online(spec, config.params,
                                     testbed.nominal_period()));
    session.add_sink(lane, *timed.back());
    lane_span.push_back(spec.family == "swntp" ? "baseline.swntp"
                                               : "core.robust");
  }

  sim::ExchangeBatch batch;
  while (true) {
    const std::size_t n = tracer.time(
        "sim.generate", [&] { return testbed.generate_batch(batch, kChunk); });
    for (std::size_t e = 0; n > 0 && e < session.lane_count(); ++e)
      tracer.time(lane_span[e], [&] { session.lane(e).process_batch(batch); });
    if (n < kChunk) break;
  }
  for (std::size_t e = 0; e < session.lane_count(); ++e)
    session.lane(e).set_polls_enumerated(testbed.polls_enumerated());

  std::vector<sweep::ScenarioResult> results;
  for (std::size_t e = 0; e < estimators.size(); ++e) {
    sweep::ScenarioResult result = cell_result(scenario, estimators[e]);
    fill_summary(result, session.lane(e).summary());
    result.steps = session.lane(e).estimator().steps();
    fill_reduction(result, tracer.time("harness.reduce",
                                       [&] { return reducers[e]->reduce(); }));
    results.push_back(std::move(result));
    calls.add(*timed[e]);
  }
  return results;
}

Report untraced(const RunOptions& options) {
  Report report;
  // The grid's cells are compute-bound: a cache-resident probe on every
  // pool thread.
  const unsigned threads = available_cpus();
  RateMeter meter(threads, kProbeSmall);
  // Set-up: grid expansion plus each scenario's Testbed construction (RNG
  // forks, attachment walk) — the pool repeats the latter inside the timed
  // region, so work moved into construction shows here too.
  std::optional<sweep::ScenarioSweep> grid;
  SetupTimer setup(kSetupReps, [&] {
    grid.emplace(grid_spec(options.seed));
    for (const auto& scenario : grid->scenarios()) {
      [[maybe_unused]] const sim::Testbed testbed(scenario.config);
    }
  });
  setup.block(meter.probe());

  const auto& estimators = grid->grid().estimators;
  const std::size_t lanes = estimators.size();
  const sweep::SweepOptions pool = pool_options(threads);
  std::vector<sweep::ScenarioResult> first;
  std::uint64_t digest = 0;
  run_units(options.seconds, kUnitSeconds, [&] {
    std::vector<sweep::ScenarioResult> results;
    meter.time([&] {
      results = grid->run(pool);
      return stream_exchanges(results, lanes);
    });
    count_cells(report, results);
    const std::uint64_t d = results_digest(results);
    if (first.empty()) {
      digest = d;
      first = std::move(results);
    } else {
      report.check(d == digest, "results digest changed between grid runs");
    }
    setup.block(meter.last_speed());
  });
  check_cells(report, first);

  // One pooled cell against the serial entry point (a cheap 64 s cell).
  const auto& scenarios = grid->scenarios();
  const auto probe =
      std::find_if(scenarios.begin(), scenarios.end(), [](const auto& s) {
        return s.config.poll_period == 64.0;
      });
  const std::size_t index = static_cast<std::size_t>(probe - scenarios.begin());
  report.check(
      results_digest(run_cell(*probe, estimators, true)) ==
          results_digest(
              std::span(first).subspan(index * lanes, lanes)),
      "pooled cell " + probe->name + " differs from run_scenario_multi");

  report.notes.push_back("results digest " + hex64(digest) + " over " +
                         std::to_string(meter.wall_rates().size()) +
                         " grid runs, " +
                         std::to_string(threads) + " threads");
  set_end_to_end(report, meter, setup, lane_accuracy(first, "robust"));
  return report;
}

Report traced(const RunOptions& options) {
  Report report;
  const sweep::ScenarioSweep grid(grid_spec(options.seed));
  const auto& estimators = grid.grid().estimators;
  const std::size_t lanes = estimators.size();

  // The pool at N threads, then at 1: speedup and the pool's idle share.
  const unsigned threads = available_cpus();
  double start = now_s();
  const auto pooled = grid.run(pool_options(threads));
  const double wall_n = now_s() - start;
  const std::uint64_t digest = results_digest(pooled);
  count_cells(report, pooled);
  check_cells(report, pooled);

  start = now_s();
  const auto single = grid.run(pool_options(1));
  const double wall_1 = now_s() - start;
  report.check(results_digest(single) == digest,
               "pool results differ between 1 and " +
                   std::to_string(threads) + " threads");

  // Per scenario, back to back: serial run_scenario_multi (the cell-size
  // distribution) and the traced drive of the same cell, so the tracing
  // overhead compares runs made moments apart.
  SteadyClock clock;
  SpanTracer tracer(clock);
  SinkCalls calls;
  std::vector<double> cell_s;
  double traced_wall = 0;
  std::vector<sweep::ScenarioResult> serial;
  std::vector<sweep::ScenarioResult> hand;
  for (const auto& scenario : grid.scenarios()) {
    start = clock.now();
    const auto cells = run_cell(scenario, estimators, true);
    const double traced_start = clock.now();
    const auto traced = traced_cell(scenario, estimators, tracer, calls);
    traced_wall += clock.now() - traced_start;
    cell_s.push_back(traced_start - start);
    serial.insert(serial.end(), cells.begin(), cells.end());
    hand.insert(hand.end(), traced.begin(), traced.end());
  }
  report.check(results_digest(serial) == digest,
               "serial run_scenario_multi differs from the pool");
  report.check(results_digest(hand) == digest,
               "traced drive differs from run_scenario_multi");
  check_fast_lane(report, calls);

  double cell_total = 0;
  for (const double s : cell_s) cell_total += s;
  const double exchanges = stream_exchanges(pooled, lanes);
  const double generate_s = tracer.stats("sim.generate").self_s;
  report.set("sim.generate_s", generate_s);
  report.set("sim.exch_per_s", exchanges / generate_s);
  report.set("core.robust_s", tracer.stats("core.robust").self_s);
  report.set("baseline.swntp_s", tracer.stats("baseline.swntp").self_s);
  report.set("harness.reduce_s", tracer.stats("harness.reduce").self_s);
  report.set("sweep.cell_s_p50", median(cell_s));
  report.set("sweep.cell_s_max", *std::max_element(cell_s.begin(), cell_s.end()));
  report.set("sweep.speedup", wall_1 / wall_n);
  const double workers =
      static_cast<double>(std::min<std::size_t>(threads, cell_s.size()));
  report.set("sweep.idle_frac", 1.0 - cell_total / (workers * wall_n));

  RobustCounts counts;
  double lost = 0, evaluated = 0, steps = 0;
  for (const auto& r : pooled) {
    if (r.estimator.family == "robust") {
      counts.add(r.final_status);
      lost += static_cast<double>(r.lost);
      evaluated += static_cast<double>(r.evaluated);
    } else {
      steps += static_cast<double>(r.steps);
    }
  }
  report.set("sim.exchanges", exchanges);
  report.set("sim.lost", lost);
  report.set("harness.evaluated", evaluated);
  set_robust_counts(report, counts);
  report.set("baseline.steps", steps);
  set_accounting(report, tracer, traced_wall, cell_total);
  report.notes.push_back(tscclock::strfmt(
      "results digest %s: pool at %u threads %.3f s, at 1 thread %.3f s, "
      "serial cells %.3f s, traced drive %.3f s",
      hex64(digest).c_str(), threads, wall_n, wall_1, cell_total,
      traced_wall));
  return report;
}

}  // namespace

Report run_sweep_grid(const RunOptions& options) {
  return options.trace ? traced(options) : untraced(options);
}

}  // namespace perfbench
