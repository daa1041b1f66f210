// Tests for the unified drive layer (harness::ClockSession + sinks).
//
// The load-bearing guarantees:
//   * golden equivalence — driving a fixed-seed scenario through the harness
//     is bit-identical to the pre-refactor hand-rolled loops (the legacy
//     bench and sweep drive loops are preserved below as reference
//     implementations), including a server-switch + outage schedule;
//   * the two warm-up policies cut on their documented timebases;
//   * each sink sees exactly the records the session emits.
#include "harness/session.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/server_change.hpp"
#include "harness/sinks.hpp"
#include "sim/scenario.hpp"
#include "sweep/sweep.hpp"

namespace tscclock::harness {
namespace {

/// One-hour MR-Int scenario with the §6 robustness events the golden tests
/// exercise: a mid-trace outage and two server switches.
sim::ScenarioConfig stress_scenario() {
  sim::ScenarioConfig scenario;
  scenario.server = sim::ServerKind::kInt;
  scenario.poll_period = 16.0;
  scenario.duration = duration::kHour;
  scenario.seed = 987654321;
  scenario.events.add_outage(1200.0, 1500.0);
  scenario.server_switches = {{1800.0, sim::ServerKind::kLoc},
                              {2700.0, sim::ServerKind::kExt}};
  return scenario;
}

sim::ScenarioConfig plain_scenario(std::uint64_t seed = 24680) {
  sim::ScenarioConfig scenario;
  scenario.poll_period = 16.0;
  scenario.duration = duration::kHour;
  scenario.seed = seed;
  return scenario;
}

core::Params params_for(const sim::ScenarioConfig& scenario) {
  return core::Params::for_poll_period(scenario.poll_period);
}

// -- Golden equivalence: the legacy figure-bench drive loop ----------------

/// The pre-refactor bench::run_clock loop (bench/support.cpp before the
/// harness migration), verbatim: no server-change forwarding, warm-up cut
/// on ground truth. Collects the same per-point fields as SampleRecord.
struct LegacyBenchResult {
  std::vector<SampleRecord> points;
  core::ClockStatus final_status;
  std::size_t exchanges = 0;
  std::size_t lost = 0;
};

LegacyBenchResult legacy_run_clock(sim::Testbed& testbed,
                                   const core::Params& params,
                                   Seconds discard_warmup_s) {
  LegacyBenchResult result;
  core::TscNtpClock clock(params, testbed.nominal_period());
  while (auto ex = testbed.next()) {
    ++result.exchanges;
    if (ex->lost) {
      ++result.lost;
      continue;
    }
    core::RawExchange raw{ex->ta_counts, ex->tb_stamp, ex->te_stamp,
                          ex->tf_counts};
    const auto report = clock.process_exchange(raw);
    if (!ex->ref_available) continue;
    if (ex->truth.tb < discard_warmup_s) continue;

    SampleRecord pt;
    pt.t_day = ex->tb_stamp / duration::kDay;
    pt.reference_offset = clock.uncorrected_time(ex->tf_counts) - ex->tg;
    pt.report = report;
    pt.offset_error = report.offset_estimate - pt.reference_offset;
    pt.naive_error = report.naive_offset - pt.reference_offset;
    pt.abs_clock_error = clock.absolute_time(ex->tf_counts) - ex->tg;
    result.points.push_back(pt);
  }
  result.final_status = clock.status();
  return result;
}

TEST(ClockSessionGolden, BitIdenticalToLegacyBenchLoop) {
  const auto scenario = plain_scenario();
  const auto params = params_for(scenario);
  const Seconds warmup = 20 * duration::kMinute;

  sim::Testbed legacy_testbed(scenario);
  const auto legacy = legacy_run_clock(legacy_testbed, params, warmup);

  sim::Testbed testbed(scenario);
  SessionConfig config;
  config.params = params;
  config.discard_warmup = warmup;
  config.warmup_policy = WarmupPolicy::kGroundTruth;
  ClockSession session(config, testbed.nominal_period());
  CollectorSink collector;
  session.add_sink(collector);
  const auto& summary = session.run(testbed);

  EXPECT_EQ(summary.exchanges, legacy.exchanges);
  EXPECT_EQ(summary.lost, legacy.lost);
  ASSERT_EQ(collector.records().size(), legacy.points.size());
  for (std::size_t i = 0; i < legacy.points.size(); ++i) {
    const auto& a = collector.records()[i];
    const auto& b = legacy.points[i];
    // Bit-level double equality: the migration must not perturb a ULP.
    EXPECT_EQ(a.t_day, b.t_day) << i;
    EXPECT_EQ(a.reference_offset, b.reference_offset) << i;
    EXPECT_EQ(a.offset_error, b.offset_error) << i;
    EXPECT_EQ(a.naive_error, b.naive_error) << i;
    EXPECT_EQ(a.abs_clock_error, b.abs_clock_error) << i;
    EXPECT_EQ(a.report.point_error, b.report.point_error) << i;
    EXPECT_EQ(a.report.offset_estimate, b.report.offset_estimate) << i;
    EXPECT_EQ(a.report.sanity_triggered, b.report.sanity_triggered) << i;
  }
  EXPECT_EQ(summary.final_status.packets_processed,
            legacy.final_status.packets_processed);
  EXPECT_EQ(summary.final_status.period, legacy.final_status.period);
  EXPECT_EQ(summary.final_status.offset, legacy.final_status.offset);
  EXPECT_EQ(summary.final_status.upshifts, legacy.final_status.upshifts);
}

TEST(ClockSessionGolden, ServerChangesNowReachFigureBenchConsumers) {
  // The pre-refactor figure benches never forwarded server changes — the
  // divergence this layer exists to remove. On a switching schedule the
  // harness-driven session must register every switch.
  const auto scenario = stress_scenario();
  sim::Testbed testbed(scenario);
  SessionConfig config;
  config.params = params_for(scenario);
  config.warmup_policy = WarmupPolicy::kGroundTruth;
  ClockSession session(config, testbed.nominal_period());
  const auto& summary = session.run(testbed);
  EXPECT_EQ(summary.final_status.server_changes, 2u);
}

// -- Golden equivalence: the legacy sweep drive loop -----------------------

/// The pre-refactor sweep::run_scenario loop (src/sweep/sweep.cpp before the
/// harness migration), verbatim: server changes forwarded, warm-up cut on
/// the observable tb_stamp. Reduction fields are compared through the public
/// ScenarioResult produced by today's implementation.
struct LegacySweepSeries {
  std::size_t exchanges = 0;
  std::size_t lost = 0;
  std::size_t evaluated = 0;
  std::vector<double> times;
  std::vector<double> clock_errors;
  std::vector<double> offset_errors;
  core::ClockStatus final_status;
};

LegacySweepSeries legacy_run_sweep_scenario(const sim::ScenarioConfig& config,
                                            Seconds discard_warmup) {
  LegacySweepSeries out;
  sim::Testbed testbed(config);
  const core::Params params =
      core::Params::for_poll_period(config.poll_period);
  core::TscNtpClock clock(params, testbed.nominal_period());
  core::ServerChangeDetector server_changes;
  while (auto ex = testbed.next()) {
    ++out.exchanges;
    if (ex->lost) {
      ++out.lost;
      continue;
    }
    if (server_changes.observe(
            core::ServerIdentity{ex->server_id, ex->server_stratum},
            ex->index)) {
      clock.notify_server_change();
    }
    const core::RawExchange raw{ex->ta_counts, ex->tb_stamp, ex->te_stamp,
                                ex->tf_counts};
    const auto report = clock.process_exchange(raw);
    if (!ex->ref_available) continue;
    if (ex->tb_stamp < discard_warmup) continue;
    ++out.evaluated;
    const Seconds reference_offset =
        clock.uncorrected_time(ex->tf_counts) - ex->tg;
    out.times.push_back(ex->tb_stamp);
    out.clock_errors.push_back(clock.absolute_time(ex->tf_counts) - ex->tg);
    out.offset_errors.push_back(report.offset_estimate - reference_offset);
  }
  out.final_status = clock.status();
  return out;
}

TEST(ClockSessionGolden, BitIdenticalToLegacySweepLoop) {
  sweep::GridSpec grid;
  grid.servers = {sim::ServerKind::kInt};
  grid.environments = {sim::Environment::kMachineRoom};
  grid.poll_periods = {16.0};
  grid.duration = duration::kHour;
  grid.master_seed = 1357;
  sweep::ScheduleVariant stress;
  stress.name = "stress";
  stress.events.add_outage(1200.0, 1500.0);
  stress.server_switches = {{1800.0, sim::ServerKind::kLoc},
                            {2700.0, sim::ServerKind::kExt}};
  grid.schedules = {stress};
  const auto scenarios = sweep::expand_grid(grid);
  ASSERT_EQ(scenarios.size(), 1u);
  const Seconds warmup = 20 * duration::kMinute;

  const auto legacy =
      legacy_run_sweep_scenario(scenarios[0].config, warmup);
  const auto result = sweep::run_scenario(scenarios[0], warmup);

  EXPECT_EQ(result.exchanges, legacy.exchanges);
  EXPECT_EQ(result.lost, legacy.lost);
  EXPECT_EQ(result.evaluated, legacy.evaluated);
  EXPECT_EQ(result.final_status.server_changes,
            legacy.final_status.server_changes);
  EXPECT_EQ(result.final_status.server_changes, 2u);
  EXPECT_EQ(result.final_status.period, legacy.final_status.period);
  EXPECT_EQ(result.final_status.offset, legacy.final_status.offset);

  // The reductions must match a from-scratch reduction of the legacy series
  // bit-for-bit (same summarize(), same ADEV stretch selection).
  ASSERT_FALSE(legacy.clock_errors.empty());
  const auto clock_summary = summarize(legacy.clock_errors);
  const auto offset_summary = summarize(legacy.offset_errors);
  EXPECT_EQ(result.clock_error.mean, clock_summary.mean);
  EXPECT_EQ(result.clock_error.stddev, clock_summary.stddev);
  EXPECT_EQ(result.clock_error.percentiles.p01, clock_summary.percentiles.p01);
  EXPECT_EQ(result.clock_error.percentiles.p50, clock_summary.percentiles.p50);
  EXPECT_EQ(result.clock_error.percentiles.p99, clock_summary.percentiles.p99);
  EXPECT_EQ(result.offset_error.mean, offset_summary.mean);
  EXPECT_EQ(result.offset_error.percentiles.p50,
            offset_summary.percentiles.p50);

  ReducerSink reference_reducer(scenarios[0].config.poll_period);
  {
    SampleRecord rec;
    rec.evaluated = true;
    for (std::size_t i = 0; i < legacy.times.size(); ++i) {
      rec.raw.tb = legacy.times[i];
      rec.abs_clock_error = legacy.clock_errors[i];
      rec.offset_error = legacy.offset_errors[i];
      reference_reducer.on_sample(rec);
    }
  }
  const auto reference = reference_reducer.reduce();
  EXPECT_EQ(result.adev_short_tau, reference.adev_short_tau);
  EXPECT_EQ(result.adev_short, reference.adev_short);
  EXPECT_EQ(result.adev_long_tau, reference.adev_long_tau);
  EXPECT_EQ(result.adev_long, reference.adev_long);
}

// -- Warm-up policies ------------------------------------------------------

TEST(ClockSessionWarmup, PoliciesCutOnTheirDocumentedTimebase) {
  const auto scenario = plain_scenario(111);
  const Seconds cut = 0.5 * scenario.duration;

  // Expected counts replayed from the raw exchange stream.
  std::size_t expect_observable = 0;
  std::size_t expect_truth = 0;
  {
    sim::Testbed testbed(scenario);
    while (const auto ex = testbed.next()) {
      if (ex->lost || !ex->ref_available) continue;
      if (ex->tb_stamp >= cut) ++expect_observable;
      if (ex->truth.tb >= cut) ++expect_truth;
    }
  }
  ASSERT_GT(expect_observable, 0u);

  const auto run_policy = [&](WarmupPolicy policy) {
    sim::Testbed testbed(scenario);
    SessionConfig config;
    config.params = params_for(scenario);
    config.discard_warmup = cut;
    config.warmup_policy = policy;
    ClockSession session(config, testbed.nominal_period());
    return session.run(testbed).evaluated;
  };
  EXPECT_EQ(run_policy(WarmupPolicy::kObservable), expect_observable);
  EXPECT_EQ(run_policy(WarmupPolicy::kGroundTruth), expect_truth);
}

TEST(ClockSessionWarmup, FullDiscardYieldsNoEvaluatedRecords) {
  const auto scenario = plain_scenario(222);
  sim::Testbed testbed(scenario);
  SessionConfig config;
  config.params = params_for(scenario);
  config.discard_warmup = 2 * scenario.duration;
  ClockSession session(config, testbed.nominal_period());
  CollectorSink collector;
  session.add_sink(collector);
  const auto& summary = session.run(testbed);
  EXPECT_EQ(summary.evaluated, 0u);
  EXPECT_TRUE(collector.records().empty());
  EXPECT_GT(summary.exchanges, 0u);
}

// -- Sinks -----------------------------------------------------------------

TEST(Sinks, CollectorAndCallbackSeeTheSameEvaluatedStream) {
  const auto scenario = plain_scenario(333);
  sim::Testbed testbed(scenario);
  SessionConfig config;
  config.params = params_for(scenario);
  ClockSession session(config, testbed.nominal_period());
  CollectorSink collector;
  std::size_t callback_count = 0;
  CallbackSink counter([&](const SampleRecord& rec) {
    EXPECT_TRUE(rec.evaluated);
    ++callback_count;
  });
  session.add_sink(collector);
  session.add_sink(counter);
  const auto& summary = session.run(testbed);
  EXPECT_EQ(collector.records().size(), summary.evaluated);
  EXPECT_EQ(callback_count, summary.evaluated);
  EXPECT_GT(summary.evaluated, 0u);
}

TEST(Sinks, EmitUnevaluatedFlagsLostAndWarmupRecords) {
  auto scenario = plain_scenario(444);
  scenario.events.add_outage(1200.0, 1500.0);
  sim::Testbed testbed(scenario);
  SessionConfig config;
  config.params = params_for(scenario);
  config.discard_warmup = 600.0;
  config.emit_unevaluated = true;
  ClockSession session(config, testbed.nominal_period());
  CollectorSink collector;
  session.add_sink(collector);
  const auto& summary = session.run(testbed);

  // Every exchange produces exactly one record when emit_unevaluated is on.
  EXPECT_EQ(collector.records().size(), summary.exchanges);
  std::size_t lost = 0;
  std::size_t evaluated = 0;
  std::size_t warmup = 0;
  for (const auto& rec : collector.records()) {
    if (rec.lost) ++lost;
    if (rec.evaluated) ++evaluated;
    if (rec.in_warmup) {
      ++warmup;
      EXPECT_FALSE(rec.evaluated);
    }
  }
  EXPECT_EQ(lost, summary.lost);
  EXPECT_EQ(evaluated, summary.evaluated);
  EXPECT_GT(warmup, 0u);
}

TEST(Sinks, ReducerMatchesSummarizeOfCollectedSeries) {
  const auto scenario = plain_scenario(555);
  sim::Testbed testbed(scenario);
  SessionConfig config;
  config.params = params_for(scenario);
  config.discard_warmup = 600.0;
  ClockSession session(config, testbed.nominal_period());
  CollectorSink collector;
  ReducerSink reducer(scenario.poll_period);
  session.add_sink(collector);
  session.add_sink(reducer);
  session.run(testbed);

  std::vector<double> clock_errors;
  std::vector<double> offset_errors;
  for (const auto& rec : collector.records()) {
    clock_errors.push_back(rec.abs_clock_error);
    offset_errors.push_back(rec.offset_error);
  }
  ASSERT_FALSE(clock_errors.empty());
  const auto reduction = reducer.reduce();
  EXPECT_EQ(reduction.evaluated, clock_errors.size());
  const auto clock_summary = summarize(clock_errors);
  const auto offset_summary = summarize(offset_errors);
  EXPECT_EQ(reduction.clock_error.mean, clock_summary.mean);
  EXPECT_EQ(reduction.clock_error.percentiles.p50,
            clock_summary.percentiles.p50);
  EXPECT_EQ(reduction.offset_error.percentiles.p99,
            offset_summary.percentiles.p99);
  // One simulated hour at a 16 s poll supports the short ADEV scale.
  EXPECT_EQ(reduction.adev_short_tau, 16 * scenario.poll_period);
  EXPECT_GT(reduction.adev_short, 0.0);
}

TEST(Sinks, ReducerOfEmptyStreamIsZeroInitialized) {
  ReducerSink reducer(16.0);
  const auto reduction = reducer.reduce();
  EXPECT_EQ(reduction.evaluated, 0u);
  EXPECT_EQ(reduction.clock_error.count, 0u);
  EXPECT_EQ(reduction.adev_short, 0.0);
  EXPECT_EQ(reduction.adev_long, 0.0);
}

TEST(Sinks, CsvTraceSinkWritesHeaderAndOneRowPerRecord) {
  const std::string path = "test_harness_trace.csv";
  auto scenario = plain_scenario(666);
  scenario.duration = 20 * duration::kMinute;
  sim::Testbed testbed(scenario);
  SessionConfig config;
  config.params = params_for(scenario);
  config.emit_unevaluated = true;
  ClockSession session(config, testbed.nominal_period());
  {
    CsvTraceSink csv(path);
    csv.set_scenario("unit-test");
    session.add_sink(csv);
    const auto& summary = session.run(testbed);
    EXPECT_EQ(csv.rows_written(), summary.exchanges);
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_NE(header.find("scenario"), std::string::npos);
  EXPECT_NE(header.find("offset_error"), std::string::npos);
  EXPECT_NE(header.find("abs_clock_error"), std::string::npos);
  std::size_t rows = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      ++rows;
      EXPECT_EQ(line.substr(0, line.find(',')), "unit-test");
    }
  }
  in.close();
  std::remove(path.c_str());
  EXPECT_GT(rows, 0u);
}

// -- Streaming reduction (O(1)-memory ReducerSink replacement) -------------

TEST(Sinks, StreamingReducerMatchesExactReducerOnLongTrace) {
  // Several hours with an outage: exercises the gap-split stretch selection
  // inside the ADEV reduction as well as the P² percentile sketch.
  auto scenario = plain_scenario(31337);
  scenario.duration = 8 * duration::kHour;
  scenario.events.add_outage(4 * duration::kHour, 4.5 * duration::kHour);
  sim::Testbed testbed(scenario);
  SessionConfig config;
  config.params = params_for(scenario);
  config.discard_warmup = duration::kHour;
  ClockSession session(config, testbed.nominal_period());
  ReducerSink exact(scenario.poll_period);
  StreamingReducerSink streaming(scenario.poll_period);
  session.add_sink(exact);
  session.add_sink(streaming);
  session.run(testbed);

  const auto a = exact.reduce();
  const auto b = streaming.reduce();
  ASSERT_GT(a.evaluated, 1000u);
  EXPECT_EQ(a.evaluated, b.evaluated);

  // Exact-by-construction fields: same arithmetic in the same order.
  EXPECT_EQ(a.clock_error.count, b.clock_error.count);
  EXPECT_EQ(a.clock_error.mean, b.clock_error.mean);
  EXPECT_EQ(a.clock_error.stddev, b.clock_error.stddev);
  EXPECT_EQ(a.clock_error.min, b.clock_error.min);
  EXPECT_EQ(a.clock_error.max, b.clock_error.max);
  EXPECT_EQ(a.offset_error.mean, b.offset_error.mean);
  EXPECT_EQ(a.offset_error.stddev, b.offset_error.stddev);
  EXPECT_EQ(a.adev_short_tau, b.adev_short_tau);
  EXPECT_EQ(a.adev_long_tau, b.adev_long_tau);
  // The streaming ADEV replicates stretch selection, resampling and the
  // accumulation order of the buffered pipeline exactly.
  EXPECT_EQ(a.adev_short, b.adev_short);
  EXPECT_EQ(a.adev_long, b.adev_long);
  ASSERT_GT(a.adev_short, 0.0);
  ASSERT_GT(a.adev_long, 0.0);

  // P² percentiles: approximate, bounded by a fraction of the spread.
  const double clock_scale = a.clock_error.max - a.clock_error.min;
  ASSERT_GT(clock_scale, 0.0);
  EXPECT_NEAR(a.clock_error.percentiles.p50, b.clock_error.percentiles.p50,
              0.10 * clock_scale);
  EXPECT_NEAR(a.clock_error.percentiles.p25, b.clock_error.percentiles.p25,
              0.10 * clock_scale);
  EXPECT_NEAR(a.clock_error.percentiles.p75, b.clock_error.percentiles.p75,
              0.10 * clock_scale);
  EXPECT_NEAR(a.clock_error.percentiles.p99, b.clock_error.percentiles.p99,
              0.20 * clock_scale);
  const double offset_scale = a.offset_error.max - a.offset_error.min;
  EXPECT_NEAR(a.offset_error.percentiles.p50, b.offset_error.percentiles.p50,
              0.10 * offset_scale);
}

TEST(Sinks, StreamingReducerOfEmptyStreamIsZeroInitialized) {
  StreamingReducerSink reducer(16.0);
  const auto reduction = reducer.reduce();
  EXPECT_EQ(reduction.evaluated, 0u);
  EXPECT_EQ(reduction.clock_error.count, 0u);
  EXPECT_EQ(reduction.adev_short, 0.0);
  EXPECT_EQ(reduction.adev_long, 0.0);
}

// -- Sweep CSV dump (the --csv satellite, via the library API) -------------

TEST(SweepCsv, DumpWritesScenarioLabelledRowsInGridOrder) {
  sweep::GridSpec grid;
  grid.servers = {sim::ServerKind::kLoc, sim::ServerKind::kInt};
  grid.environments = {sim::Environment::kMachineRoom};
  grid.poll_periods = {16.0};
  grid.duration = 20 * duration::kMinute;
  grid.master_seed = 2468;
  sweep::ScenarioSweep engine(grid);
  sweep::SweepOptions options;
  options.threads = 2;
  options.discard_warmup = 300.0;
  options.csv_path = "test_harness_sweep_trace.csv";
  const auto results = engine.run(options);
  ASSERT_EQ(results.size(), 2u);

  std::ifstream in(options.csv_path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::getline(in, line);  // header
  std::vector<std::string> scenario_column;
  while (std::getline(in, line)) {
    if (!line.empty()) scenario_column.push_back(line.substr(0, line.find(',')));
  }
  in.close();
  std::remove(options.csv_path.c_str());

  // One row per exchange of each scenario, grouped in grid order.
  std::size_t expected = 0;
  for (const auto& r : results) expected += r.exchanges;
  EXPECT_EQ(scenario_column.size(), expected);
  EXPECT_EQ(scenario_column.front(), engine.scenarios()[0].name);
  EXPECT_EQ(scenario_column.back(), engine.scenarios()[1].name);
  // Rows of the two scenarios must not interleave.
  std::size_t transitions = 0;
  for (std::size_t i = 1; i < scenario_column.size(); ++i)
    if (scenario_column[i] != scenario_column[i - 1]) ++transitions;
  EXPECT_EQ(transitions, 1u);
}

}  // namespace
}  // namespace tscclock::harness
