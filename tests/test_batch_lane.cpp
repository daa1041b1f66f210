// Golden equivalence of the batched drive against the per-exchange
// reference:
//   * Testbed::generate_batch produces the byte-identical exchange stream
//     next() produces, across chunk boundaries, outages and server switches;
//   * ClockSession / MultiEstimatorSession run() emit bit-identical reduced
//     values and summaries to an explicit next() → process() loop — for the
//     exact and the streaming reducer, single-lane and multi-lane with trace
//     recording, and under the stress (switch + outage) schedule;
//   * with a record-shaped sink attached, process_batch degrades to the
//     per-exchange sequence (identical SampleRecords).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "harness/replay.hpp"
#include "harness/session.hpp"
#include "harness/sinks.hpp"
#include "sim/scenario.hpp"

namespace tscclock::harness {
namespace {

/// One-hour MR-Int scenario with the §6 robustness events: a mid-trace
/// outage and two server switches (mirrors test_harness.cpp).
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

SessionConfig session_config_for(const sim::ScenarioConfig& scenario) {
  SessionConfig config;
  config.params = core::Params::for_poll_period(scenario.poll_period);
  config.discard_warmup = 600.0;
  config.warmup_policy = WarmupPolicy::kObservable;
  return config;
}

/// The per-exchange reference drive the goldens compare run() against:
/// next() → process() one exchange at a time, then the poll-slot count.
const SessionSummary& drain_per_exchange(ClockSession& session,
                                         sim::Testbed& testbed) {
  while (auto ex = testbed.next()) session.process(*ex);
  session.set_polls_enumerated(testbed.polls_enumerated());
  return session.summary();
}

void expect_exchange_eq(const sim::Exchange& a, const sim::Exchange& b) {
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.lost, b.lost);
  EXPECT_EQ(a.ta_counts, b.ta_counts);
  EXPECT_EQ(a.tf_counts, b.tf_counts);
  EXPECT_EQ(a.tf_counts_corrected, b.tf_counts_corrected);
  EXPECT_EQ(a.tb_stamp, b.tb_stamp);
  EXPECT_EQ(a.te_stamp, b.te_stamp);
  EXPECT_EQ(a.server_id, b.server_id);
  EXPECT_EQ(a.server_stratum, b.server_stratum);
  EXPECT_EQ(a.ref_available, b.ref_available);
  EXPECT_EQ(a.tg, b.tg);
  EXPECT_EQ(a.truth.ta, b.truth.ta);
  EXPECT_EQ(a.truth.tb, b.truth.tb);
  EXPECT_EQ(a.truth.te, b.truth.te);
  EXPECT_EQ(a.truth.tf, b.truth.tf);
  EXPECT_EQ(a.truth.d_forward, b.truth.d_forward);
  EXPECT_EQ(a.truth.d_server, b.truth.d_server);
  EXPECT_EQ(a.truth.d_backward, b.truth.d_backward);
}

void expect_summary_eq(const SeriesSummary& a, const SeriesSummary& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.stddev, b.stddev);
  EXPECT_EQ(a.percentiles.p01, b.percentiles.p01);
  EXPECT_EQ(a.percentiles.p25, b.percentiles.p25);
  EXPECT_EQ(a.percentiles.p50, b.percentiles.p50);
  EXPECT_EQ(a.percentiles.p75, b.percentiles.p75);
  EXPECT_EQ(a.percentiles.p99, b.percentiles.p99);
}

void expect_reduction_eq(const ReducerSink::Reduction& a,
                         const ReducerSink::Reduction& b) {
  EXPECT_EQ(a.evaluated, b.evaluated);
  expect_summary_eq(a.clock_error, b.clock_error);
  expect_summary_eq(a.offset_error, b.offset_error);
  EXPECT_EQ(a.adev_short_tau, b.adev_short_tau);
  EXPECT_EQ(a.adev_short, b.adev_short);
  EXPECT_EQ(a.adev_long_tau, b.adev_long_tau);
  EXPECT_EQ(a.adev_long, b.adev_long);
}

// -- Testbed batch API -----------------------------------------------------

TEST(TestbedBatch, GenerateBatchColumnsIdenticalToNext) {
  // The SoA stream: every column of every row — materialized back into an
  // Exchange — must reproduce next()'s stream bit-for-bit, across awkward
  // chunk boundaries, outage skips, server switches, and loss rows (which
  // keep their produced-up-to-the-loss fields and zeros elsewhere).
  sim::Testbed scalar(stress_scenario());
  sim::Testbed batched(stress_scenario());

  std::vector<sim::Exchange> reference;
  while (auto ex = scalar.next()) reference.push_back(*ex);

  sim::ExchangeBatch batch;
  sim::Exchange row;
  std::size_t seen = 0;
  while (true) {
    const std::size_t n = batched.generate_batch(batch, 37);
    ASSERT_EQ(n, batch.size());
    for (std::size_t k = 0; k < n; ++k) {
      ASSERT_LT(seen, reference.size());
      batch.materialize(k, row);
      expect_exchange_eq(reference[seen], row);
      ++seen;
    }
    if (n < 37) break;
  }
  EXPECT_EQ(seen, reference.size());
  EXPECT_EQ(scalar.polls_enumerated(), batched.polls_enumerated());
}

TEST(TestbedBatch, GenerateBatchReusedAcrossChunkSizes) {
  // Reusing one batch object across different chunk sizes must leave no
  // stale tail: the trailing short batch is trimmed to the produced rows.
  sim::Testbed a(plain_scenario());
  sim::Testbed b(plain_scenario());

  sim::ExchangeBatch wide;
  std::uint64_t total_wide = 0;
  while (true) {
    const std::size_t n = a.generate_batch(wide, 1024);
    total_wide += n;
    if (n < 1024) break;
  }
  sim::ExchangeBatch narrow;
  std::uint64_t total_narrow = 0;
  while (true) {
    const std::size_t n = b.generate_batch(narrow, 7);
    total_narrow += n;
    if (n < 7) break;
  }
  EXPECT_EQ(total_wide, total_narrow);
  EXPECT_EQ(a.polls_enumerated(), b.polls_enumerated());
}

TEST(TestbedBatch, CheckWireModeAssertsQuantizeMatchesRealWire) {
  // check_wire replays every produced stamp through the real packet
  // encode/decode and contract-asserts equality with the algebraic
  // quantization — so simply draining a check_wire testbed is the
  // end-to-end equivalence test. The stream must also be unchanged.
  auto checked_scenario = stress_scenario();
  checked_scenario.check_wire = true;
  sim::Testbed checked(checked_scenario);
  sim::Testbed plain(stress_scenario());

  std::vector<sim::Exchange> reference;
  while (auto ex = plain.next()) reference.push_back(*ex);

  sim::ExchangeBatch batch;
  sim::Exchange row;
  std::size_t seen = 0;
  while (true) {
    const std::size_t n = checked.generate_batch(batch, 64);
    for (std::size_t k = 0; k < n; ++k) {
      ASSERT_LT(seen, reference.size());
      batch.materialize(k, row);
      expect_exchange_eq(reference[seen], row);
      ++seen;
    }
    if (n < 64) break;
  }
  EXPECT_EQ(seen, reference.size());

  // The scalar path has its own check-wire call site; drain it too.
  sim::Testbed checked_scalar(checked_scenario);
  std::size_t scalar_seen = 0;
  while (auto ex = checked_scalar.next()) {
    ASSERT_LT(scalar_seen, reference.size());
    expect_exchange_eq(reference[scalar_seen], *ex);
    ++scalar_seen;
  }
  EXPECT_EQ(scalar_seen, reference.size());
}

// -- ClockSession batch lane ----------------------------------------------

TEST(BatchLane, SingleLaneExactReducerBitIdentical) {
  const auto scenario = plain_scenario();
  const auto config = session_config_for(scenario);

  sim::Testbed scalar_bed(scenario);
  ClockSession scalar(config, scalar_bed.nominal_period());
  ReducerSink scalar_reducer(scenario.poll_period);
  scalar.add_sink(scalar_reducer);
  const auto scalar_summary = drain_per_exchange(scalar, scalar_bed);

  sim::Testbed batch_bed(scenario);
  ClockSession batched(config, batch_bed.nominal_period());
  ReducerSink batch_reducer(scenario.poll_period);
  batched.add_sink(batch_reducer);
  const auto batch_summary = batched.run(batch_bed);

  EXPECT_EQ(scalar_summary.exchanges, batch_summary.exchanges);
  EXPECT_EQ(scalar_summary.lost, batch_summary.lost);
  EXPECT_EQ(scalar_summary.evaluated, batch_summary.evaluated);
  EXPECT_EQ(scalar_summary.polls_enumerated, batch_summary.polls_enumerated);
  EXPECT_EQ(scalar_summary.final_status.packets_processed,
            batch_summary.final_status.packets_processed);
  EXPECT_EQ(scalar_summary.final_status.period,
            batch_summary.final_status.period);
  EXPECT_EQ(scalar_summary.final_status.offset,
            batch_summary.final_status.offset);
  expect_reduction_eq(scalar_reducer.reduce(), batch_reducer.reduce());
}

TEST(BatchLane, SingleLaneStreamingReducerBitIdentical) {
  const auto scenario = plain_scenario(1357);
  const auto config = session_config_for(scenario);

  sim::Testbed scalar_bed(scenario);
  ClockSession scalar(config, scalar_bed.nominal_period());
  StreamingReducerSink scalar_reducer(scenario.poll_period);
  scalar.add_sink(scalar_reducer);
  drain_per_exchange(scalar, scalar_bed);

  sim::Testbed batch_bed(scenario);
  ClockSession batched(config, batch_bed.nominal_period());
  StreamingReducerSink batch_reducer(scenario.poll_period);
  batched.add_sink(batch_reducer);
  batched.run(batch_bed);

  expect_reduction_eq(scalar_reducer.reduce(), batch_reducer.reduce());
}

TEST(BatchLane, StressScheduleBitIdentical) {
  const auto scenario = stress_scenario();
  const auto config = session_config_for(scenario);

  sim::Testbed scalar_bed(scenario);
  ClockSession scalar(config, scalar_bed.nominal_period());
  ReducerSink scalar_reducer(scenario.poll_period);
  scalar.add_sink(scalar_reducer);
  const auto scalar_summary = drain_per_exchange(scalar, scalar_bed);

  sim::Testbed batch_bed(scenario);
  ClockSession batched(config, batch_bed.nominal_period());
  ReducerSink batch_reducer(scenario.poll_period);
  batched.add_sink(batch_reducer);
  const auto batch_summary = batched.run(batch_bed);

  EXPECT_EQ(scalar_summary.exchanges, batch_summary.exchanges);
  EXPECT_EQ(scalar_summary.lost, batch_summary.lost);
  EXPECT_EQ(scalar_summary.evaluated, batch_summary.evaluated);
  EXPECT_EQ(scalar_summary.final_status.server_changes,
            batch_summary.final_status.server_changes);
  expect_reduction_eq(scalar_reducer.reduce(), batch_reducer.reduce());
}

TEST(BatchLane, MultiLaneWithTraceRecordingBitIdentical) {
  const auto scenario = stress_scenario();
  const auto config = session_config_for(scenario);

  const auto estimators = [&](double nominal) {
    std::vector<std::unique_ptr<ClockEstimator>> out;
    out.push_back(std::make_unique<TscNtpEstimator>(config.params, nominal));
    out.push_back(
        std::make_unique<SwNtpEstimator>(baseline::PllConfig{}, nominal));
    out.push_back(std::make_unique<NaiveEstimator>(nominal));
    return out;
  };

  // Reference: three independent ClockSessions and one TraceRecorder, fed
  // the stream one exchange at a time.
  sim::Testbed scalar_bed(scenario);
  TraceRecorder scalar_recorder(config);
  std::vector<std::unique_ptr<ClockSession>> scalar;
  std::vector<ReducerSink> scalar_reducers;
  scalar_reducers.reserve(3);
  for (auto& estimator : estimators(scalar_bed.nominal_period())) {
    scalar.push_back(
        std::make_unique<ClockSession>(config, std::move(estimator)));
    scalar_reducers.emplace_back(scenario.poll_period);
    scalar.back()->add_sink(scalar_reducers.back());
  }
  while (auto ex = scalar_bed.next()) {
    scalar_recorder.observe(*ex);
    for (auto& lane : scalar) lane->process(*ex);
  }
  for (auto& lane : scalar)
    lane->set_polls_enumerated(scalar_bed.polls_enumerated());
  scalar_recorder.set_polls_enumerated(scalar_bed.polls_enumerated());

  sim::Testbed batch_bed(scenario);
  MultiEstimatorSession batched;
  batched.enable_trace_recording(config);
  std::vector<ReducerSink> batch_reducers;
  batch_reducers.reserve(3);
  for (auto& estimator : estimators(batch_bed.nominal_period())) {
    const std::size_t lane = batched.add_lane(config, std::move(estimator));
    batch_reducers.emplace_back(scenario.poll_period);
    batched.add_sink(lane, batch_reducers.back());
  }
  batched.run(batch_bed);

  for (std::size_t lane = 0; lane < 3; ++lane) {
    SCOPED_TRACE(lane);
    expect_reduction_eq(scalar_reducers[lane].reduce(),
                        batch_reducers[lane].reduce());
    const auto& a = scalar[lane]->summary();
    const auto& b = batched.lane(lane).summary();
    EXPECT_EQ(a.exchanges, b.exchanges);
    EXPECT_EQ(a.evaluated, b.evaluated);
    EXPECT_EQ(a.polls_enumerated, b.polls_enumerated);
  }

  // The shared recording must be sample-for-sample identical too.
  const ReplayTrace& ta = scalar_recorder.trace();
  const ReplayTrace& tb = batched.trace();
  EXPECT_EQ(ta.exchanges, tb.exchanges);
  EXPECT_EQ(ta.lost, tb.lost);
  EXPECT_EQ(ta.polls_enumerated, tb.polls_enumerated);
  ASSERT_EQ(ta.samples.size(), tb.samples.size());
  for (std::size_t i = 0; i < ta.samples.size(); ++i) {
    const auto& sa = ta.samples[i];
    const auto& sb = tb.samples[i];
    ASSERT_EQ(sa.index, sb.index);
    ASSERT_EQ(sa.lost, sb.lost);
    ASSERT_EQ(sa.raw.ta, sb.raw.ta);
    ASSERT_EQ(sa.raw.tb, sb.raw.tb);
    ASSERT_EQ(sa.raw.te, sb.raw.te);
    ASSERT_EQ(sa.raw.tf, sb.raw.tf);
    ASSERT_EQ(sa.ref_available, sb.ref_available);
    ASSERT_EQ(sa.tg, sb.tg);
    ASSERT_EQ(sa.in_warmup, sb.in_warmup);
    ASSERT_EQ(sa.server_changed, sb.server_changed);
  }
}

TEST(BatchLane, RecordSinkDegradesToScalarSequence) {
  // With a record-shaped sink attached, process_batch must emit the exact
  // SampleRecord stream the per-exchange loop emits (per-record, in order),
  // across chunk boundaries that do not divide the stream.
  const auto scenario = plain_scenario(97531);
  const auto config = session_config_for(scenario);

  sim::Testbed scalar_bed(scenario);
  ClockSession scalar(config, scalar_bed.nominal_period());
  CollectorSink scalar_collector;
  ReducerSink scalar_reducer(scenario.poll_period);
  scalar.add_sink(scalar_collector);
  scalar.add_sink(scalar_reducer);
  drain_per_exchange(scalar, scalar_bed);

  sim::Testbed batch_bed(scenario);
  ClockSession batched(config, batch_bed.nominal_period());
  CollectorSink batch_collector;
  ReducerSink batch_reducer(scenario.poll_period);
  batched.add_sink(batch_collector);
  batched.add_sink(batch_reducer);
  sim::ExchangeBatch batch;
  while (true) {
    const std::size_t n = batch_bed.generate_batch(batch, 37);
    batched.process_batch(batch);
    if (n < 37) break;
  }
  batched.set_polls_enumerated(batch_bed.polls_enumerated());

  // The mixed-sink path feeds the reducer through on_sample, identically.
  expect_reduction_eq(scalar_reducer.reduce(), batch_reducer.reduce());
  const auto& ra = scalar_collector.records();
  const auto& rb = batch_collector.records();
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    ASSERT_EQ(ra[i].index, rb[i].index);
    ASSERT_EQ(ra[i].evaluated, rb[i].evaluated);
    ASSERT_EQ(ra[i].report.offset_estimate, rb[i].report.offset_estimate);
    ASSERT_EQ(ra[i].offset_error, rb[i].offset_error);
    ASSERT_EQ(ra[i].abs_clock_error, rb[i].abs_clock_error);
    ASSERT_EQ(ra[i].naive_error, rb[i].naive_error);
    ASSERT_EQ(ra[i].period, rb[i].period);
    ASSERT_EQ(ra[i].warmed_up, rb[i].warmed_up);
    ASSERT_EQ(ra[i].server_changed, rb[i].server_changed);
  }
}

}  // namespace
}  // namespace tscclock::harness
