// Tests for the replay lane (harness/replay.hpp): trace recording,
// ReplaySession scoring, the OfflineSmootherEstimator adapter and the
// replay side of the estimator registry.
//
// The load-bearing guarantees:
//   * golden equivalence — replaying the recorded trace through
//     OfflineSmootherEstimator scores bit-identically to the legacy
//     hand-rolled collection loop (bench/ablation_offline.cpp before the
//     migration: build the RawExchange list by hand, call
//     core::smooth_offsets directly, subtract the reference by hand);
//   * the recorded trace is the estimator-independent view of exactly what
//     the online session saw — same quadruples, ground truth and flags;
//   * replay records carry the same `evaluated` semantics as online lanes
//     (warm-up cut + reference availability), so a ReducerSink attached to
//     a ReplaySession reduces a directly comparable stream; with
//     emit_unevaluated, replay and online lanes emit the same records, lost
//     and warm-up ones included;
//   * a replay's column delivery (reducers alone, flushed every
//     kBatchChunk rows) reduces bit-identically to its record delivery;
//   * degenerate traces (fewer than two arrived packets) yield zero
//     evaluated records instead of throwing;
//   * every smoothed offset of a month-scale stress trace, with and without
//     the shift split, is pinned by digest.
#include "harness/replay.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "common/serialize.hpp"
#include "core/offline.hpp"
#include "harness/estimator_spec.hpp"
#include "harness/sinks.hpp"
#include "sim/scenario.hpp"

namespace tscclock::harness {
namespace {

sim::ScenarioConfig replay_scenario(std::uint64_t seed = 20040917) {
  sim::ScenarioConfig scenario;
  scenario.server = sim::ServerKind::kInt;
  scenario.poll_period = 16.0;
  scenario.duration = 3 * duration::kHour;
  scenario.seed = seed;
  // An outage plus a server switch: gaps and identity changes must survive
  // the recording round trip.
  scenario.events.add_outage(4000.0, 4900.0);
  scenario.server_switches = {{7200.0, sim::ServerKind::kLoc}};
  return scenario;
}

SessionConfig replay_config(const sim::ScenarioConfig& scenario) {
  SessionConfig config;
  config.params = core::Params::for_poll_period(scenario.poll_period);
  config.discard_warmup = 30 * duration::kMinute;
  config.warmup_policy = WarmupPolicy::kObservable;
  return config;
}

// -- Golden equivalence: the legacy hand-rolled collection loop ------------

/// The pre-migration offline pass of bench/ablation_offline.cpp, verbatim:
/// collect the raw quadruples and ground truth by hand, run
/// core::smooth_offsets directly, and score against the smoother's own
/// timescale.
struct LegacyOffline {
  std::vector<double> errors;  ///< θ̂_k − (C(Tf_k) − Tg_k) per scored packet
  std::size_t poor_windows = 0;
  std::size_t packets = 0;
};

LegacyOffline legacy_handrolled_offline(const sim::ScenarioConfig& scenario,
                                        Seconds discard_warmup) {
  sim::Testbed testbed(scenario);
  std::vector<core::RawExchange> raws;
  std::vector<double> tg;
  std::vector<bool> warm;
  while (const auto ex = testbed.next()) {
    if (ex->lost || !ex->ref_available) continue;
    raws.push_back({ex->ta_counts, ex->tb_stamp, ex->te_stamp, ex->tf_counts});
    tg.push_back(ex->tg);
    warm.push_back(ex->tb_stamp < discard_warmup);
  }
  const auto params = core::Params::for_poll_period(scenario.poll_period);
  const auto offline =
      core::smooth_offsets(raws, params, testbed.nominal_period());
  LegacyOffline legacy;
  legacy.poor_windows = offline.poor_windows;
  legacy.packets = raws.size();
  for (std::size_t k = 0; k < raws.size(); ++k) {
    if (warm[k]) continue;  // the post-warm-up set the sweep reduces
    legacy.errors.push_back(
        offline.offsets[k] -
        (offline.timescale.read(raws[k].tf) - tg[k]));
  }
  return legacy;
}

TEST(ReplayGolden, OfflineLaneBitIdenticalToLegacyHandrolledLoop) {
  const auto scenario = replay_scenario();
  const auto config = replay_config(scenario);
  const auto legacy =
      legacy_handrolled_offline(scenario, config.discard_warmup);
  ASSERT_FALSE(legacy.errors.empty());

  sim::Testbed testbed(scenario);
  MultiEstimatorSession online;
  online.enable_trace_recording(config);
  online.run(testbed);

  auto smoother = std::make_unique<OfflineSmootherEstimator>(
      config.params, testbed.nominal_period());
  const OfflineSmootherEstimator& offline = *smoother;
  ReplaySession replay(config, std::move(smoother));
  CollectorSink records;
  replay.add_sink(records);
  replay.run(online.trace());

  // Note the legacy loop dropped reference-less packets before smoothing
  // while the recorder keeps them; on this testbed every arrived packet has
  // a reference, so the input sets coincide (asserted via the counts).
  ASSERT_EQ(online.trace().arrived(), legacy.packets);
  ASSERT_EQ(records.records().size(), legacy.errors.size());
  for (std::size_t i = 0; i < legacy.errors.size(); ++i) {
    // Bit-level double equality: the lane must score the smoother exactly
    // as the hand-rolled loop did — same packets, same reference, same
    // arithmetic.
    EXPECT_EQ(records.records()[i].offset_error, legacy.errors[i]) << i;
  }
  EXPECT_EQ(offline.result().poor_windows, legacy.poor_windows);
  EXPECT_EQ(replay.summary().evaluated, legacy.errors.size());
}

// -- Trace recording -------------------------------------------------------

TEST(TraceRecorder, RecordsExactlyWhatTheSessionSaw) {
  const auto scenario = replay_scenario(555);
  auto config = replay_config(scenario);
  config.emit_unevaluated = true;  // records for every poll, lost included

  sim::Testbed testbed(scenario);
  MultiEstimatorSession session;
  session.enable_trace_recording(config);
  const std::size_t lane = session.add_lane(
      config,
      std::make_unique<TscNtpEstimator>(config.params, testbed.nominal_period()));
  CollectorSink records;
  session.add_sink(lane, records);
  session.run(testbed);

  const ReplayTrace& trace = session.trace();
  const SessionSummary& summary = session.lane(lane).summary();
  EXPECT_EQ(trace.exchanges, summary.exchanges);
  EXPECT_EQ(trace.lost, summary.lost);
  EXPECT_EQ(trace.polls_enumerated, summary.polls_enumerated);
  ASSERT_EQ(trace.samples.size(), records.records().size());
  bool saw_lost = false;
  bool saw_server_change = false;
  for (std::size_t i = 0; i < trace.samples.size(); ++i) {
    const auto& s = trace.samples[i];
    const auto& r = records.records()[i];
    EXPECT_EQ(s.index, r.index);
    EXPECT_EQ(s.lost, r.lost);
    EXPECT_EQ(s.in_warmup, r.in_warmup);
    EXPECT_EQ(s.truth_ta, r.truth_ta);
    EXPECT_EQ(s.truth_tb, r.truth_tb);
    saw_lost = saw_lost || s.lost;
    if (s.lost) continue;
    EXPECT_EQ(s.raw.ta, r.raw.ta);
    EXPECT_EQ(s.raw.tb, r.raw.tb);
    EXPECT_EQ(s.raw.te, r.raw.te);
    EXPECT_EQ(s.raw.tf, r.raw.tf);
    EXPECT_EQ(s.tf_counts_corrected, r.tf_counts_corrected);
    EXPECT_EQ(s.ref_available, r.ref_available);
    EXPECT_EQ(s.tg, r.tg);
    EXPECT_EQ(s.t_day, r.t_day);
    EXPECT_EQ(s.server_changed, r.server_changed);
    saw_server_change = saw_server_change || s.server_changed;
  }
  EXPECT_TRUE(saw_server_change) << "the switch must survive recording";
}

TEST(TraceRecorder, MonthRecordingIsSizedOnceToThePollSlots) {
  // A 30-day, 16 s recording with an outage: the drain sizes the trace to
  // the testbed's poll slots before the first chunk, so it never grows by
  // doubling (capacity stays exactly the slot count).
  sim::ScenarioConfig scenario;
  scenario.poll_period = 16.0;
  scenario.duration = 30 * duration::kDay;
  scenario.seed = 2004;
  scenario.events.add_outage(duration::kDay, duration::kDay + duration::kHour);
  sim::Testbed testbed(scenario);
  const std::uint64_t slots = testbed.poll_slots();
  MultiEstimatorSession session;
  session.enable_trace_recording(replay_config(scenario));
  session.run(testbed);
  const ReplayTrace& trace = session.trace();
  EXPECT_EQ(trace.polls_enumerated, slots);
  EXPECT_LT(trace.samples.size(), slots);  // the outage skipped slots
  EXPECT_EQ(trace.samples.capacity(), slots);
}

TEST(TraceRecorder, SessionWithoutRecordingRefusesTraceAccess) {
  MultiEstimatorSession multi;
  EXPECT_THROW((void)multi.trace(), ContractViolation);
}

// -- ReplaySession scoring semantics ---------------------------------------

TEST(ReplaySession, EvaluatedSetMatchesOnlineLanes) {
  const auto scenario = replay_scenario(333);
  const auto config = replay_config(scenario);
  sim::Testbed testbed(scenario);
  MultiEstimatorSession online;
  online.enable_trace_recording(config);
  online.add_lane(config, std::make_unique<TscNtpEstimator>(
                              config.params, testbed.nominal_period()));
  CollectorSink online_records;
  online.add_sink(0, online_records);
  online.run(testbed);

  ReplaySession replay(config, std::make_unique<OfflineSmootherEstimator>(
                                   config.params, testbed.nominal_period()));
  CollectorSink replay_records;
  replay.add_sink(replay_records);
  replay.run(online.trace());

  // Same evaluated records, same order, same indices: the reduction of a
  // replay lane covers exactly the packets every online lane scored.
  ASSERT_EQ(replay_records.records().size(), online_records.records().size());
  ASSERT_GT(replay_records.records().size(), 0u);
  for (std::size_t i = 0; i < replay_records.records().size(); ++i) {
    const auto& r = replay_records.records()[i];
    const auto& o = online_records.records()[i];
    EXPECT_EQ(r.index, o.index);
    EXPECT_TRUE(r.evaluated);
    EXPECT_EQ(r.raw.tb, o.raw.tb);
    // Replay absolute clock error is the negated tracking error by
    // construction (Ca = C − θ̂ at the same packet).
    EXPECT_EQ(r.abs_clock_error, -r.offset_error);
    EXPECT_TRUE(std::isfinite(r.offset_error));
    EXPECT_GT(r.period, 0.0);
  }
  const SessionSummary& summary = online.lane(0).summary();
  EXPECT_EQ(replay.summary().exchanges, summary.exchanges);
  EXPECT_EQ(replay.summary().lost, summary.lost);
  EXPECT_EQ(replay.summary().evaluated, summary.evaluated);
  EXPECT_EQ(replay.summary().polls_enumerated, summary.polls_enumerated);
  EXPECT_EQ(replay.summary().final_status.offset_fallbacks,
            dynamic_cast<const OfflineSmootherEstimator&>(replay.estimator())
                .result()
                .poor_windows);
}

TEST(ReplaySession, UnevaluatedRecordsMatchOnlineLaneRecordForRecord) {
  // With emit_unevaluated on both sides, a replay lane emits one record per
  // poll, and every drive-level field of it — loss, reference, warm-up,
  // `evaluated`, identity, ground truth — is the online lane's, under
  // either warm-up policy.
  for (const WarmupPolicy policy :
       {WarmupPolicy::kObservable, WarmupPolicy::kGroundTruth}) {
    SCOPED_TRACE(policy == WarmupPolicy::kObservable ? "observable"
                                                      : "ground truth");
    const auto scenario = replay_scenario(444);
    auto config = replay_config(scenario);
    config.warmup_policy = policy;
    config.emit_unevaluated = true;
    sim::Testbed testbed(scenario);
    MultiEstimatorSession online;
    online.enable_trace_recording(config);
    online.add_lane(config, std::make_unique<TscNtpEstimator>(
                                config.params, testbed.nominal_period()));
    CollectorSink online_records;
    online.add_sink(0, online_records);
    online.run(testbed);

    ReplaySession replay(config, std::make_unique<OfflineSmootherEstimator>(
                                     config.params, testbed.nominal_period()));
    CollectorSink replay_records;
    replay.add_sink(replay_records);
    replay.run(online.trace());

    const auto& o = online_records.records();
    const auto& r = replay_records.records();
    ASSERT_EQ(r.size(), online.trace().samples.size()) << "one per poll";
    ASSERT_EQ(r.size(), o.size());
    std::size_t lost = 0;
    std::size_t warmup = 0;
    for (std::size_t i = 0; i < r.size(); ++i) {
      SCOPED_TRACE(i);
      EXPECT_EQ(r[i].lost, o[i].lost);
      EXPECT_EQ(r[i].ref_available, o[i].ref_available);
      EXPECT_EQ(r[i].in_warmup, o[i].in_warmup);
      EXPECT_EQ(r[i].evaluated, o[i].evaluated);
      EXPECT_EQ(r[i].index, o[i].index);
      EXPECT_EQ(r[i].truth_ta, o[i].truth_ta);
      EXPECT_EQ(r[i].truth_tb, o[i].truth_tb);
      EXPECT_EQ(r[i].t_day, o[i].t_day);
      EXPECT_EQ(r[i].server_changed, o[i].server_changed);
      EXPECT_EQ(r[i].client_id, o[i].client_id);
      lost += o[i].lost ? 1 : 0;
      warmup += o[i].in_warmup ? 1 : 0;
    }
    EXPECT_GT(lost, 0u) << "the outage must leave lost records";
    EXPECT_GT(warmup, 0u) << "the warm-up must leave unevaluated records";
  }
}

/// A ReducerSink that counts how it was fed.
class CountingReducer final : public SampleSink {
 public:
  CountingReducer(double tau0, GroundTruthMode mode, Percentiles percentiles)
      : reducer(tau0, 16, 256, mode, percentiles) {}
  void on_sample(const SampleRecord& record) override {
    ++samples;
    reducer.on_sample(record);
  }
  [[nodiscard]] bool wants_batch() const override {
    return reducer.wants_batch();
  }
  void on_batch(const SampleBatch& batch) override {
    ++batches;
    largest = std::max(largest, batch.size());
    reducer.on_batch(batch);
  }
  ReducerSink reducer;
  std::size_t samples = 0;
  std::size_t batches = 0;
  std::size_t largest = 0;
};

void expect_same_summary(const SeriesSummary& a, const SeriesSummary& b) {
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

TEST(ReplaySession, ColumnAndRecordDeliveryReduceIdentically) {
  // A ReducerSink alone takes the replay's output as SampleBatch columns,
  // flushed every kBatchChunk rows; beside a record-shaped sink it takes
  // records. The reductions must be bit-identical, under both ground-truth
  // modes and both percentile engines, on a trace long enough that several
  // flush boundaries fall inside it.
  sim::ScenarioConfig scenario = replay_scenario(888);
  scenario.duration = 30 * duration::kHour;  // 6750 polls
  const auto config = replay_config(scenario);
  sim::Testbed testbed(scenario);
  MultiEstimatorSession online;
  online.enable_trace_recording(config);
  online.run(testbed);
  ASSERT_GT(online.trace().arrived(), 5 * kBatchChunk);

  // The relative-only view of the same recording: no reference anywhere.
  ReplayTrace relative = online.trace();
  relative.ground_truth = GroundTruthMode::kRelativeOnly;
  for (ReplaySample& sample : relative.samples) {
    sample.ref_available = false;
    sample.tg = 0;
  }

  const ReplayTrace* const traces[] = {&online.trace(), &relative};
  for (const ReplayTrace* trace : traces) {
    const GroundTruthMode mode = trace->ground_truth;
    SCOPED_TRACE(mode == GroundTruthMode::kReference ? "reference"
                                                     : "relative");
    for (const Percentiles percentiles :
         {Percentiles::kExact, Percentiles::kSketch}) {
      SCOPED_TRACE(percentiles == Percentiles::kExact ? "exact" : "sketch");
      const auto replay_into = [&](bool with_records) {
        auto sink = std::make_unique<CountingReducer>(scenario.poll_period,
                                                      mode, percentiles);
        ReplaySession replay(config,
                             std::make_unique<OfflineSmootherEstimator>(
                                 config.params, testbed.nominal_period()));
        CollectorSink records;
        replay.add_sink(*sink);
        if (with_records) replay.add_sink(records);
        const std::size_t evaluated = replay.run(*trace).evaluated;
        EXPECT_EQ(sink->reducer.reduce().evaluated, evaluated);
        return sink;
      };
      const auto column_sink = replay_into(false);
      const auto record_sink = replay_into(true);
      EXPECT_EQ(column_sink->samples, 0u);
      EXPECT_GT(column_sink->batches, 5u);
      EXPECT_EQ(column_sink->largest, kBatchChunk);
      EXPECT_EQ(record_sink->batches, 0u);
      EXPECT_GT(record_sink->samples, 5 * kBatchChunk);

      const ReducerSink::Reduction columns = column_sink->reducer.reduce();
      const ReducerSink::Reduction records = record_sink->reducer.reduce();
      EXPECT_EQ(columns.evaluated, records.evaluated);
      expect_same_summary(columns.clock_error, records.clock_error);
      expect_same_summary(columns.offset_error, records.offset_error);
      EXPECT_EQ(columns.adev_short_tau, records.adev_short_tau);
      EXPECT_EQ(columns.adev_short, records.adev_short);
      EXPECT_EQ(columns.adev_long_tau, records.adev_long_tau);
      EXPECT_EQ(columns.adev_long, records.adev_long);
      EXPECT_EQ(columns.clock_error.count,
                mode == GroundTruthMode::kReference ? columns.evaluated : 0u);
      EXPECT_GT(columns.adev_long, 0.0);
    }
  }
}

TEST(ReplaySession, TinyTracesYieldNoEvaluatedRecordsInsteadOfThrowing) {
  for (const std::size_t arrived : {std::size_t{0}, std::size_t{1}}) {
    ReplayTrace trace;
    if (arrived == 1) {
      ReplaySample sample;
      sample.index = 0;
      sample.raw = core::RawExchange{1000, 0.5001, 0.5002, 2000};
      sample.ref_available = true;
      sample.tg = 0.5;
      trace.samples.push_back(sample);
    }
    trace.exchanges = trace.samples.size();
    trace.polls_enumerated = trace.samples.size();

    SessionConfig config;
    config.params = core::Params::for_poll_period(16.0);
    ReplaySession replay(config, std::make_unique<OfflineSmootherEstimator>(
                                     config.params, 2e-9));
    CollectorSink records;
    replay.add_sink(records);
    EXPECT_NO_THROW(replay.run(trace)) << arrived;
    EXPECT_EQ(replay.summary().evaluated, 0u) << arrived;
    EXPECT_TRUE(records.records().empty()) << arrived;
  }
}

// -- Split-at-shifts variant (offline(split=shifts)) -----------------------

TEST(OfflineSplit, NoDetectedShiftDelegatesToWholeTraceSmoothing) {
  // A steady trace has no level shift; the split variant must produce the
  // whole-trace result bit-for-bit (cuts empty → identical code path).
  sim::ScenarioConfig scenario;
  scenario.poll_period = 16.0;
  scenario.duration = 3 * duration::kHour;
  scenario.seed = 606;
  const auto config = replay_config(scenario);

  sim::Testbed testbed(scenario);
  MultiEstimatorSession online;
  online.enable_trace_recording(config);
  online.run(testbed);

  const auto score = [&](OfflineSmootherEstimator::Split split) {
    auto estimator = std::make_unique<OfflineSmootherEstimator>(
        config.params, testbed.nominal_period(), split);
    OfflineSmootherEstimator& smoother = *estimator;
    ReplaySession replay(config, std::move(estimator));
    CollectorSink records;
    replay.add_sink(records);
    replay.run(online.trace());
    std::vector<double> errors;
    for (const auto& r : records.records()) errors.push_back(r.offset_error);
    return std::pair<std::vector<double>, std::size_t>(errors,
                                                       smoother.segments());
  };
  const auto [plain, plain_segments] =
      score(OfflineSmootherEstimator::Split::kNone);
  const auto [split, split_segments] =
      score(OfflineSmootherEstimator::Split::kShifts);
  EXPECT_EQ(plain_segments, 1u);
  EXPECT_EQ(split_segments, 1u);
  ASSERT_EQ(plain.size(), split.size());
  ASSERT_FALSE(plain.empty());
  for (std::size_t i = 0; i < plain.size(); ++i)
    EXPECT_EQ(plain[i], split[i]) << i;
}

TEST(OfflineSplit, LevelShiftTraceIsCutAndRebasesTheMinimum) {
  // A permanent upward delay shift mid-trace: the split variant must detect
  // it and smooth the two halves with their own minima. The whole-trace
  // smoother keeps the pre-shift r-hat, so every post-shift window reads as
  // congested (poor-window fallback); re-basing the minimum per segment
  // eliminates that wholesale. (The Δ/2 path-asymmetry bias of the shift
  // itself is unknowable for either variant, so the comparison is on the
  // poor-window accounting, not on the DAG-aligned error.)
  sim::ScenarioConfig scenario;
  scenario.server = sim::ServerKind::kInt;
  scenario.poll_period = 16.0;
  scenario.duration = 8 * duration::kHour;
  scenario.seed = 707;
  scenario.events.add_level_shift(
      {4 * duration::kHour, sim::kForever, 0.8e-3, 0.0});
  const auto config = replay_config(scenario);

  sim::Testbed testbed(scenario);
  MultiEstimatorSession online;
  online.enable_trace_recording(config);
  online.run(testbed);

  struct Scored {
    double worst = 0;
    std::size_t segments = 0;
    std::size_t poor_windows = 0;
    std::vector<double> offsets;
  };
  const auto score = [&](OfflineSmootherEstimator::Split split) {
    auto estimator = std::make_unique<OfflineSmootherEstimator>(
        config.params, testbed.nominal_period(), split);
    OfflineSmootherEstimator& smoother = *estimator;
    ReplaySession replay(config, std::move(estimator));
    CollectorSink records;
    replay.add_sink(records);
    replay.run(online.trace());
    Scored out;
    for (const auto& r : records.records()) {
      out.worst = std::max(out.worst, std::fabs(r.offset_error));
      out.offsets.push_back(r.report.offset_estimate);
      EXPECT_TRUE(std::isfinite(r.offset_error));
    }
    out.segments = smoother.segments();
    out.poor_windows = smoother.result().poor_windows;
    return out;
  };
  const Scored plain = score(OfflineSmootherEstimator::Split::kNone);
  const Scored split = score(OfflineSmootherEstimator::Split::kShifts);
  EXPECT_EQ(plain.segments, 1u);
  EXPECT_GE(split.segments, 2u) << "the 0.8 ms shift must be detected";
  // Whole-trace smoothing misreads the entire post-shift half as congestion;
  // per-segment minima remove (nearly) all of those poor windows.
  EXPECT_GT(plain.poor_windows, 100u);
  EXPECT_LT(split.poor_windows, plain.poor_windows / 10);
  // The variants genuinely differ on this trace.
  ASSERT_EQ(plain.offsets.size(), split.offsets.size());
  EXPECT_NE(plain.offsets, split.offsets);
  EXPECT_TRUE(std::isfinite(split.worst));
}

// -- Every smoothed offset, pinned -------------------------------------------

TEST(OfflineGolden, MonthStressTraceOffsetsArePinned) {
  // The sweep's `stress` schedule over 30 days on MR-Int at 16 s: an
  // outage, a switch to ServerLoc and a 150 ms server fault. An FNV-1a
  // digest of every smoothed offset (exact hexfloat) for offline and
  // offline(split=shifts): the reduction goldens hash percentiles, where
  // one changed weight could hide.
  sim::ScenarioConfig scenario;
  scenario.server = sim::ServerKind::kInt;
  scenario.environment = sim::Environment::kMachineRoom;
  scenario.poll_period = 16.0;
  scenario.duration = 30 * duration::kDay;
  scenario.seed = 2004;
  const Seconds d = scenario.duration;
  scenario.events.add_outage(0.25 * d, 0.25 * d + 20 * duration::kMinute);
  scenario.events.add_server_fault(0.55 * d, 0.55 * d + 10 * duration::kMinute,
                                   150 * duration::kMillisecond);
  scenario.server_switches = {{d / 2, sim::ServerKind::kLoc}};
  const auto config = replay_config(scenario);

  sim::Testbed testbed(scenario);
  MultiEstimatorSession online;
  online.enable_trace_recording(config);
  online.run(testbed);

  const struct {
    OfflineSmootherEstimator::Split split;
    std::size_t segments;
    std::uint64_t digest;
  } cases[] = {
      {OfflineSmootherEstimator::Split::kNone, 1, 0xac4df30cbedfcd58ull},
      {OfflineSmootherEstimator::Split::kShifts, 2, 0x3e86ae3745e815c0ull},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.segments);
    OfflineSmootherEstimator smoother(config.params, testbed.nominal_period(),
                                      c.split);
    const ReplayOutput output = smoother.process_trace(online.trace().samples);
    ASSERT_EQ(output.offsets.size(), online.trace().arrived());
    std::string text;
    for (const Seconds offset : output.offsets) {
      append_double_exact(text, offset);
      text += '\n';
    }
    EXPECT_EQ(smoother.segments(), c.segments);
    EXPECT_EQ(fnv1a64(text), c.digest);
  }
}

// -- Registry (replay side) ------------------------------------------------

TEST(ReplayRegistry, OfflineFamilyRoundTripsAndBuilds) {
  const auto& registry = estimator_registry();
  const auto spec = registry.parse("offline");
  EXPECT_EQ(spec.label(), "offline");
  EXPECT_TRUE(registry.is_replay(spec));
  for (const char* family : {"robust", "swntp", "naive"})
    EXPECT_FALSE(registry.is_replay(registry.parse(family)));

  const auto params = core::Params::for_poll_period(16.0);
  const auto estimator = registry.make_replay(spec, params, 2e-9);
  ASSERT_NE(estimator, nullptr);
  EXPECT_EQ(estimator->name(), "offline");
  // The split=shifts variant builds through the same factory.
  const auto variant = registry.parse("offline(split=shifts)");
  EXPECT_EQ(variant.label(), "offline(split=shifts)");
  EXPECT_NE(registry.make_replay(variant, params, 2e-9), nullptr);
  // The online factory must reject replay families, and vice versa.
  EXPECT_THROW(registry.make_online(spec, params, 2e-9), ContractViolation);
  EXPECT_THROW(
      registry.make_replay(EstimatorSpec{"robust", {}}, params, 2e-9),
      ContractViolation);
}

}  // namespace
}  // namespace tscclock::harness
