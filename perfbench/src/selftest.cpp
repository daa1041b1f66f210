// Self-tests of the benchmark's own machinery. perfbench/run.py runs them
// before every measurement and refuses to measure when one fails:
//   * span accounting: self time is a span minus its children, and the
//     residual against a wall time is reported as measured (simulated
//     clock, so every expected value is exact);
//   * the timing decorators keep a batched session on its fast lane (on_batch
//     only) and change no reduced value, and the fast-lane check catches a
//     decorator that does not forward wants_batch();
//   * the replay decorator changes no output;
//   * the host-speed probe times its work and, running in a child process,
//     leaves this process's peak RSS where it was.
#include <cstdio>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>

#include "common.hpp"
#include "harness/replay.hpp"
#include "harness/session.hpp"
#include "harness/sinks.hpp"
#include "sim/scenario.hpp"
#include "spans.hpp"
#include "timed.hpp"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "perfbench selftest FAILED: %s\n", what.c_str());
}

void span_accounting() {
  SimulatedClock clock(100.0);
  SpanTracer tracer(clock);
  const double start = clock.now();
  tracer.open("lane");
  clock.advance(1.0);
  tracer.time("sink", [&] { clock.advance(0.25); });
  clock.advance(0.5);
  tracer.time("sink", [&] { clock.advance(0.25); });
  tracer.close();  // lane: 2 s long, 0.5 s of it in sinks
  clock.advance(0.75);  // glue no span covers
  tracer.time("generate", [&] { clock.advance(0.5); });
  const double wall = clock.now() - start;

  const SpanStats lane = tracer.stats("lane");
  const SpanStats sink = tracer.stats("sink");
  const SpanStats generate = tracer.stats("generate");
  expect(lane.calls == 1 && lane.total_s == 2.0 && lane.self_s == 1.5,
         "a span's self time excludes its children");
  expect(sink.calls == 2 && sink.total_s == 0.5 && sink.self_s == 0.5,
         "a leaf span's self time is its duration");
  expect(generate.calls == 1 && generate.self_s == 0.5, "top-level leaf span");
  expect(tracer.stats("absent").calls == 0 && tracer.stats("absent").self_s == 0,
         "a span never opened reads zero");
  expect(tracer.open_spans() == 0, "every span closed");

  const Accounting accounting = account(tracer, wall);
  expect(accounting.wall_s == 3.25 && accounting.self_s == 2.5 &&
             accounting.residual_s == 0.75,
         "wall time = Σ self time + residual");
  expect(account(tracer, 2.0).residual_s == -0.5,
         "a residual is reported as measured, never clamped at zero");

  SimulatedClock nested_clock;
  SpanTracer nested(nested_clock);
  nested.open("x");
  nested_clock.advance(1.0);
  nested.time("x", [&] { nested_clock.advance(2.0); });
  nested.close();
  const SpanStats x = nested.stats("x");
  expect(x.calls == 2 && x.total_s == 5.0 && x.self_s == 3.0,
         "a span nested in its own name counts each instant once in self");

  bool threw = false;
  try {
    nested.close();
  } catch (const std::logic_error&) {
    threw = true;
  }
  expect(threw, "closing with no open span throws");
}

/// A decorator that forgets to forward wants_batch(): the mistake the
/// fast-lane check exists to catch.
class NonForwardingSink final : public harness::SampleSink {
 public:
  explicit NonForwardingSink(harness::SampleSink& inner) : inner_(inner) {}
  void on_sample(const harness::SampleRecord& record) override {
    ++calls.sample;
    inner_.on_sample(record);
  }
  void on_batch(const harness::SampleBatch& batch) override {
    ++calls.batch;
    inner_.on_batch(batch);
  }
  SinkCalls calls;

 private:
  harness::SampleSink& inner_;
};

sim::ScenarioConfig short_scenario() {
  sim::ScenarioConfig scenario;  // ServerInt, machine room, 16 s polls
  scenario.duration = 6 * 3600.0;
  scenario.seed = 7;
  return scenario;
}

/// One batched robust lane over the short scenario with `sink` attached.
void drive(harness::SampleSink& sink) {
  const sim::ScenarioConfig scenario = short_scenario();
  sim::Testbed testbed(scenario);
  harness::ClockSession session(sweep_session_config(scenario.poll_period),
                                testbed.nominal_period());
  session.add_sink(sink);
  session.run_batched(testbed);
}

bool same(const harness::ReducerSink::Reduction& a,
          const harness::ReducerSink::Reduction& b) {
  const auto& pa = a.clock_error.percentiles;
  const auto& pb = b.clock_error.percentiles;
  return a.evaluated == b.evaluated && a.clock_error.count == b.clock_error.count &&
         a.clock_error.mean == b.clock_error.mean && pa.p01 == pb.p01 &&
         pa.p50 == pb.p50 && pa.p99 == pb.p99 &&
         a.offset_error.mean == b.offset_error.mean &&
         a.adev_short == b.adev_short && a.adev_long == b.adev_long;
}

void fast_lane() {
  harness::StreamingReducerSink bare(16.0, kAdevShort, kAdevLong);
  drive(bare);

  SteadyClock clock;
  SpanTracer tracer(clock);
  harness::StreamingReducerSink reducer(16.0, kAdevShort, kAdevLong);
  TimedSink timed(reducer, tracer, "harness.reduce");
  drive(timed);
  expect(timed.batch_calls() > 0 && timed.sample_calls() == 0,
         "TimedSink keeps the session on the batched fast lane");
  expect(tracer.stats("harness.reduce").calls == timed.batch_calls(),
         "TimedSink opens one span per delivery");
  expect(same(reducer.reduce(), bare.reduce()),
         "TimedSink changes no reduced value");
  SinkCalls calls;
  calls.add(timed);
  Report accepted;
  check_fast_lane(accepted, calls);
  expect(accepted.errors.empty(), "the fast-lane check accepts on_batch only");

  harness::StreamingReducerSink degraded(16.0, kAdevShort, kAdevLong);
  NonForwardingSink broken(degraded);
  drive(broken);
  expect(broken.calls.sample > 0 && broken.calls.batch == 0,
         "without wants_batch() the session delivers per record");
  Report refused;
  check_fast_lane(refused, broken.calls);
  expect(!refused.errors.empty(), "the fast-lane check flags per-record delivery");
}

void replay_decorator() {
  const sim::ScenarioConfig scenario = short_scenario();
  const harness::SessionConfig config = sweep_session_config(scenario.poll_period);
  sim::Testbed testbed(scenario);
  harness::MultiEstimatorSession session;
  session.enable_trace_recording(config);
  session.run_batched(testbed);
  const auto& samples = session.trace().samples;

  harness::OfflineSmootherEstimator plain(config.params,
                                          testbed.nominal_period());
  const harness::ReplayOutput expected = plain.process_trace(samples);
  SteadyClock clock;
  SpanTracer tracer(clock);
  TimedReplayEstimator timed(std::make_unique<harness::OfflineSmootherEstimator>(
                                 config.params, testbed.nominal_period()),
                             tracer, "core.offline");
  const harness::ReplayOutput got = timed.process_trace(samples);
  expect(got.offsets == expected.offsets && got.period == expected.period &&
             got.point_errors == expected.point_errors,
         "TimedReplayEstimator changes no output");
  expect(timed.name() == "offline" && tracer.stats("core.offline").calls == 1,
         "TimedReplayEstimator forwards its name and opens one span");
}

void host_probe() {
  const double rss_before = peak_rss_mb();
  const double seconds = probe_s(4, kProbeLarge);
  expect(seconds > 0 && seconds < 60, "probe_s times its work");
  expect(peak_rss_mb() - rss_before < 1.0,
         "the probe's memory stays out of this process's peak RSS");
}

}  // namespace

int main() {
  try {
    host_probe();  // first: later tests raise the peak RSS it checks
    span_accounting();
    fast_lane();
    replay_decorator();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench selftest FAILED: %s\n", e.what());
    return 1;
  }
  if (failures > 0) return 1;
  std::fprintf(stderr, "perfbench selftest: all checks passed\n");
  return 0;
}
