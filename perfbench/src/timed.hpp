// Timing decorators the traced run wraps around library objects. Each one
// forwards every call unchanged and opens a span around it, so the traced
// drive computes exactly what the untraced one does (the workloads check
// this by results digest).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "common.hpp"
#include "harness/replay.hpp"
#include "harness/session.hpp"
#include "spans.hpp"

namespace perfbench {

/// SampleSink decorator: every delivery into the wrapped sink is a span, and
/// the two delivery paths are counted. wants_batch() forwards the wrapped
/// sink's answer — SampleSink defaults it to false, and a single sink
/// answering false drops the whole session off the batched fast lane onto
/// the per-record path, so a decorator that forgot it would time a
/// different program.
class TimedSink final : public harness::SampleSink {
 public:
  TimedSink(harness::SampleSink& inner, SpanTracer& tracer, const char* span)
      : inner_(inner), tracer_(tracer), span_(span) {}

  void on_sample(const harness::SampleRecord& record) override {
    ++sample_calls_;
    SpanTracer::Scope scope(tracer_, span_);
    inner_.on_sample(record);
  }
  [[nodiscard]] bool wants_batch() const override {
    return inner_.wants_batch();
  }
  void on_batch(const harness::SampleBatch& batch) override {
    ++batch_calls_;
    SpanTracer::Scope scope(tracer_, span_);
    inner_.on_batch(batch);
  }

  [[nodiscard]] std::uint64_t sample_calls() const { return sample_calls_; }
  [[nodiscard]] std::uint64_t batch_calls() const { return batch_calls_; }

 private:
  harness::SampleSink& inner_;
  SpanTracer& tracer_;
  const char* span_;
  std::uint64_t sample_calls_ = 0;
  std::uint64_t batch_calls_ = 0;
};

/// Delivery-path totals over the TimedSinks of a traced drive.
struct SinkCalls {
  std::uint64_t batch = 0;
  std::uint64_t sample = 0;
  void add(const TimedSink& sink) {
    batch += sink.batch_calls();
    sample += sink.sample_calls();
  }
};

/// A batched drive must reach its sinks through on_batch only; one on_sample
/// call means the session fell back to the per-record path.
inline void check_fast_lane(Report& report, const SinkCalls& calls) {
  report.check(calls.batch > 0 && calls.sample == 0,
               "timing sinks saw " + std::to_string(calls.batch) +
                   " on_batch and " + std::to_string(calls.sample) +
                   " on_sample calls; the batched fast lane delivers "
                   "through on_batch only");
}

/// ReplayEstimator decorator timing process_trace as a span.
class TimedReplayEstimator final : public harness::ReplayEstimator {
 public:
  TimedReplayEstimator(std::unique_ptr<harness::ReplayEstimator> inner,
                       SpanTracer& tracer, const char* span)
      : inner_(std::move(inner)), tracer_(tracer), span_(span) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  harness::ReplayOutput process_trace(
      std::span<const harness::ReplaySample> samples) override {
    SpanTracer::Scope scope(tracer_, span_);
    return inner_->process_trace(samples);
  }

  [[nodiscard]] const harness::ReplayEstimator& inner() const {
    return *inner_;
  }

 private:
  std::unique_ptr<harness::ReplayEstimator> inner_;
  SpanTracer& tracer_;
  const char* span_;
};

}  // namespace perfbench
