// Pluggable SampleSink implementations for ClockSession:
//
//   CollectorSink        — buffers every record (figure benches, golden
//                          tests);
//   CallbackSink         — ad-hoc per-record lambda (streaming minima,
//                          progress printing);
//   ReducerSink          — the sweep's exact reduction: error summaries +
//                          two-scale Allan deviation over the evaluated
//                          stream (buffers the reduced series);
//   StreamingReducerSink — the same reduction in O(1) memory (P² quantile
//                          sketch + streaming ADEV accumulator), for traces
//                          too long to buffer;
//   CsvTraceSink         — per-exchange CSV rows for offline inspection.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/allan.hpp"
#include "common/csv.hpp"
#include "common/stats.hpp"
#include "harness/replay.hpp"
#include "harness/session.hpp"

namespace tscclock::harness {

/// Buffers every record it receives, in emission order.
class CollectorSink final : public SampleSink {
 public:
  void on_sample(const SampleRecord& record) override {
    records_.push_back(record);
  }
  [[nodiscard]] const std::vector<SampleRecord>& records() const {
    return records_;
  }

 private:
  std::vector<SampleRecord> records_;
};

/// Invokes a callable for every record. The callable may read its own
/// lane's clock (sinks run synchronously, right after the record's exchange
/// was processed) and drive secondary consumers such as a baseline clock fed
/// from the same exchange stream. State owned by another lane of a
/// MultiEstimatorSession is seen only at chunk granularity — that lane may
/// be a whole chunk behind or ahead — so pair values across lanes by
/// SampleRecord::index after the run instead.
class CallbackSink final : public SampleSink {
 public:
  using Callback = std::function<void(const SampleRecord&)>;
  explicit CallbackSink(Callback callback) : callback_(std::move(callback)) {}
  void on_sample(const SampleRecord& record) override { callback_(record); }

 private:
  Callback callback_;
};

/// Reduces the evaluated stream into the sweep's per-scenario statistics:
/// SeriesSummary of the absolute clock error Ca(Tf)−Tg and of the offset
/// tracking error θ̂−θg, plus the Allan deviation of the clock error at two
/// scales (adev factors × the polling period).
///
/// The sink retains the three series it reduces (times, clock errors,
/// offset errors) because exact percentiles need the sorted sample set —
/// the golden sweep tests pin every reduced value bit-for-bit against
/// summarize(). For traces too long to buffer, StreamingReducerSink below
/// computes the same Reduction in O(1) memory with P²-approximated
/// percentiles (everything else bit-identical).
class ReducerSink final : public SampleSink {
 public:
  struct Reduction {
    std::size_t evaluated = 0;
    /// Zero-initialized when evaluated == 0 (callers must not read a
    /// summary of an empty stream as a perfect run).
    SeriesSummary clock_error;
    SeriesSummary offset_error;
    /// 0 is the not-computable sentinel (trace too short for the scale).
    double adev_short_tau = 0;
    double adev_short = 0;
    double adev_long_tau = 0;
    double adev_long = 0;
  };

  /// `tau0` is the polling period: the ADEV resampling grid and the scale
  /// unit for the averaging factors. `mode` declares what ground truth the
  /// stream carries (GroundTruthMode doc in harness/replay.hpp): under
  /// kRelativeOnly the clock-error series is never collected (its summary
  /// stays zero-initialized with count 0, the structural-n/a sentinel) and
  /// the ADEV scales are computed over the tracking residual instead — the
  /// only stability series a reference-free trace defines.
  explicit ReducerSink(double tau0, std::size_t adev_short_factor = 16,
                       std::size_t adev_long_factor = 256,
                       GroundTruthMode mode = GroundTruthMode::kReference);

  void on_sample(const SampleRecord& record) override;

  /// Batch-aware: consumes exactly the three SampleBatch series, so the
  /// session's fast lane can skip record materialization entirely. The
  /// appended values are the ones on_sample would have pushed, in the same
  /// order — reduce() is bit-identical either way.
  [[nodiscard]] bool wants_batch() const override { return true; }
  void on_batch(const SampleBatch& batch) override;

  /// Reduce what has been consumed so far.
  [[nodiscard]] Reduction reduce() const;

 private:
  double tau0_;
  std::size_t short_factor_;
  std::size_t long_factor_;
  GroundTruthMode mode_;
  std::vector<double> times_;          ///< server receive stamps [s]
  std::vector<double> clock_errors_;   ///< Ca(Tf) − Tg (empty in relative)
  std::vector<double> offset_errors_;  ///< θ̂ − θg (θ̂ − θ̂_naive in relative)
};

/// O(1)-memory drop-in for ReducerSink: identical Reduction shape, identical
/// count/min/max/mean/stddev and ADEV values (the streaming ADEV replicates
/// the buffered stretch/resample/accumulate arithmetic exactly), with the
/// five percentiles approximated by a P² sketch. Use for month-scale sweeps
/// where buffering every evaluated exchange is no longer acceptable;
/// tolerance tests against the exact sink live in tests/test_harness.cpp.
class StreamingReducerSink final : public SampleSink {
 public:
  using Reduction = ReducerSink::Reduction;

  /// Same parameters (and mode semantics) as ReducerSink.
  explicit StreamingReducerSink(double tau0,
                                std::size_t adev_short_factor = 16,
                                std::size_t adev_long_factor = 256,
                                GroundTruthMode mode =
                                    GroundTruthMode::kReference);

  void on_sample(const SampleRecord& record) override;

  /// Batch-aware like ReducerSink; the accumulators are fed element by
  /// element in emission order, so the streaming state is bit-identical to
  /// the per-record path's.
  [[nodiscard]] bool wants_batch() const override { return true; }
  void on_batch(const SampleBatch& batch) override;

  /// Reduce what has been consumed so far.
  [[nodiscard]] Reduction reduce() const;

 private:
  double tau0_;
  std::size_t short_factor_;
  std::size_t long_factor_;
  GroundTruthMode mode_;
  StreamingSeriesSummary clock_error_;
  StreamingSeriesSummary offset_error_;
  /// Over (tb, Ca(Tf) − Tg) like the exact sink; (tb, θ̂ − θ̂_naive) in
  /// relative mode.
  StreamingGapAdev adev_;
};

/// Writes one CSV row per record (lost and warm-up records included when the
/// session emits them, flagged by the lost/evaluated columns). Pair with
/// SessionConfig::emit_unevaluated = true for gap-visible traces.
class CsvTraceSink final : public SampleSink {
 public:
  /// Tag selecting the resume mode of the appending constructor.
  struct Append {};

  /// Opens `path` (overwriting) and emits the header row.
  /// Throws std::runtime_error if the file cannot be opened.
  explicit CsvTraceSink(const std::string& path);

  /// Opens an existing `path` at its end and appends rows without a new
  /// header (the sweep's checkpoint resume keeps the committed trace
  /// prefix byte-for-byte and regenerates only the tail).
  CsvTraceSink(const std::string& path, Append);

  /// Label written into the `scenario` column of subsequent rows, so one
  /// file can hold the traces of a whole sweep grid.
  void set_scenario(std::string name) { scenario_ = std::move(name); }

  /// Label written into the `estimator` column of subsequent rows, so one
  /// file can hold every estimator's trace of a multi-estimator sweep.
  void set_estimator(std::string name) { estimator_ = std::move(name); }

  void on_sample(const SampleRecord& record) override;

  /// Flush and close with error checking (see CsvWriter::close).
  void close() { writer_.close(); }

  [[nodiscard]] std::size_t rows_written() const {
    return writer_.rows_written();
  }

  /// Absolute byte offset after everything written so far (the sweep's
  /// per-scenario checkpoint watermark; see CsvWriter::byte_offset).
  [[nodiscard]] std::uint64_t byte_offset() { return writer_.byte_offset(); }

 private:
  CsvWriter writer_;
  std::string scenario_;
  std::string estimator_ = "robust";
  std::vector<std::string> row_;  ///< reused across rows (no per-row vector)
};

}  // namespace tscclock::harness
