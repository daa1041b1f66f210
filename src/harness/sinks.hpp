// Pluggable SampleSink implementations for ClockSession:
//
//   CollectorSink        — buffers every record (figure benches, golden
//                          tests);
//   CallbackSink         — ad-hoc per-record lambda (streaming minima,
//                          progress printing);
//   ReducerSink          — the sweep's one reducer: error summaries +
//                          two-scale Allan deviation over the evaluated
//                          stream, ADEV streamed as samples arrive; its
//                          Percentiles policy either buffers the two error
//                          series for exact percentiles or sketches them
//                          in O(1) memory (StreamingReducerSink is the
//                          sketch shorthand); without ADEV it pools the
//                          lanes of a fleet;
//   CsvTraceSink         — per-exchange CSV rows for offline inspection.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/allan.hpp"
#include "common/csv.hpp"
#include "common/stats.hpp"
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
/// be a whole chunk behind or ahead, or under the fleet drive on another
/// thread — so pair values across lanes by SampleRecord::index after the
/// run instead.
class CallbackSink final : public SampleSink {
 public:
  using Callback = std::function<void(const SampleRecord&)>;
  explicit CallbackSink(Callback callback) : callback_(std::move(callback)) {}
  void on_sample(const SampleRecord& record) override { callback_(record); }

 private:
  Callback callback_;
};

/// Which engine computes a reduction's five percentiles (1/25/50/75/99):
/// kExact buffers the error series and selects its order statistics
/// (summarize()), so the golden sweep tests pin every value bit-for-bit;
/// kSketch keeps a StreamingSeriesSummary per series (P² sketch) in O(1)
/// memory. Count, min, max, mean and stddev are bit-identical under both.
enum class Percentiles { kExact, kSketch };

/// Reduces the evaluated stream into the sweep's per-scenario statistics:
/// SeriesSummary of the absolute clock error Ca(Tf)−Tg and of the offset
/// tracking error θ̂−θg, plus the Allan deviation of the clock error at two
/// scales (adev factors × the polling period), accumulated as the samples
/// arrive by one StreamingGapAdev. The Percentiles policy is the only
/// difference between the exact and the O(1)-memory reduction.
class ReducerSink : public SampleSink {
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
  /// stream carries (GroundTruthMode doc in harness/session.hpp): under
  /// kRelativeOnly the clock-error series is never collected (its summary
  /// stays zero-initialized with count 0, the structural-n/a sentinel) and
  /// the ADEV scales are computed over the tracking residual instead — the
  /// only stability series a reference-free trace defines.
  explicit ReducerSink(double tau0, std::size_t adev_short_factor = 16,
                       std::size_t adev_long_factor = 256,
                       GroundTruthMode mode = GroundTruthMode::kReference,
                       Percentiles percentiles = Percentiles::kExact);

  /// A reducer without ADEV (both scales stay at the 0 sentinel), for a
  /// pool of several lanes' streams: their interleaved tb stamps define no
  /// stability series.
  explicit ReducerSink(Percentiles percentiles);

  void on_sample(const SampleRecord& record) override;

  /// Batch-aware: consumes exactly the three SampleBatch series, so a
  /// session feeding only reducers builds no SampleRecord. Each
  /// accumulator sees the values on_sample would have given it, in the same
  /// order — reduce() is bit-identical either way.
  [[nodiscard]] bool wants_batch() const override { return true; }
  void on_batch(const SampleBatch& batch) override;

  /// Reduce what has been consumed so far.
  [[nodiscard]] Reduction reduce() const;

 private:
  /// One error series under the percentile policy.
  class Series {
   public:
    explicit Series(Percentiles percentiles)
        : exact_(percentiles == Percentiles::kExact) {}
    void add(double value);
    [[nodiscard]] std::size_t count() const;
    /// Zero-initialized when empty (summarize() requires a non-empty
    /// series).
    [[nodiscard]] SeriesSummary summary() const;

   private:
    bool exact_;
    std::vector<double> values_;     ///< kExact
    StreamingSeriesSummary sketch_;  ///< kSketch
  };

  /// One evaluated row: the on_sample and on_batch paths meet here.
  void add(double tb, double clock_error, double offset_error);

  GroundTruthMode mode_;
  Series clock_error_;   ///< Ca(Tf) − Tg (empty in relative mode)
  Series offset_error_;  ///< θ̂ − θg (θ̂ − θ̂_naive in relative mode)
  double adev_short_tau_ = 0;
  double adev_long_tau_ = 0;
  /// Over (tb, Ca(Tf) − Tg); (tb, θ̂ − θ̂_naive) in relative mode. Absent
  /// for a pool reducer.
  std::optional<StreamingGapAdev> adev_;
};

/// Shorthand for ReducerSink under Percentiles::kSketch.
class StreamingReducerSink final : public ReducerSink {
 public:
  explicit StreamingReducerSink(double tau0,
                                std::size_t adev_short_factor = 16,
                                std::size_t adev_long_factor = 256,
                                GroundTruthMode mode =
                                    GroundTruthMode::kReference)
      : ReducerSink(tau0, adev_short_factor, adev_long_factor, mode,
                    Percentiles::kSketch) {}
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
