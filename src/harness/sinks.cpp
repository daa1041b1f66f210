#include "harness/sinks.hpp"

#include <span>

#include "common/allan.hpp"
#include "common/table.hpp"

namespace tscclock::harness {

ReducerSink::ReducerSink(double tau0, std::size_t adev_short_factor,
                         std::size_t adev_long_factor, GroundTruthMode mode)
    : tau0_(tau0),
      short_factor_(adev_short_factor),
      long_factor_(adev_long_factor),
      mode_(mode) {}

void ReducerSink::on_sample(const SampleRecord& record) {
  if (!record.evaluated) return;
  times_.push_back(record.raw.tb);
  // In relative mode abs_clock_error is structurally 0 (no reference): it
  // must never enter a summary where it would read as perfect tracking.
  if (mode_ == GroundTruthMode::kReference)
    clock_errors_.push_back(record.abs_clock_error);
  offset_errors_.push_back(record.offset_error);
}

void ReducerSink::on_batch(const SampleBatch& batch) {
  times_.insert(times_.end(), batch.tb.begin(), batch.tb.end());
  if (mode_ == GroundTruthMode::kReference) {
    clock_errors_.insert(clock_errors_.end(), batch.abs_clock_error.begin(),
                         batch.abs_clock_error.end());
  }
  offset_errors_.insert(offset_errors_.end(), batch.offset_error.begin(),
                        batch.offset_error.end());
}

namespace {

/// Fill both ADEV scales from one resampled series; allan_deviation skips
/// factors the trace is too short to support, leaving the 0 sentinel.
///
/// Computed over the longest stretch free of gaps > 4·tau0: interpolating
/// across an outage would fabricate collinear samples whose second
/// differences are exactly zero, biasing ADEV low for precisely the
/// robustness schedules a sweep is meant to compare. Ordinary packet loss
/// (a 2·tau0 hole) stays within one stretch. A sample whose time is not
/// strictly after its predecessor's (a backwards server step, NaN) ends the
/// stretch too — the same rule as StreamingGapAdev::add.
void fill_adev(const std::vector<double>& times,
               const std::vector<double>& errors, double tau0,
               std::size_t short_factor, std::size_t long_factor,
               ReducerSink::Reduction& out) {
  if (times.size() < 3) return;
  std::size_t best_begin = 0;
  std::size_t best_len = 0;
  std::size_t begin = 0;
  for (std::size_t i = 1; i <= times.size(); ++i) {
    if (i == times.size() || !(times[i] > times[i - 1]) ||
        times[i] - times[i - 1] > 4 * tau0) {
      if (i - begin > best_len) {
        best_len = i - begin;
        best_begin = begin;
      }
      begin = i;
    }
  }
  if (best_len < 3) return;
  const std::span<const double> seg_times(times.data() + best_begin, best_len);
  const std::span<const double> seg_errors(errors.data() + best_begin,
                                           best_len);
  const auto regular = resample_linear(seg_times, seg_errors, tau0);
  const std::size_t factors[] = {short_factor, long_factor};
  for (const auto& point : allan_deviation(regular, tau0, factors)) {
    if (point.tau == out.adev_short_tau) out.adev_short = point.deviation;
    if (point.tau == out.adev_long_tau) out.adev_long = point.deviation;
  }
}

}  // namespace

ReducerSink::Reduction ReducerSink::reduce() const {
  Reduction out;
  out.evaluated = offset_errors_.size();
  // A stream can end with no evaluable points (warm-up discard covering the
  // whole duration, or total loss); summarize() requires a non-empty series.
  if (!clock_errors_.empty()) out.clock_error = summarize(clock_errors_);
  if (!offset_errors_.empty()) out.offset_error = summarize(offset_errors_);
  out.adev_short_tau = static_cast<double>(short_factor_) * tau0_;
  out.adev_long_tau = static_cast<double>(long_factor_) * tau0_;
  fill_adev(times_,
            mode_ == GroundTruthMode::kReference ? clock_errors_
                                                 : offset_errors_,
            tau0_, short_factor_, long_factor_, out);
  return out;
}

StreamingReducerSink::StreamingReducerSink(double tau0,
                                           std::size_t adev_short_factor,
                                           std::size_t adev_long_factor,
                                           GroundTruthMode mode)
    : tau0_(tau0),
      short_factor_(adev_short_factor),
      long_factor_(adev_long_factor),
      mode_(mode),
      adev_(tau0, {adev_short_factor, adev_long_factor}) {}

void StreamingReducerSink::on_sample(const SampleRecord& record) {
  if (!record.evaluated) return;
  const bool reference = mode_ == GroundTruthMode::kReference;
  if (reference) clock_error_.add(record.abs_clock_error);
  offset_error_.add(record.offset_error);
  adev_.add(record.raw.tb,
            reference ? record.abs_clock_error : record.offset_error);
}

void StreamingReducerSink::on_batch(const SampleBatch& batch) {
  const bool reference = mode_ == GroundTruthMode::kReference;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (reference) clock_error_.add(batch.abs_clock_error[i]);
    offset_error_.add(batch.offset_error[i]);
    adev_.add(batch.tb[i], reference ? batch.abs_clock_error[i]
                                     : batch.offset_error[i]);
  }
}

StreamingReducerSink::Reduction StreamingReducerSink::reduce() const {
  Reduction out;
  out.evaluated = offset_error_.count();
  if (clock_error_.count() > 0) out.clock_error = clock_error_.summary();
  if (offset_error_.count() > 0) out.offset_error = offset_error_.summary();
  out.adev_short_tau = static_cast<double>(short_factor_) * tau0_;
  out.adev_long_tau = static_cast<double>(long_factor_) * tau0_;
  for (const auto& point : adev_.result()) {
    if (point.tau == out.adev_short_tau) out.adev_short = point.deviation;
    if (point.tau == out.adev_long_tau) out.adev_long = point.deviation;
  }
  return out;
}

namespace {

const std::vector<std::string>& trace_columns() {
  static const std::vector<std::string> columns = {
      "scenario",      "estimator",      "index",          "lost",
      "ref_available", "in_warmup",      "evaluated",
      "server_changed", "warmed_up",
      "t_day",         "tb_stamp",       "truth_tb",
      "offset_estimate",
      "reference_offset", "offset_error", "naive_error",
      "point_error",   "abs_clock_error", "period",
      "sanity_triggered", "upshift",      "downshift",
      // Trailing so existing column positions (CI cuts field 2 for the
      // estimator label) survive the fleet extension.
      "client"};
  return columns;
}

}  // namespace

CsvTraceSink::CsvTraceSink(const std::string& path)
    : writer_(path, trace_columns()) {}

CsvTraceSink::CsvTraceSink(const std::string& path, Append)
    : writer_(path, trace_columns(), CsvWriter::Append{}) {}

void CsvTraceSink::on_sample(const SampleRecord& r) {
  const bool upshift = r.report.shift && r.report.shift->upward;
  const bool downshift = r.report.shift && !r.report.shift->upward;
  // truth_tb is the one time column lost records carry (no reply, no
  // tb_stamp), so gap/loss timing survives into offline analysis. The
  // ref_available flag marks rows whose reference-aligned error columns are
  // not meaningful (printed as zeros) — without it they would read as
  // spurious perfect-tracking samples.
  //
  // The row vector is a member reused across calls: a long trace dump emits
  // millions of rows and must not pay a fresh vector per record.
  row_.resize(trace_columns().size());
  std::size_t c = 0;
  row_[c++] = scenario_;
  row_[c++] = estimator_;
  row_[c++] = format_count(r.index);
  row_[c++] = r.lost ? "1" : "0";
  row_[c++] = r.ref_available ? "1" : "0";
  row_[c++] = r.in_warmup ? "1" : "0";
  row_[c++] = r.evaluated ? "1" : "0";
  row_[c++] = r.server_changed ? "1" : "0";
  row_[c++] = r.warmed_up ? "1" : "0";
  row_[c++] = strfmt("%.6f", r.t_day);
  row_[c++] = strfmt("%.6f", r.raw.tb);
  row_[c++] = strfmt("%.6f", r.truth_tb);
  row_[c++] = strfmt("%.9e", r.report.offset_estimate);
  row_[c++] = strfmt("%.9e", r.reference_offset);
  row_[c++] = strfmt("%.9e", r.offset_error);
  row_[c++] = strfmt("%.9e", r.naive_error);
  row_[c++] = strfmt("%.9e", r.report.point_error);
  row_[c++] = strfmt("%.9e", r.abs_clock_error);
  row_[c++] = strfmt("%.12e", r.period);
  row_[c++] = r.report.sanity_triggered ? "1" : "0";
  row_[c++] = upshift ? "1" : "0";
  row_[c++] = downshift ? "1" : "0";
  row_[c++] = format_count(r.client_id);
  writer_.write_row(row_);
}

}  // namespace tscclock::harness
