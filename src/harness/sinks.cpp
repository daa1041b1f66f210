#include "harness/sinks.hpp"

#include <utility>

#include "common/table.hpp"

namespace tscclock::harness {

ReducerSink::ReducerSink(double tau0, std::size_t adev_short_factor,
                         std::size_t adev_long_factor, GroundTruthMode mode,
                         Percentiles percentiles)
    : mode_(mode),
      clock_error_(percentiles),
      offset_error_(percentiles),
      adev_short_tau_(static_cast<double>(adev_short_factor) * tau0),
      adev_long_tau_(static_cast<double>(adev_long_factor) * tau0),
      adev_(std::in_place, tau0,
            std::vector<std::size_t>{adev_short_factor, adev_long_factor}) {}

ReducerSink::ReducerSink(Percentiles percentiles)
    : mode_(GroundTruthMode::kReference),
      clock_error_(percentiles),
      offset_error_(percentiles) {}

void ReducerSink::on_sample(const SampleRecord& record) {
  if (record.evaluated)
    add(record.raw.tb, record.abs_clock_error, record.offset_error);
}

void ReducerSink::on_batch(const SampleBatch& batch) {
  for (std::size_t i = 0; i < batch.size(); ++i)
    add(batch.tb[i], batch.abs_clock_error[i], batch.offset_error[i]);
}

void ReducerSink::add(double tb, double clock_error, double offset_error) {
  // In relative mode abs_clock_error is structurally 0 (no reference): it
  // must never enter a summary where it would read as perfect tracking.
  const bool reference = mode_ == GroundTruthMode::kReference;
  if (reference) clock_error_.add(clock_error);
  offset_error_.add(offset_error);
  if (adev_) adev_->add(tb, reference ? clock_error : offset_error);
}

ReducerSink::Reduction ReducerSink::reduce() const {
  Reduction out;
  out.evaluated = offset_error_.count();
  out.clock_error = clock_error_.summary();
  out.offset_error = offset_error_.summary();
  out.adev_short_tau = adev_short_tau_;
  out.adev_long_tau = adev_long_tau_;
  // StreamingGapAdev omits a scale its longest gap-free stretch is too
  // short for, leaving the 0 sentinel.
  if (adev_) {
    for (const auto& point : adev_->result()) {
      if (point.tau == out.adev_short_tau) out.adev_short = point.deviation;
      if (point.tau == out.adev_long_tau) out.adev_long = point.deviation;
    }
  }
  return out;
}

void ReducerSink::Series::add(double value) {
  if (exact_)
    values_.push_back(value);
  else
    sketch_.add(value);
}

std::size_t ReducerSink::Series::count() const {
  return exact_ ? values_.size() : sketch_.count();
}

SeriesSummary ReducerSink::Series::summary() const {
  if (count() == 0) return {};
  return exact_ ? summarize(values_) : sketch_.summary();
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
