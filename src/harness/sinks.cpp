#include "harness/sinks.hpp"

#include <charconv>
#include <cstdint>
#include <utility>

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

/// Room for any one formatted number: %.6f of the largest finite double
/// spells its 309 integer digits in full.
constexpr std::size_t kNumberChars = 400;

void append_u64(std::string& line, std::uint64_t value) {
  char buffer[20];
  line.append(buffer, std::to_chars(buffer, buffer + sizeof buffer, value).ptr);
}

/// `value` as printf's %.<precision>f or %.<precision>e would spell it.
void append_double(std::string& line, double value, std::chars_format format,
                   int precision) {
  char buffer[kNumberChars];
  line.append(buffer, std::to_chars(buffer, buffer + sizeof buffer, value,
                                    format, precision)
                          .ptr);
}

void append_flag(std::string& line, bool flag) { line += flag ? ",1" : ",0"; }

}  // namespace

CsvTraceSink::CsvTraceSink(const std::string& path)
    : writer_(path, trace_columns()) {}

CsvTraceSink::CsvTraceSink(const std::string& path, Append)
    : writer_(path, trace_columns(), Append{}) {}

CsvTraceSink::CsvTraceSink(const std::string& path, NoHeader)
    : writer_(path, trace_columns(), NoHeader{}) {}

void CsvTraceSink::on_sample(const SampleRecord& r) {
  const bool upshift = r.report.shift && r.report.shift->upward;
  const bool downshift = r.report.shift && !r.report.shift->upward;
  // truth_tb is the one time column lost records carry (no reply, no
  // tb_stamp), so gap/loss timing survives into offline analysis. The
  // ref_available flag marks rows whose reference-aligned error columns are
  // not meaningful (printed as zeros) — without it they would read as
  // spurious perfect-tracking samples.
  //
  // The labels were escaped when set; numbers and flags never need it.
  line_.clear();
  line_ += scenario_;
  line_ += ',';
  line_ += estimator_;
  line_ += ',';
  append_u64(line_, r.index);
  append_flag(line_, r.lost);
  append_flag(line_, r.ref_available);
  append_flag(line_, r.in_warmup);
  append_flag(line_, r.evaluated);
  append_flag(line_, r.server_changed);
  append_flag(line_, r.warmed_up);
  for (const double fixed : {r.t_day, r.raw.tb, r.truth_tb}) {
    line_ += ',';
    append_double(line_, fixed, std::chars_format::fixed, 6);
  }
  for (const double sci : {r.report.offset_estimate, r.reference_offset,
                           r.offset_error, r.naive_error, r.report.point_error,
                           r.abs_clock_error}) {
    line_ += ',';
    append_double(line_, sci, std::chars_format::scientific, 9);
  }
  line_ += ',';
  append_double(line_, r.period, std::chars_format::scientific, 12);
  append_flag(line_, r.report.sanity_triggered);
  append_flag(line_, upshift);
  append_flag(line_, downshift);
  line_ += ',';
  append_u64(line_, r.client_id);
  line_ += '\n';
  writer_.write_line(line_);
}

}  // namespace tscclock::harness
