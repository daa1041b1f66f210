#include "harness/session.hpp"

#include "common/contracts.hpp"
#include "harness/replay.hpp"

namespace tscclock::harness {

namespace {

/// The whole-stream drive shared by ClockSession and MultiEstimatorSession:
/// hand the testbed's SoA stream to `consume` in kBatchChunk-row chunks
/// until its duration runs out.
template <typename Consume>
void drain(sim::Testbed& testbed, Consume&& consume) {
  sim::ExchangeBatch batch;
  while (true) {
    const std::size_t n = testbed.generate_batch(batch, kBatchChunk);
    if (n > 0) consume(batch);
    if (n < kBatchChunk) break;  // duration exhausted
  }
}

}  // namespace

bool exchange_in_warmup(const SessionConfig& config, bool lost,
                        Seconds tb_stamp, Seconds truth_tb) {
  const Seconds cut_time =
      !lost && config.warmup_policy == WarmupPolicy::kObservable ? tb_stamp
                                                                 : truth_tb;
  return cut_time < config.discard_warmup;
}

bool exchange_in_warmup(const SessionConfig& config, const sim::Exchange& ex) {
  return exchange_in_warmup(config, ex.lost, ex.tb_stamp, ex.truth.tb);
}

ClockSession::ClockSession(const SessionConfig& config, double nominal_period)
    : ClockSession(config, std::make_unique<TscNtpEstimator>(config.params,
                                                             nominal_period)) {}

ClockSession::ClockSession(const SessionConfig& config,
                           std::unique_ptr<ClockEstimator> estimator)
    : config_(config), estimator_(std::move(estimator)) {
  TSC_EXPECTS(estimator_ != nullptr);
  robust_ = dynamic_cast<TscNtpEstimator*>(estimator_.get());
  if (config_.record_trace) recorder_ = std::make_unique<TraceRecorder>(config_);
}

ClockSession::~ClockSession() = default;

void ClockSession::add_sink(SampleSink& sink) { sinks_.push_back(&sink); }

const ReplayTrace& ClockSession::trace() const {
  TSC_EXPECTS(recorder_ != nullptr);
  return recorder_->trace();
}

core::TscNtpClock& ClockSession::clock() {
  TSC_EXPECTS(robust_ != nullptr);
  return robust_->clock();
}

const core::TscNtpClock& ClockSession::clock() const {
  TSC_EXPECTS(robust_ != nullptr);
  return robust_->clock();
}

void ClockSession::emit(const SampleRecord& record) {
  for (auto* sink : sinks_) sink->on_sample(record);
}

void ClockSession::process(const sim::Exchange& ex) {
  if (recorder_) recorder_->observe(ex);
  ++summary_.exchanges;
  if (ex.lost) {
    ++summary_.lost;
    if (config_.emit_unevaluated) {
      SampleRecord record;
      record.index = ex.index;
      record.client_id = config_.client_id;
      record.lost = true;
      record.truth_ta = ex.truth.ta;
      record.truth_tb = ex.truth.tb;
      record.in_warmup = exchange_in_warmup(config_, ex);
      emit(record);
    }
    return;
  }

  SampleRecord record;
  record.index = ex.index;
  record.client_id = config_.client_id;
  record.ref_available = ex.ref_available;
  record.raw = core::RawExchange{ex.ta_counts, ex.tb_stamp, ex.te_stamp,
                                 ex.tf_counts};
  record.tf_counts_corrected = ex.tf_counts_corrected;
  record.tg = ex.tg;
  record.truth_ta = ex.truth.ta;
  record.truth_tb = ex.truth.tb;
  record.t_day = ex.tb_stamp / duration::kDay;

  if (config_.track_server_changes &&
      server_changes_.observe(
          core::ServerIdentity{ex.server_id, ex.server_stratum}, ex.index)) {
    estimator_->notify_server_change();
    record.server_changed = true;
  }

  record.report = estimator_->process_exchange(record.raw);
  record.warmed_up = estimator_->warmed_up();
  record.period = estimator_->period();

  record.in_warmup = exchange_in_warmup(config_, ex);

  if (ex.ref_available) {
    record.reference_offset =
        estimator_->uncorrected_time(ex.tf_counts) - ex.tg;
    record.offset_error = record.report.offset_estimate -
                          record.reference_offset;
    record.naive_error = record.report.naive_offset - record.reference_offset;
    record.abs_clock_error = estimator_->absolute_time(ex.tf_counts) - ex.tg;
  }

  record.evaluated = ex.ref_available && !record.in_warmup;
  if (record.evaluated) ++summary_.evaluated;
  if (record.evaluated || config_.emit_unevaluated) emit(record);
}

void ClockSession::process_batch(const sim::ExchangeBatch& batch) {
  process_batch(batch, 0, batch.size());
}

void ClockSession::process_batch(const sim::ExchangeBatch& batch,
                                 std::size_t begin, std::size_t end) {
  TSC_EXPECTS(begin <= end && end <= batch.size());
  for (auto* sink : sinks_) {
    if (!sink->wants_batch()) {
      // A record-shaped sink is attached: materialize each row and run the
      // per-exchange sequence, so every sink observes the stream exactly as
      // process() emits it.
      for (std::size_t i = begin; i < end; ++i) {
        batch.materialize(i, scratch_);
        process(scratch_);
      }
      return;
    }
  }

  // Fast lane: columns in, columns out. Same estimator/detector/recorder
  // sequence as process(), reading the SoA stream directly, but no
  // SampleRecord is built and no per-record virtual dispatch happens. Every
  // accumulated value is computed by the very expressions process() uses,
  // so the lane is bit-identical to the per-exchange one.
  batch_.clear();
  batch_.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    if (recorder_) {
      batch.materialize(i, scratch_);
      recorder_->observe(scratch_);
    }
    ++summary_.exchanges;
    if (batch.lost[i] != 0) {
      ++summary_.lost;
      continue;  // batch sinks never consume unevaluated records
    }
    if (config_.track_server_changes &&
        server_changes_.observe(
            core::ServerIdentity{batch.server_id[i], batch.server_stratum[i]},
            batch.index[i]))
      estimator_->notify_server_change();
    const core::RawExchange raw{batch.ta_counts[i], batch.tb_stamp[i],
                                batch.te_stamp[i], batch.tf_counts[i]};
    const auto report = estimator_->process_exchange(raw);
    if (batch.ref_available[i] == 0 ||
        exchange_in_warmup(config_, false, batch.tb_stamp[i],
                           batch.truth_tb[i]))
      continue;
    const Seconds reference_offset =
        estimator_->uncorrected_time(batch.tf_counts[i]) - batch.tg[i];
    const Seconds offset_error = report.offset_estimate - reference_offset;
    const Seconds abs_clock_error =
        estimator_->absolute_time(batch.tf_counts[i]) - batch.tg[i];
    ++summary_.evaluated;
    batch_.push(batch.tb_stamp[i], abs_clock_error, offset_error);
  }
  for (auto* sink : sinks_) sink->on_batch(batch_);
}

bool ClockSession::step(sim::Testbed& testbed) {
  auto exchange = testbed.next();
  if (!exchange) return false;
  process(*exchange);
  return true;
}

const SessionSummary& ClockSession::run(sim::Testbed& testbed) {
  drain(testbed, [this](const sim::ExchangeBatch& batch) {
    process_batch(batch);
  });
  set_polls_enumerated(testbed.polls_enumerated());
  return summary();
}

void ClockSession::set_polls_enumerated(std::uint64_t polls) {
  summary_.polls_enumerated = polls;
  if (recorder_) recorder_->set_polls_enumerated(polls);
}

const SessionSummary& ClockSession::summary() {
  summary_.final_status = estimator_->status();
  return summary_;
}

// -- MultiEstimatorSession -------------------------------------------------

MultiEstimatorSession::MultiEstimatorSession() = default;
MultiEstimatorSession::~MultiEstimatorSession() = default;

void MultiEstimatorSession::enable_trace_recording(
    const SessionConfig& config) {
  TSC_EXPECTS(recorder_ == nullptr);
  recorder_ = std::make_unique<TraceRecorder>(config);
}

const ReplayTrace& MultiEstimatorSession::trace() const {
  TSC_EXPECTS(recorder_ != nullptr);
  return recorder_->trace();
}

std::size_t MultiEstimatorSession::add_lane(
    const SessionConfig& config, std::unique_ptr<ClockEstimator> estimator) {
  lanes_.push_back(
      std::make_unique<ClockSession>(config, std::move(estimator)));
  return lanes_.size() - 1;
}

void MultiEstimatorSession::add_sink(std::size_t lane, SampleSink& sink) {
  TSC_EXPECTS(lane < lanes_.size());
  lanes_[lane]->add_sink(sink);
}

ClockSession& MultiEstimatorSession::lane(std::size_t index) {
  TSC_EXPECTS(index < lanes_.size());
  return *lanes_[index];
}

const ClockSession& MultiEstimatorSession::lane(std::size_t index) const {
  TSC_EXPECTS(index < lanes_.size());
  return *lanes_[index];
}

void MultiEstimatorSession::process_batch(const sim::ExchangeBatch& batch) {
  if (recorder_) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch.materialize(i, scratch_);
      recorder_->observe(scratch_);
    }
  }
  for (auto& lane : lanes_) lane->process_batch(batch);
}

void MultiEstimatorSession::run(sim::Testbed& testbed) {
  drain(testbed, [this](const sim::ExchangeBatch& batch) {
    process_batch(batch);
  });
  for (auto& lane : lanes_)
    lane->set_polls_enumerated(testbed.polls_enumerated());
  if (recorder_) recorder_->set_polls_enumerated(testbed.polls_enumerated());
}

}  // namespace tscclock::harness
