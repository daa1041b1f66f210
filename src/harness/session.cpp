#include "harness/session.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <limits>
#include <utility>

#include "common/contracts.hpp"
#include "common/thread_pool.hpp"
#include "harness/replay.hpp"
#include "sim/fleet.hpp"

namespace tscclock::harness {

namespace {

/// The Testbed drive shared by ClockSession and MultiEstimatorSession: hand
/// the testbed's SoA stream to `consume` in kBatchChunk-row chunks until its
/// duration runs out.
template <typename Consume>
void drain(sim::Testbed& testbed, Consume&& consume) {
  sim::ExchangeBatch batch;
  while (true) {
    const std::size_t n = testbed.generate_batch(batch, kBatchChunk);
    if (n > 0) consume(batch);
    if (n < kBatchChunk) break;  // duration exhausted
  }
}

/// Client k's generated rows not yet estimated: a carried suffix of the
/// previous epoch, then this epoch's rows. Cache-line aligned, because
/// clients on different cores append to their own buffers.
struct alignas(64) Buffered {
  sim::ExchangeBatch rows;
  std::size_t merged = 0;  ///< leading rows the last merge placed in chunks
};

/// Run `fn(i)` for every i in [0, n), on the pool when there is one.
/// Either way the lowest throwing index's exception propagates.
void for_each_task(ThreadPool* pool, std::size_t n,
                   const std::function<void(std::size_t)>& fn) {
  if (pool != nullptr) {
    parallel_for(*pool, n, fn);
    return;
  }
  for (std::size_t k = 0; k < n; ++k) fn(k);
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

/// What one lane emits for its shared sinks during one epoch of the fleet
/// drive, kept in the shape the lane delivered it (records, or one
/// SampleBatch per process_batch call) and cut into one segment per merged
/// chunk, so the feed step can hand it to every shared sink in the serial
/// drive's order. Two pages: the lane fills one epoch's page while the feed
/// reads the previous epoch's. Its batch preference is the shared sinks', so
/// the lane takes the fast path exactly when it would with them attached.
class MultiEstimatorSession::SharedCapture final : public SampleSink {
 public:
  void add(SampleSink& sink) { shared_.push_back(&sink); }

  void on_sample(const SampleRecord& record) override {
    filling_->records.push_back(record);
  }
  [[nodiscard]] bool wants_batch() const override {
    return std::all_of(
        shared_.begin(), shared_.end(),
        [](const SampleSink* sink) { return sink->wants_batch(); });
  }
  void on_batch(const SampleBatch& batch) override {
    Page& page = *filling_;
    if (page.batches_used == page.batches.size()) page.batches.emplace_back();
    page.batches[page.batches_used++] = batch;
  }

  /// Start filling `page` (0 or 1), dropping what it held.
  void start(std::size_t page) {
    filling_ = &pages_[page];
    filling_->records.clear();
    filling_->batches_used = 0;
    filling_->marks.clear();
  }
  /// End the current chunk's segment.
  void mark() {
    filling_->marks.push_back(
        {filling_->records.size(), filling_->batches_used});
  }

  /// Feed chunk `c`'s segment of `page` to every shared sink.
  void replay(std::size_t page, std::size_t c) const {
    const Page& p = pages_[page];
    const Mark begin = c == 0 ? Mark{} : p.marks[c - 1];
    for (std::size_t i = begin.records; i < p.marks[c].records; ++i)
      for (SampleSink* sink : shared_) sink->on_sample(p.records[i]);
    for (std::size_t i = begin.batches; i < p.marks[c].batches; ++i)
      for (SampleSink* sink : shared_) sink->on_batch(p.batches[i]);
  }

 private:
  struct Mark {
    std::size_t records = 0;
    std::size_t batches = 0;
  };
  struct Page {
    std::vector<SampleRecord> records;
    std::vector<SampleBatch> batches;  ///< reused across epochs
    std::size_t batches_used = 0;
    std::vector<Mark> marks;  ///< segment ends, one per chunk
  };

  std::vector<SampleSink*> shared_;
  std::array<Page, 2> pages_;
  Page* filling_ = &pages_[0];
};

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
  captures_.emplace_back();
  return lanes_.size() - 1;
}

void MultiEstimatorSession::claim(const SampleSink& sink) {
  TSC_EXPECTS(std::find(attached_.begin(), attached_.end(), &sink) ==
              attached_.end());
  attached_.push_back(&sink);
}

void MultiEstimatorSession::add_sink(std::size_t lane, SampleSink& sink) {
  TSC_EXPECTS(lane < lanes_.size());
  claim(sink);
  lanes_[lane]->add_sink(sink);
}

void MultiEstimatorSession::add_shared_sink(std::span<const std::size_t> lanes,
                                            SampleSink& sink) {
  TSC_EXPECTS(!lanes.empty());
  if (lanes.size() == 1) {
    add_sink(lanes.front(), sink);
    return;
  }
  claim(sink);
  for (const std::size_t lane : lanes) {
    TSC_EXPECTS(lane < lanes_.size());
    auto& capture = captures_[lane];
    if (capture == nullptr) {
      capture = std::make_unique<SharedCapture>();
      lanes_[lane]->add_sink(*capture);
    }
    capture->add(sink);
  }
}

ClockSession& MultiEstimatorSession::lane(std::size_t index) {
  TSC_EXPECTS(index < lanes_.size());
  return *lanes_[index];
}

const ClockSession& MultiEstimatorSession::lane(std::size_t index) const {
  TSC_EXPECTS(index < lanes_.size());
  return *lanes_[index];
}

void MultiEstimatorSession::run(sim::Testbed& testbed) {
  // Lanes run one after another on this thread; a shared sink would see
  // lane-major order, not the fleet drive's client-major one.
  TSC_EXPECTS(std::none_of(captures_.begin(), captures_.end(),
                           [](const auto& capture) { return capture != nullptr; }));
  drain(testbed, [this](const sim::ExchangeBatch& batch) {
    if (recorder_) {
      for (std::size_t i = 0; i < batch.size(); ++i) {
        batch.materialize(i, scratch_);
        recorder_->observe(scratch_);
      }
    }
    for (auto& lane : lanes_) lane->process_batch(batch);
  });
  for (auto& lane : lanes_)
    lane->set_polls_enumerated(testbed.polls_enumerated());
  if (recorder_) recorder_->set_polls_enumerated(testbed.polls_enumerated());
}

void MultiEstimatorSession::run(sim::FleetTestbed& fleet, ThreadPool* pool) {
  TSC_EXPECTS(recorder_ == nullptr);
  const std::size_t n = fleet.client_count();
  std::vector<std::vector<std::size_t>> lanes_of(n);  ///< by client, in order
  for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
    const std::size_t k = lanes_[lane]->config().client_id;
    TSC_EXPECTS(k < n);
    lanes_of[k].push_back(lane);
  }
  constexpr Seconds kNever = std::numeric_limits<Seconds>::infinity();
  // An epoch buffers about one chunk's worth of rows over all clients.
  const Seconds epoch = static_cast<double>(kBatchChunk) *
                        fleet.client(0).config().poll_period /
                        static_cast<double>(n);

  // Every row sent before the horizon is buffered and no later one is, so
  // merging the buffers reproduces a prefix of the serial merge exactly.
  std::vector<Buffered> buffered(n);
  std::vector<std::size_t> counts;  ///< counts[c * n + k]: k's rows in chunk c
  using Head = std::pair<Seconds, std::size_t>;  ///< (truth.ta, client)
  std::vector<Head> heap;
  Seconds horizon = -kNever;
  const auto next_horizon = [&] {
    Seconds first = kNever;
    for (std::size_t k = 0; k < n; ++k)
      first = std::min(first, fleet.next_send_time(k));
    if (first == kNever) return;
    // Start past the earliest pending send, so an outage costs no empty
    // epochs and every epoch makes progress.
    horizon = std::max(horizon, first) + epoch;
    if (!(horizon > first)) horizon = std::nextafter(first, kNever);
  };
  const auto generate = [&](std::size_t k) {
    buffered[k].rows.erase_front(buffered[k].merged);
    fleet.generate_until(k, horizon, buffered[k].rows);
  };

  // The shared sinks' feed of an epoch's captures: chunk, then client, then
  // lane — the serial drive's order.
  const auto feed = [&](std::size_t page, std::size_t chunks) {
    for (std::size_t c = 0; c < chunks; ++c)
      for (const auto& lanes : lanes_of)
        for (const std::size_t lane : lanes)
          if (captures_[lane]) captures_[lane]->replay(page, c);
  };

  next_horizon();
  for_each_task(pool, n, generate);
  std::size_t page = 0;        ///< the capture page lanes fill this epoch
  std::size_t fed_chunks = 0;  ///< chunks on the other page, fed next step
  for (;;) {
    bool dry = true;
    for (std::size_t k = 0; k < n; ++k)
      dry = dry && fleet.next_send_time(k) == kNever;

    // Merge (serial): by send time, ties to the lower client, into whole
    // chunks; the remainder waits for the next epoch unless the fleet ran
    // dry, when it forms the final short chunk.
    std::size_t total = 0;
    heap.clear();
    for (std::size_t k = 0; k < n; ++k) {
      const sim::ExchangeBatch& rows = buffered[k].rows;
      total += rows.size();
      buffered[k].merged = 0;
      if (!rows.empty()) heap.emplace_back(rows.truth_ta[0], k);
    }
    const std::size_t rows = dry ? total : total - total % kBatchChunk;
    const std::size_t chunks = (rows + kBatchChunk - 1) / kBatchChunk;
    counts.assign(chunks * n, 0);
    std::make_heap(heap.begin(), heap.end(), std::greater<>{});
    for (std::size_t r = 0; r < rows; ++r) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
      const std::size_t k = heap.back().second;
      ++counts[r / kBatchChunk * n + k];
      const std::size_t next = ++buffered[k].merged;
      if (next < buffered[k].rows.size()) {
        heap.back().first = buffered[k].rows.truth_ta[next];
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
      } else {
        heap.pop_back();
      }
    }
    if (!dry) next_horizon();

    // One parallel step: task 0 feeds the shared sinks the previous epoch's
    // captures; task k + 1 runs client k's lanes over its segment of every
    // chunk (feeding their own sinks directly, capturing the shared sinks'
    // share on the other page), then generates client k's next epoch, which
    // needs nothing from the lanes and keeps the client's rows on one core.
    const std::size_t previous = page ^ 1;
    for_each_task(pool, n + 1, [&](std::size_t task) {
      if (task == 0) {
        feed(previous, fed_chunks);
        return;
      }
      const std::size_t k = task - 1;
      for (const std::size_t lane : lanes_of[k])
        if (captures_[lane]) captures_[lane]->start(page);
      std::size_t begin = 0;
      for (std::size_t c = 0; c < chunks; ++c) {
        const std::size_t end = begin + counts[c * n + k];
        for (const std::size_t lane : lanes_of[k]) {
          if (end > begin)
            lanes_[lane]->process_batch(buffered[k].rows, begin, end);
          if (captures_[lane]) captures_[lane]->mark();
        }
        begin = end;
      }
      if (!dry) generate(k);
    });
    fed_chunks = chunks;
    page = previous;
    if (dry) break;
  }
  feed(page ^ 1, fed_chunks);
  for (auto& lane : lanes_)
    lane->set_polls_enumerated(
        fleet.client(lane->config().client_id).polls_enumerated());
}

}  // namespace tscclock::harness
