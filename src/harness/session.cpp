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

/// Rows of the whole fleet in one parallel step of the fleet drive.
constexpr std::size_t kStepRows = 4 * kBatchChunk;

/// Client k's share of the fleet drive. Cache-line aligned, because clients
/// on different cores fill their own.
struct alignas(64) ClientStep {
  sim::ExchangeBatch rows;  ///< the burst being estimated
  /// Per capture page: the send time (truth.ta) of each row of the step.
  std::array<std::vector<Seconds>, 2> sent;
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

bool SinkChain::wants_records() const {
  return std::any_of(sinks_.begin(), sinks_.end(), [](const SampleSink* sink) {
    return !sink->wants_batch();
  });
}

void SinkChain::deliver(const SampleRecord& record) const {
  for (auto* sink : sinks_) sink->on_sample(record);
}

void SinkChain::push(Seconds tb, Seconds clock_error,
                     Seconds tracking_error) {
  if (batch_.size() == kBatchChunk) flush();
  batch_.push(tb, clock_error, tracking_error);
}

void SinkChain::flush() {
  if (batch_.empty()) return;
  for (auto* sink : sinks_) sink->on_batch(batch_);
  batch_.clear();
}

ClockSession::ClockSession(const SessionConfig& config, double nominal_period)
    : ClockSession(config, std::make_unique<TscNtpEstimator>(config.params,
                                                             nominal_period)) {}

ClockSession::ClockSession(const SessionConfig& config,
                           std::unique_ptr<ClockEstimator> estimator)
    : config_(config), estimator_(std::move(estimator)) {
  TSC_EXPECTS(estimator_ != nullptr);
  robust_ = dynamic_cast<TscNtpEstimator*>(estimator_.get());
}

void ClockSession::add_sink(SampleSink& sink) { sinks_.add(sink); }

core::TscNtpClock& ClockSession::clock() {
  TSC_EXPECTS(robust_ != nullptr);
  return robust_->clock();
}

const core::TscNtpClock& ClockSession::clock() const {
  TSC_EXPECTS(robust_ != nullptr);
  return robust_->clock();
}

void ClockSession::process_batch(const sim::ExchangeBatch& batch,
                                 std::vector<std::uint8_t>* emitted) {
  const std::size_t rows = batch.size();
  const std::size_t flags = emitted != nullptr ? emitted->size() : 0;
  if (emitted != nullptr) emitted->resize(flags + rows, 0);
  // Records are built only for record-shaped sinks, and only they see
  // unevaluated rows.
  const bool records = sinks_.wants_records();
  const bool emit_unevaluated = records && config_.emit_unevaluated;
  for (std::size_t i = 0; i < rows; ++i) {
    const ReplaySample sample = observe_row(config_, server_changes_, batch, i);
    ++summary_.exchanges;
    if (sample.lost) {
      ++summary_.lost;
      if (!emit_unevaluated) continue;
      SampleRecord record;
      static_cast<ReplaySample&>(record) = sample;
      sinks_.deliver(record);
      if (emitted != nullptr) (*emitted)[flags + i] = 1;
      continue;
    }
    if (sample.server_changed) estimator_->notify_server_change();
    const core::ProcessReport report = estimator_->process_exchange(sample.raw);

    // A record carries the errors of every referenced row; the column path
    // delivers post-warm-up rows only, so it reads the clocks for those.
    Seconds uncorrected = 0;
    std::optional<Seconds> absolute;
    if (sample.ref_available && (records || !sample.in_warmup)) {
      uncorrected = estimator_->uncorrected_time(sample.raw.tf);
      absolute = estimator_->absolute_time(sample.raw.tf);
    }
    const Score score = score_exchange(sample, report, uncorrected, absolute,
                                       GroundTruthMode::kReference);
    if (score.evaluated) ++summary_.evaluated;
    if (!score.evaluated && !emit_unevaluated) continue;
    if (emitted != nullptr) (*emitted)[flags + i] = 1;
    if (!records) {
      sinks_.push(sample.raw.tb, score.abs_clock_error, score.offset_error);
      continue;
    }
    SampleRecord record;
    static_cast<ReplaySample&>(record) = sample;
    static_cast<Score&>(record) = score;
    record.warmed_up = estimator_->warmed_up();
    record.report = report;
    record.period = estimator_->period();
    sinks_.deliver(record);
  }
  sinks_.flush();
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
}

const SessionSummary& ClockSession::summary() {
  summary_.final_status = estimator_->status();
  return summary_;
}

// -- MultiEstimatorSession -------------------------------------------------

/// What one lane emits for its shared sinks in the fleet drive, in the
/// shape the lane delivered it (records, or batch values), with one emitted
/// flag per row of the step so the feed can cut it at chunk boundaries. Two
/// pages: the lane fills one step's page while the feed reads the previous
/// step's. The feed moves each chunk's share into the open chunk and hands
/// that on through the shared sinks' own SinkChain once the chunk is
/// complete, so a chunk may span steps. Its batch preference is the shared
/// sinks', so the lane builds records exactly when it would with them
/// attached.
class MultiEstimatorSession::SharedCapture final : public SampleSink {
 public:
  void add(SampleSink& sink) { shared_.add(sink); }

  void on_sample(const SampleRecord& record) override {
    filling_->records.push_back(record);
  }
  [[nodiscard]] bool wants_batch() const override {
    return !shared_.wants_records();
  }
  void on_batch(const SampleBatch& batch) override {
    for (std::size_t i = 0; i < batch.size(); ++i)
      filling_->values.push(batch.tb[i], batch.abs_clock_error[i],
                            batch.offset_error[i]);
  }

  /// Start filling `page` (0 or 1), dropping what it held.
  void start(std::size_t page) {
    filling_ = &pages_[page];
    filling_->emitted.clear();
    filling_->records.clear();
    filling_->values.clear();
    filling_->row = 0;
    filling_->output = 0;
  }
  /// The filling page's emitted flags, one per row processed so far.
  [[nodiscard]] std::vector<std::uint8_t>& emitted() {
    return filling_->emitted;
  }

  /// Move the output of `page`'s next `rows` rows into the open chunk.
  void take(std::size_t page, std::size_t rows) {
    Page& p = pages_[page];
    const auto first = p.emitted.begin() + static_cast<std::ptrdiff_t>(p.row);
    const auto outputs = static_cast<std::size_t>(std::count(
        first, first + static_cast<std::ptrdiff_t>(rows), std::uint8_t{1}));
    p.row += rows;
    // A lane emits records or batch values, never both.
    if (!p.records.empty()) {
      const auto from = p.records.begin() + static_cast<std::ptrdiff_t>(p.output);
      open_records_.insert(open_records_.end(), from,
                           from + static_cast<std::ptrdiff_t>(outputs));
    } else {
      for (std::size_t i = p.output; i < p.output + outputs; ++i)
        shared_.push(p.values.tb[i], p.values.abs_clock_error[i],
                     p.values.offset_error[i]);
    }
    p.output += outputs;
  }
  /// Hand the open chunk's output to every shared sink and empty it.
  void flush() {
    for (const SampleRecord& record : open_records_) shared_.deliver(record);
    shared_.flush();
    open_records_.clear();
  }

 private:
  struct Page {
    std::vector<std::uint8_t> emitted;  ///< one flag per row of the step
    std::vector<SampleRecord> records;
    SampleBatch values;
    std::size_t row = 0;     ///< rows the feed has taken
    std::size_t output = 0;  ///< outputs the feed has taken
  };

  SinkChain shared_;  ///< buffers the open chunk's batch values
  std::array<Page, 2> pages_;
  Page* filling_ = &pages_[0];
  std::vector<SampleRecord> open_records_;
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

void MultiEstimatorSession::run(sim::Testbed& testbed) {
  // Lanes run one after another on this thread; a shared sink would see
  // lane-major order, not the fleet drive's client-major one.
  TSC_EXPECTS(std::none_of(captures_.begin(), captures_.end(),
                           [](const auto& capture) { return capture != nullptr; }));
  // A drain records at most one row per remaining poll slot.
  if (recorder_)
    recorder_->reserve(testbed.poll_slots() - testbed.polls_enumerated());
  drain(testbed, [this](const sim::ExchangeBatch& batch) {
    if (recorder_) recorder_->observe(batch);
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
  const bool shared = std::any_of(
      captures_.begin(), captures_.end(),
      [](const auto& capture) { return capture != nullptr; });
  constexpr Seconds kNever = std::numeric_limits<Seconds>::infinity();
  const Seconds step = static_cast<double>(kStepRows) *
                       fleet.client(0).config().poll_period /
                       static_cast<double>(n);
  // About one chunk of raw rows in flight over all clients.
  const std::size_t burst = std::max<std::size_t>(1, kBatchChunk / n);

  std::vector<ClientStep> clients(n);
  Seconds horizon = -kNever;
  const auto next_horizon = [&] {
    Seconds first = kNever;
    for (std::size_t k = 0; k < n; ++k)
      first = std::min(first, fleet.next_send_time(k));
    if (first == kNever) return false;
    // Start past the earliest pending send, so an outage costs no empty
    // steps and every step makes progress.
    horizon = std::max(horizon, first) + step;
    if (!(horizon > first)) horizon = std::nextafter(first, kNever);
    return true;
  };

  // Client k's share of a step: generate its rows below the horizon a burst
  // at a time and run each of its lanes over each burst (feeding their own
  // sinks directly, capturing the shared sinks' share on `page`), keeping
  // each row's send time for the feed.
  const auto run_client = [&](std::size_t k, std::size_t page) {
    ClientStep& client = clients[k];
    std::vector<Seconds>& sent = client.sent[page];
    sent.clear();
    for (const std::size_t lane : lanes_of[k])
      if (captures_[lane]) captures_[lane]->start(page);
    while (fleet.generate_until(k, horizon, client.rows, burst) > 0) {
      for (const std::size_t lane : lanes_of[k]) {
        SharedCapture* capture = captures_[lane].get();
        lanes_[lane]->process_batch(
            client.rows, capture != nullptr ? &capture->emitted() : nullptr);
      }
      if (shared)
        sent.insert(sent.end(), client.rows.truth_ta.begin(),
                    client.rows.truth_ta.end());
    }
  };

  // The shared sinks' feed of one page: merge the clients' send times (ties
  // to the lower client) into the serial drive's global chunks and hand each
  // complete chunk on, client by client, then lane by lane. A step holds
  // every row sent before its horizon and no later one, so the merged pages
  // concatenate to the serial merge; a chunk may start on an earlier page.
  std::size_t open = 0;  ///< rows in the open chunk
  std::vector<std::size_t> segment(n);  ///< k's rows in the open chunk
  using Head = std::pair<Seconds, std::size_t>;  ///< (truth.ta, client)
  std::vector<Head> heap;
  std::vector<std::size_t> cursor(n);
  const auto take_open_chunk = [&](std::size_t page, bool flush) {
    for (std::size_t k = 0; k < n; ++k) {
      for (const std::size_t lane : lanes_of[k]) {
        SharedCapture* capture = captures_[lane].get();
        if (capture == nullptr) continue;
        capture->take(page, segment[k]);
        if (flush) capture->flush();
      }
      segment[k] = 0;
    }
  };
  const auto feed = [&](std::size_t page) {
    heap.clear();
    for (std::size_t k = 0; k < n; ++k) {
      cursor[k] = 0;
      if (!clients[k].sent[page].empty())
        heap.emplace_back(clients[k].sent[page].front(), k);
    }
    std::make_heap(heap.begin(), heap.end(), std::greater<>{});
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
      const std::size_t k = heap.back().second;
      const std::vector<Seconds>& sent = clients[k].sent[page];
      ++segment[k];
      if (++cursor[k] < sent.size()) {
        heap.back().first = sent[cursor[k]];
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
      } else {
        heap.pop_back();
      }
      if (++open == kBatchChunk) {
        take_open_chunk(page, true);
        open = 0;
      }
    }
    take_open_chunk(page, false);
  };

  // One parallel step: task 0 feeds the shared sinks the previous step's
  // page; task k + 1 runs client k over this step's page.
  std::size_t page = 0;
  bool more = next_horizon();
  while (more) {
    for_each_task(pool, n + 1, [&](std::size_t task) {
      if (task == 0) {
        if (shared) feed(page ^ 1);
        return;
      }
      run_client(task - 1, page);
    });
    more = next_horizon();
    page ^= 1;
  }
  if (shared) {
    feed(page ^ 1);
    take_open_chunk(page ^ 1, true);  // the final short chunk
  }
  for (auto& lane : lanes_)
    lane->set_polls_enumerated(
        fleet.client(lane->config().client_id).polls_enumerated());
}

}  // namespace tscclock::harness
