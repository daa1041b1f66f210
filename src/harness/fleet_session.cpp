#include "harness/fleet_session.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <limits>
#include <utility>

#include "common/contracts.hpp"

namespace tscclock::harness {

/// What lane k emits for the shared sinks during one epoch's estimate step,
/// kept in the shape the lane delivered it (records, or one SampleBatch per
/// process_batch call) and cut into one segment per merged chunk, so the
/// feed step can hand it to every shared sink in the serial drive's order.
/// Two pages: the lane fills one epoch's page while the feed reads the
/// previous epoch's. Its batch preference is the shared sinks', so each
/// lane takes the fast path exactly when it would with the shared sinks
/// attached.
class FleetSession::SharedCapture final : public SampleSink {
 public:
  explicit SharedCapture(const std::vector<SampleSink*>& shared)
      : shared_(shared) {}

  void on_sample(const SampleRecord& record) override {
    if (!shared_.empty()) filling_->records.push_back(record);
  }
  [[nodiscard]] bool wants_batch() const override {
    return std::all_of(
        shared_.begin(), shared_.end(),
        [](const SampleSink* sink) { return sink->wants_batch(); });
  }
  void on_batch(const SampleBatch& batch) override {
    if (shared_.empty()) return;
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

  const std::vector<SampleSink*>& shared_;
  std::array<Page, 2> pages_;
  Page* filling_ = &pages_[0];
};

namespace {

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

FleetSession::FleetSession() = default;
FleetSession::~FleetSession() = default;

std::size_t FleetSession::add_client(
    const SessionConfig& config, std::unique_ptr<ClockEstimator> estimator) {
  const std::size_t k = clients_.size();
  SessionConfig lane = config;
  lane.client_id = static_cast<std::uint32_t>(k);
  clients_.push_back(
      std::make_unique<ClockSession>(lane, std::move(estimator)));
  probes_.push_back(std::make_unique<FleetClientProbe>());
  captures_.push_back(std::make_unique<SharedCapture>(shared_));
  clients_.back()->add_sink(*probes_.back());
  clients_.back()->add_sink(*captures_.back());
  return k;
}

void FleetSession::claim(const SampleSink& sink) {
  TSC_EXPECTS(std::find(attached_.begin(), attached_.end(), &sink) ==
              attached_.end());
  attached_.push_back(&sink);
}

void FleetSession::add_sink(std::size_t k, SampleSink& sink) {
  TSC_EXPECTS(k < clients_.size());
  claim(sink);
  clients_[k]->add_sink(sink);
}

void FleetSession::add_shared_sink(SampleSink& sink) {
  claim(sink);
  shared_.push_back(&sink);
}

void FleetSession::run(sim::FleetTestbed& fleet, ThreadPool* pool) {
  const std::size_t n = clients_.size();
  TSC_EXPECTS(n == fleet.client_count());
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

  // The shared sinks' feed of an epoch's captures, chunk by chunk, client
  // by client: the serial drive's order.
  const auto feed = [&](std::size_t page, std::size_t chunks) {
    if (shared_.empty()) return;
    for (std::size_t c = 0; c < chunks; ++c)
      for (const auto& capture : captures_) capture->replay(page, c);
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
    // captures; task k + 1 runs lane k over its segment of every chunk
    // (feeding its own sinks directly, capturing the shared sinks' share on
    // the other page), then generates client k's next epoch, which needs
    // nothing from the lanes and keeps the client's rows on one core.
    const std::size_t previous = page ^ 1;
    for_each_task(pool, n + 1, [&](std::size_t task) {
      if (task == 0) {
        feed(previous, fed_chunks);
        return;
      }
      const std::size_t k = task - 1;
      captures_[k]->start(page);
      std::size_t begin = 0;
      for (std::size_t c = 0; c < chunks; ++c) {
        const std::size_t end = begin + counts[c * n + k];
        if (end > begin)
          clients_[k]->process_batch(buffered[k].rows, begin, end);
        captures_[k]->mark();
        begin = end;
      }
      if (!dry) generate(k);
    });
    fed_chunks = chunks;
    page = previous;
    if (dry) break;
  }
  feed(page ^ 1, fed_chunks);
  for (std::size_t k = 0; k < n; ++k)
    clients_[k]->set_polls_enumerated(fleet.client(k).polls_enumerated());
}

FleetReduction FleetSession::fleet_reduction() const {
  FleetReduction out;
  out.clients = probes_.size();
  std::vector<double> medians;
  medians.reserve(probes_.size());
  for (const auto& probe : probes_) {
    if (probe->clock_error().count() == 0) continue;
    const SeriesSummary summary = probe->clock_error().summary();
    medians.push_back(summary.percentiles.p50);
    out.worst_p99 =
        std::max(out.worst_p99, std::max(std::abs(summary.percentiles.p01),
                                         std::abs(summary.percentiles.p99)));
  }
  out.clients_with_data = medians.size();
  if (medians.empty()) return out;
  const auto [lo, hi] = std::minmax_element(medians.begin(), medians.end());
  out.pairwise_spread = *hi - *lo;
  double mean = 0;
  for (const double median : medians) mean += median;
  mean /= static_cast<double>(medians.size());
  double variance = 0;
  for (const double median : medians)
    variance += (median - mean) * (median - mean);
  variance /= static_cast<double>(medians.size());
  out.dispersion = std::sqrt(variance);
  return out;
}

SessionSummary FleetSession::combined_summary() const {
  SessionSummary out;
  for (std::size_t k = 0; k < clients_.size(); ++k) {
    const SessionSummary& lane = clients_[k]->summary();
    out.exchanges += lane.exchanges;
    out.lost += lane.lost;
    out.evaluated += lane.evaluated;
    out.polls_enumerated += lane.polls_enumerated;
    if (k == 0) out.final_status = lane.final_status;
  }
  return out;
}

}  // namespace tscclock::harness
