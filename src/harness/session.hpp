// ClockSession: the single canonical Testbed → estimator drive loop.
//
// Every evaluation surface in this repo — the per-figure benches, the
// examples, and the parallel scenario sweep — measures the same thing: a
// Testbed exchange stream processed by a clock algorithm and scored against
// the DAG reference monitor. Each step of that sequence exists once, and
// the replay lane (harness/replay.hpp) shares steps 1, 4 and 5:
//
//   1. observe_row() reads an exchange row (loss accounting, the warm-up
//      cut) and feeds the reply's transport identity to a
//      ServerChangeDetector (identity lives on the transport endpoint, not
//      the NTP reference-id field — two distinct servers can both report
//      "GPS");
//   2. forward a change via ClockEstimator::notify_server_change();
//   3. process_exchange() on the {Ta, Tb, Te, Tf} quadruple;
//   4. score_exchange() aligns with the reference: θg_i = C(Tf_i) − Tg_i,
//      where C is the algorithm's own uncorrected clock (paper §2.4, §5.3).
//      Because both the estimate and θg use the same C, the arbitrary clock
//      origin cancels and the error measures pure tracking quality (up to
//      the Δ/2 path-asymmetry ambiguity);
//   5. a SinkChain delivers the row to every attached SampleSink.
//
// There is one whole-stream drive: run() pulls the Testbed's SoA stream in
// kBatchChunk-row chunks (Testbed::generate_batch) and hands each chunk to
// process_batch(ExchangeBatch), one loop over its rows.
//
// Which algorithm processes the stream is a ClockEstimator (see
// harness/estimator.hpp); the default is the robust TscNtpClock via
// TscNtpEstimator. Consumers differ only in their estimator and in which
// sink they attach (vector collector for figures, percentile/ADEV reducer
// for the sweep, CSV writer for offline inspection, ad-hoc callback for
// everything else) — never in how the stream is driven.
//
// MultiEstimatorSession is the one lane fan-out: lanes keyed by (client,
// estimator), each a ClockSession with its own sink chain. Over a Testbed
// every lane scores the one client's stream — the paper's comparative
// evaluations (robust vs SW-NTP vs naive) on identical packets; over a
// FleetTestbed each client's stream is generated once and scored by all of
// that client's lanes. It is also the one owner of a trace recording (the
// estimator-independent stream the replay lanes score, harness/replay.hpp).
//
// Warm-up policies (see WarmupPolicy): the figure benches historically cut
// warm-up on ground-truth time (truth.tb, simulation-only), while the sweep
// cuts on the observable server stamp (tb_stamp, what a deployed client
// could actually do). Both conventions are preserved and must be chosen
// explicitly per session.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/time_types.hpp"
#include "core/clock.hpp"
#include "core/params.hpp"
#include "core/server_change.hpp"
#include "harness/estimator.hpp"
#include "sim/scenario.hpp"

namespace tscclock {
class ThreadPool;  // common/thread_pool.hpp
}  // namespace tscclock

namespace tscclock::sim {
class FleetTestbed;  // sim/fleet.hpp
}  // namespace tscclock::sim

namespace tscclock::harness {

class TraceRecorder;  // harness/replay.hpp
struct ReplayTrace;   // harness/replay.hpp

/// Rows per generate_batch call in the Testbed drives (ClockSession and
/// MultiEstimatorSession run()): large enough to amortize the per-batch sink
/// flush, small enough to keep the working set (~200 bytes/exchange) inside
/// L2. Lanes and the reducers do not depend on it (a reducer sees values
/// only in order). What does is the fleet drive's shared-sink feed: a sink
/// shared by several lanes sees the fleet's send-time-merged stream cut into
/// kBatchChunk-row chunks, chunk by chunk, then client by client.
inline constexpr std::size_t kBatchChunk = 1024;

/// Which timebase the warm-up discard cut uses.
enum class WarmupPolicy {
  /// Cut on the observable server receive stamp Tb (what a real client can
  /// measure). The sweep's historical convention.
  kObservable,
  /// Cut on ground-truth server arrival time (simulation-only). The figure
  /// benches' historical convention; keeps their fixed-seed outputs stable.
  kGroundTruth,
};

struct SessionConfig {
  core::Params params;
  /// Records earlier than this (by the policy's timebase) are flagged as
  /// warm-up and excluded from `evaluated` (the paper analyses all long
  /// traces post-warm-up).
  Seconds discard_warmup = 0.0;
  WarmupPolicy warmup_policy = WarmupPolicy::kObservable;
  /// Route reply identities through a ServerChangeDetector and forward
  /// changes to the clock. On single-server traces the detector never fires,
  /// so this is a no-op there; disable only to study the unassisted
  /// level-shift path (see bench/ext_server_change.cpp).
  bool track_server_changes = true;
  /// Also emit records for lost, reference-less and warm-up exchanges
  /// (flagged via SampleRecord::lost / ref_available / in_warmup) to
  /// record-shaped sinks; batch sinks never see unevaluated rows. Off by
  /// default: most consumers only score evaluated packets.
  bool emit_unevaluated = false;
  /// Fleet position of the client this session drives; stamped onto every
  /// emitted SampleRecord (and recorded trace sample) so fleet traces and
  /// replays stay per-client. 0 for the single-client drives.
  std::uint32_t client_id = 0;
};

/// What kind of ground truth a stream carries — designed into the scoring
/// step, not bolted onto the trace file format, because it changes what
/// `evaluated` and the error columns MEAN:
///
///   * kReference: a reference clock observed every exchange (the DAG
///     monitor in simulation, a GPS-disciplined capture in the field).
///     ref_available/tg are meaningful, and the reduction fills both the
///     absolute clock error Ca(Tf)−Tg and the tracking error θ̂−θg.
///   * kRelativeOnly: no reference exists (the real-internet case: a
///     collector only sees {Ta,Tb,Te,Tf}). Absolute-error columns are
///     structurally unavailable (n/a downstream, never zeros), and the
///     tracking/stability columns grade the estimate against the server's
///     own clock through the path: θ̂ − θ̂_naive, the per-packet residual of
///     the estimate against the instantaneous symmetric-path measurement.
///     Its spread and ADEV measure how stably the estimator tracks the one
///     clock it can actually see.
enum class GroundTruthMode { kReference, kRelativeOnly };

/// Estimator-independent view of one poll, as observe_row() reads it and a
/// trace recording retains it. Lost polls are kept (flagged) so replay lanes
/// can emit gap-visible traces exactly like online lanes with
/// emit_unevaluated.
struct ReplaySample {
  std::uint64_t index = 0;      ///< poll sequence number
  bool lost = false;            ///< no reply reached the host
  bool ref_available = false;   ///< the reference observed this reply
  bool in_warmup = false;       ///< before the configured discard cut
  bool server_changed = false;  ///< this reply's transport identity changed
  std::uint32_t client_id = 0;  ///< fleet position of the observing client

  // -- Observables (valid when !lost) --------------------------------------
  core::RawExchange raw;             ///< the {Ta, Tb, Te, Tf} quadruple
  TscCount tf_counts_corrected = 0;  ///< side-mode-corrected Tf (§2.4)
  double t_day = 0;                  ///< raw.tb in days (figure x-axes)

  // -- Ground truth ---------------------------------------------------------
  Seconds tg = 0;        ///< DAG stamp (valid when ref_available)
  Seconds truth_ta = 0;  ///< ground-truth wire departure (simulation-only;
                         ///< also filled for lost polls)
  Seconds truth_tb = 0;  ///< ground-truth server arrival (simulation-only)
};

/// What score_exchange() makes of one arrived packet (the errors are valid
/// when ref_available, offset_error alone under kRelativeOnly).
struct Score {
  Seconds reference_offset = 0;  ///< θg = C(Tf) − Tg
  Seconds offset_error = 0;      ///< θ̂(t) − θg (θ̂ − θ̂_naive, relative)
  Seconds naive_error = 0;       ///< θ̂_i (naive) − θg
  Seconds abs_clock_error = 0;   ///< Ca(Tf) − Tg
  bool evaluated = false;        ///< counted: see score_exchange()
};

/// One exchange as scored by a session — a superset of the fields the
/// figure benches (bench::RunPoint) and the sweep reduction historically
/// collected, so every consumer can be fed from the same record stream.
struct SampleRecord : ReplaySample, Score {
  // -- Clock state after this exchange (valid when !lost) ------------------
  bool warmed_up = false;  ///< clock's own warm-up flag (§6.1)
  core::ProcessReport report;
  double period = 0;  ///< p̂ after this packet [s/count]
};

/// Row `row` of `batch` as `config` observes it (warm-up cut, client_id,
/// and the reply's identity fed to `server_changes` when
/// config.track_server_changes) — shared by ClockSession and TraceRecorder
/// so a replay lane's observations can never drift from an online lane's.
ReplaySample observe_row(const SessionConfig& config,
                         core::ServerChangeDetector& server_changes,
                         const sim::ExchangeBatch& batch, std::size_t row);

/// THE scoring step of every lane, online and replay: `report`'s θ̂ and
/// naive offset against `sample`'s reference, through the estimator's
/// `uncorrected` C(Tf) and `absolute` Ca(Tf) (read only for a kReference
/// sample with ref_available). A replay passes no Ca: its absolute clock is
/// C − θ̂ of the very packet scored, so its clock error is −offset_error.
/// Under kRelativeOnly the only error is θ̂ − θ̂_naive and every post-warm-up
/// arrival counts. Precondition: !sample.lost.
Score score_exchange(const ReplaySample& sample,
                     const core::ProcessReport& report, Seconds uncorrected,
                     std::optional<Seconds> absolute, GroundTruthMode mode);

/// Aggregate outcome of a session (counts match the legacy drive loops:
/// `exchanges` includes lost ones, `evaluated` survives warm-up discard).
struct SessionSummary {
  std::size_t exchanges = 0;
  std::size_t lost = 0;
  std::size_t evaluated = 0;
  /// Poll slots enumerated by the Testbed including outage-skipped ones;
  /// filled by run() after the drain (the Testbed owns the slot arithmetic).
  std::uint64_t polls_enumerated = 0;
  core::ClockStatus final_status;
};

/// Struct-of-arrays view of the *evaluated* records of one processed batch:
/// exactly the three series the sweep reductions consume (server receive
/// stamp raw.tb, absolute clock error Ca(Tf)−Tg, offset tracking error
/// θ̂−θg), in emission order. Batch-aware sinks receive these through one
/// on_batch() call per flushed block (at most kBatchChunk rows) instead of
/// one on_sample() virtual call per record, and a session skips building the
/// ~230-byte SampleRecord entirely when only batch-aware sinks are attached.
struct SampleBatch {
  std::vector<double> tb;               ///< server receive stamps [s]
  std::vector<double> abs_clock_error;  ///< Ca(Tf) − Tg
  std::vector<double> offset_error;     ///< θ̂ − θg

  [[nodiscard]] std::size_t size() const { return tb.size(); }
  [[nodiscard]] bool empty() const { return tb.empty(); }
  void clear() {
    tb.clear();
    abs_clock_error.clear();
    offset_error.clear();
  }
  void push(double tb_stamp, double clock_error, double tracking_error) {
    tb.push_back(tb_stamp);
    abs_clock_error.push_back(clock_error);
    offset_error.push_back(tracking_error);
  }
};

/// Receives every record the session emits. Implementations must not assume
/// they are the only sink attached.
class SampleSink {
 public:
  virtual ~SampleSink() = default;
  virtual void on_sample(const SampleRecord& record) = 0;

  /// Opt in to batched delivery: when every sink attached to a session
  /// reports true, the session's SinkChain delivers the evaluated stream as
  /// SampleBatch struct-of-arrays via on_batch() and no SampleRecord is
  /// built. Only sinks that consume nothing beyond
  /// {raw.tb, abs_clock_error, offset_error} of *evaluated* records (the
  /// reducers) should opt in; record-shaped consumers keep the default.
  /// Batch-aware sinks must still implement on_sample identically —
  /// mixed-sink sessions feed them per record.
  [[nodiscard]] virtual bool wants_batch() const { return false; }

  /// Batched delivery; invoked by a SinkChain (ClockSession::process_batch,
  /// ReplaySession::run) only when every attached sink wants_batch().
  /// Default: ignore.
  virtual void on_batch(const SampleBatch& batch) { (void)batch; }
};

/// The sinks of one session, in attachment order. When every sink
/// wants_batch(), the session push()es evaluated rows, handed on at most
/// kBatchChunk at a time; otherwise it deliver()s records.
class SinkChain {
 public:
  void add(SampleSink& sink) { sinks_.push_back(&sink); }

  /// Whether some sink is record-shaped. Asked per batch: a sink's answer
  /// may change as sinks are attached to it (the shared-sink capture).
  [[nodiscard]] bool wants_records() const;
  void deliver(const SampleRecord& record) const;
  void push(Seconds tb, Seconds clock_error, Seconds tracking_error);
  /// Hand the pushed rows to every sink's on_batch(), if there are any.
  void flush();

 private:
  std::vector<SampleSink*> sinks_;
  SampleBatch batch_;  ///< rows pushed since the last flush
};

class ClockSession {
 public:
  /// Default-estimator session: the robust TscNtpClock via TscNtpEstimator.
  /// `nominal_period` is the spec-sheet counter period used as the clock's
  /// initial guess (normally sim::Testbed::nominal_period()).
  ClockSession(const SessionConfig& config, double nominal_period);

  /// Drive an arbitrary estimator through the identical pipeline.
  ClockSession(const SessionConfig& config,
               std::unique_ptr<ClockEstimator> estimator);

  /// Attach a sink (non-owning; must outlive the session's processing).
  /// Sinks are invoked in attachment order, synchronously per record.
  void add_sink(SampleSink& sink);

  /// Process a generator-written SoA batch (sim::Testbed::generate_batch)
  /// through the canonical sequence, one row at a time. When every attached
  /// sink wants_batch() (the sweep/bench reducer case), no SampleRecord is
  /// built and the evaluated {tb, abs_clock_error, offset_error} series
  /// reach the sinks through on_batch() at the end of the batch. Otherwise
  /// each emitted row's record is delivered right after its
  /// process_exchange(), so a CallbackSink reading this lane's clock sees it
  /// as of its own record. When `emitted` is given, one flag per row is
  /// appended to it: 1 when the row reached the sinks (the fleet drive cuts
  /// a lane's output at chunk boundaries by them).
  void process_batch(const sim::ExchangeBatch& batch,
                     std::vector<std::uint8_t>* emitted = nullptr);

  /// Drain the whole testbed — Testbed::generate_batch → process_batch in
  /// kBatchChunk-row chunks — and return the final summary.
  const SessionSummary& run(sim::Testbed& testbed);

  /// Forward to run(); kept for callers written against the old name.
  const SessionSummary& run_batched(sim::Testbed& testbed) {
    return run(testbed);
  }

  /// The summary so far (final_status is refreshed on access).
  const SessionSummary& summary();

  /// Record the testbed's poll-slot count after an external drain (run()
  /// does this itself; MultiEstimatorSession drives process_batch()
  /// directly and back-fills each lane through this).
  void set_polls_enumerated(std::uint64_t polls);

  /// The robust clock behind the default estimator. Precondition: the
  /// session drives a TscNtpEstimator (the default); sessions constructed
  /// around another estimator must use estimator() instead.
  [[nodiscard]] core::TscNtpClock& clock();
  [[nodiscard]] const core::TscNtpClock& clock() const;

  [[nodiscard]] ClockEstimator& estimator() { return *estimator_; }
  [[nodiscard]] const ClockEstimator& estimator() const { return *estimator_; }
  [[nodiscard]] const SessionConfig& config() const { return config_; }

 private:
  SessionConfig config_;
  std::unique_ptr<ClockEstimator> estimator_;
  TscNtpEstimator* robust_ = nullptr;  ///< set when estimator_ is the default
  core::ServerChangeDetector server_changes_;
  SinkChain sinks_;
  SessionSummary summary_;
};

/// Fan exchange streams into lanes keyed by (client, estimator): every lane
/// is a full ClockSession (own estimator, own ServerChangeDetector, own
/// warm-up bookkeeping, own sink chain) fed the exchange sequence of the
/// client its config.client_id names. Over a Testbed every lane scores the
/// one stream; over a FleetTestbed client k's stream is generated once and
/// scored by each of k's lanes. This is the drive layer for every
/// head-to-head comparison — one lane per algorithm (per client), all
/// scored by the same pipeline.
///
/// Cross-lane rule: lanes consume the stream one batch at a time (a chunk
/// over a Testbed, a burst of the client's rows under the fleet drive), a
/// lane draining the whole batch before the client's next lane starts it.
/// A sink sees its own lane's state as of its own record, but a lane of the
/// same client only at batch granularity, and under the fleet drive another
/// client's lanes not at all (they run on other threads). To pair values
/// across lanes, key them by SampleRecord::index and combine them after
/// run().
class MultiEstimatorSession {
 public:
  MultiEstimatorSession();
  ~MultiEstimatorSession();  // out-of-line: TraceRecorder is incomplete here

  /// Add a lane; returns its index. `config.client_id` is the lane's client
  /// (0 for a Testbed). Lanes process each chunk in the order they were
  /// added (they are independent, so order only affects sink callback
  /// interleaving across lanes).
  std::size_t add_lane(const SessionConfig& config,
                       std::unique_ptr<ClockEstimator> estimator);

  /// Record the estimator-independent stream alongside the lanes (one
  /// canonical recording shared by every replay lane — see
  /// harness/replay.hpp). `config` supplies the warm-up cut and the
  /// server-change tracking switch; call before processing starts. A
  /// recording holds one client's stream, so only run(Testbed&) takes it.
  void enable_trace_recording(const SessionConfig& config);

  /// The recorded stream. Precondition: enable_trace_recording was called.
  [[nodiscard]] const ReplayTrace& trace() const;

  /// Attach a sink to one lane (non-owning). It is fed on the thread that
  /// runs the lane, so a sink is attached once: attaching it again, here or
  /// through add_shared_sink, is a ContractViolation.
  void add_sink(std::size_t lane, SampleSink& sink);

  /// Attach one sink to several lanes (fleet-wide reducers, trace dumps).
  /// Under run(FleetTestbed&) it is fed by one task at a time in the serial
  /// drive's order: chunk by chunk, then client by client, then lane by
  /// lane, each lane's records as records and its batch values as batches.
  /// It sees a step's output while the lanes run the next step, so it must
  /// not read lane state. run(Testbed&) refuses a sink shared by several
  /// lanes; with one lane this is add_sink.
  void add_shared_sink(std::span<const std::size_t> lanes, SampleSink& sink);

  [[nodiscard]] std::size_t lane_count() const { return lanes_.size(); }
  [[nodiscard]] ClockSession& lane(std::size_t index);

  /// Drain the whole testbed, kBatchChunk rows at a time: the shared
  /// recorder observes each chunk once, then every lane consumes it through
  /// ClockSession::process_batch. The recording is sized to the testbed's
  /// remaining poll slots before the first chunk. Back-fills each lane's
  /// poll-slot count.
  void run(sim::Testbed& testbed);

  /// Drain the fleet and back-fill each lane's poll-slot count from its
  /// client. Every lane and every sink ends as under the serial merge drive
  /// (the fleet stream merged by send time, ties to the lower client, cut
  /// into kBatchChunk-row chunks, each chunk's per-client segment fed to the
  /// client's lanes in lane order), bit for bit.
  ///
  /// The drive runs in parallel steps of 4 × kBatchChunk × poll_period /
  /// client_count seconds, about 4 × kBatchChunk / client_count polls per
  /// client. In a step, client k's task generates its rows below the step's
  /// horizon at most max(1, kBatchChunk / client_count) at a time and runs
  /// each of its lanes over each burst, so sinks attached to one lane are
  /// fed there. For the shared sinks it keeps only each lane's output, one
  /// emitted flag per row and lane, and each row's send time. One more task
  /// merges the previous step's send times into chunks and feeds the shared
  /// sinks that step's output in the serial drive's order; the open chunk's
  /// output carries into the next step's feed. The tasks run on `pool` when
  /// one is given, else on the calling thread; the results are identical
  /// either way.
  ///
  /// What a step holds does not grow with the duration or the thread count:
  /// the raw rows in flight (about kBatchChunk over all clients, ~120 B
  /// each), and twice over (the page the lanes fill and the one being fed)
  /// each row's send time (8 B), plus per lane with shared sinks one flag
  /// (1 B) and its output (24 B per evaluated row for batch sinks, one
  /// SampleRecord per emitted row for record sinks), plus the open chunk's
  /// output and about 1 KiB of buffer headers per client. At n = 16 a step
  /// is about 4,100 rows: ~120 KiB of raw rows, ~64 KiB of send times and
  /// ~200 KiB of batch output per estimator. At n = 1024 it is at most
  /// about 5,100 rows (four or five per client): ~120 KiB, ~80 KiB and
  /// ~250 KiB, beside ~1 MiB of per-client headers.
  ///
  /// Failure rule: the drive stops at the first step in which a task
  /// throws. In that step the feed of the previous step's output wins, then
  /// the lowest client, so an earlier step's failure beats a later one's
  /// and the exception a FAILED row reports does not depend on the thread
  /// count. Refuses a trace recording and a lane whose client the fleet
  /// lacks.
  void run(sim::FleetTestbed& fleet, ThreadPool* pool = nullptr);

  /// Forward to run(); kept for callers written against the old name.
  void run_batched(sim::Testbed& testbed) { run(testbed); }

 private:
  class SharedCapture;  // lane-side stand-in for its shared sinks

  /// Record `sink` as attached, refusing one attached before: a sink on
  /// two lanes could be fed from two threads at once.
  void claim(const SampleSink& sink);

  std::vector<std::unique_ptr<ClockSession>> lanes_;
  /// Per lane: its shared sinks' capture, or null when it has none.
  std::vector<std::unique_ptr<SharedCapture>> captures_;
  std::vector<const SampleSink*> attached_;
  std::unique_ptr<TraceRecorder> recorder_;
};

}  // namespace tscclock::harness
