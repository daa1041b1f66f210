#include "sim/scenario.hpp"

#include "common/contracts.hpp"
#include "wire/ntp_packet.hpp"

namespace tscclock::sim {

namespace {

/// NTP-era seconds of the simulation origin (mid-2004, matching the paper's
/// measurement campaign; comfortably inside era 0).
constexpr std::uint32_t kSimEpochEraSeconds = 3'297'000'000u;

/// The hot-path form of the wire truncation: algebraically identical to the
/// packet round trip (see wire::quantize_timestamp_at_epoch).
Seconds quantize_stamp(Seconds stamp) {
  return wire::quantize_timestamp_at_epoch(stamp, kSimEpochEraSeconds);
}

/// check_wire diagnostic: replay the stamps through the real 48-byte packet
/// encode→decode round trip exactly as the hot path did before the algebraic
/// quantization, and assert both paths agree bit for bit.
void check_wire_equivalence(Seconds poll_time, Seconds tb_raw, Seconds te_raw,
                            Seconds tb_quantized, Seconds te_quantized,
                            std::uint8_t stratum, ServerKind kind) {
  using namespace tscclock::wire;
  const auto request = make_client_request(
      to_ntp_timestamp_at_epoch(poll_time, kSimEpochEraSeconds),
      /*poll_log2=*/4);
  const auto request_rx = decode(encode(request));
  const auto reply_pkt = make_server_reply(
      request_rx, to_ntp_timestamp_at_epoch(tb_raw, kSimEpochEraSeconds),
      to_ntp_timestamp_at_epoch(te_raw, kSimEpochEraSeconds), stratum,
      reference_id_from_string(kind == ServerKind::kExt ? "ATOM" : "GPS"));
  const auto reply_rx = decode(encode(reply_pkt));
  TSC_ENSURES(from_ntp_timestamp_at_epoch(reply_rx.receive_time,
                                          kSimEpochEraSeconds) == tb_quantized);
  TSC_ENSURES(from_ntp_timestamp_at_epoch(reply_rx.transmit_time,
                                          kSimEpochEraSeconds) == te_quantized);
}

OscillatorConfig oscillator_for(Environment environment, std::uint64_t seed) {
  switch (environment) {
    case Environment::kLaboratory:
      return OscillatorConfig::laboratory(seed);
    case Environment::kMachineRoom:
      return OscillatorConfig::machine_room(seed);
  }
  TSC_EXPECTS(false);
  return {};
}

}  // namespace

std::string to_string(ServerKind kind) {
  switch (kind) {
    case ServerKind::kLoc:
      return "ServerLoc";
    case ServerKind::kInt:
      return "ServerInt";
    case ServerKind::kExt:
      return "ServerExt";
  }
  return "?";
}

std::string to_string(Environment environment) {
  switch (environment) {
    case Environment::kLaboratory:
      return "laboratory";
    case Environment::kMachineRoom:
      return "machine-room";
  }
  return "?";
}

PathConfig ScenarioConfig::path_preset(ServerKind kind) {
  // Minimum RTT and asymmetry Δ per Table 2; d↑ minimum is 35 µs (server
  // preset), so d→ + d← = RTT − 35 µs split with d→ − d← = Δ.
  PathConfig p;
  switch (kind) {
    case ServerKind::kLoc: {
      // 3 m, 2 hops, RTT 0.38 ms, Δ 50 µs: a quiet local segment.
      p.forward.min_delay = 197.5e-6;
      p.backward.min_delay = 147.5e-6;
      p.forward.jitter_mean = 18e-6;
      p.backward.jitter_mean = 15e-6;
      p.forward.spike_prob = 0.010;
      p.backward.spike_prob = 0.006;
      p.forward.spike_mean = 0.35e-3;
      p.backward.spike_mean = 0.3e-3;
      p.forward.congestion_mean_interval = 12 * duration::kHour;
      p.backward.congestion_mean_interval = 12 * duration::kHour;
      p.forward.congestion_mean_duration = 5 * duration::kMinute;
      p.backward.congestion_mean_duration = 5 * duration::kMinute;
      p.forward.congestion_spike_mean = 2e-3;
      p.backward.congestion_spike_mean = 2e-3;
      p.loss_prob = 0.0008;
      break;
    }
    case ServerKind::kInt: {
      // 300 m, 5 hops, RTT 0.89 ms, Δ 50 µs; the forward path is the more
      // heavily utilised one (paper §4.2, Fig. 6's negative bias).
      p.forward.min_delay = 452.5e-6;
      p.backward.min_delay = 402.5e-6;
      p.forward.jitter_mean = 45e-6;
      p.backward.jitter_mean = 35e-6;
      p.forward.spike_prob = 0.040;
      p.backward.spike_prob = 0.018;
      p.forward.spike_mean = 1.0e-3;
      p.backward.spike_mean = 0.8e-3;
      p.forward.congestion_mean_interval = 6 * duration::kHour;
      p.backward.congestion_mean_interval = 8 * duration::kHour;
      p.forward.congestion_mean_duration = 8 * duration::kMinute;
      p.backward.congestion_mean_duration = 8 * duration::kMinute;
      p.forward.congestion_spike_mean = 4e-3;
      p.backward.congestion_spike_mean = 3e-3;
      p.loss_prob = 0.0015;
      break;
    }
    case ServerKind::kExt: {
      // 1000 km, ~10 hops, RTT 14.2 ms, Δ 500 µs; many hops make quality
      // packets much rarer (paper §5.3).
      p.forward.min_delay = 7332.5e-6;
      p.backward.min_delay = 6832.5e-6;
      p.forward.jitter_mean = 320e-6;
      p.backward.jitter_mean = 260e-6;
      p.forward.spike_prob = 0.16;
      p.backward.spike_prob = 0.11;
      p.forward.spike_mean = 1.8e-3;
      p.backward.spike_mean = 1.5e-3;
      p.forward.pareto_shape = 2.2;
      p.backward.pareto_shape = 2.2;
      p.forward.congestion_mean_interval = 3 * duration::kHour;
      p.backward.congestion_mean_interval = 4 * duration::kHour;
      p.forward.congestion_mean_duration = 12 * duration::kMinute;
      p.backward.congestion_mean_duration = 12 * duration::kMinute;
      p.forward.congestion_spike_mean = 8e-3;
      p.backward.congestion_spike_mean = 6e-3;
      p.loss_prob = 0.003;
      break;
    }
  }
  return p;
}

ServerConfig ScenarioConfig::server_preset(ServerKind kind) {
  ServerConfig s;  // the µs-scale PC server of §3.2 / Fig. 4
  switch (kind) {
    case ServerKind::kLoc:
    case ServerKind::kInt:
      break;  // defaults: GPS reference, 35 µs minimum processing
    case ServerKind::kExt:
      // Atomic-clock reference; busier public server.
      s.processing_jitter_mean = 30e-6;
      s.sched_spike_prob = 2.5e-3;
      break;
  }
  return s;
}

void ExchangeBatch::clear() {
  index.clear();
  lost.clear();
  ta_counts.clear();
  tf_counts.clear();
  tb_stamp.clear();
  te_stamp.clear();
  tf_counts_corrected.clear();
  server_id.clear();
  server_stratum.clear();
  ref_available.clear();
  tg.clear();
  truth_ta.clear();
  truth_tb.clear();
  truth_te.clear();
  truth_tf.clear();
  d_forward.clear();
  d_server.clear();
  d_backward.clear();
}

void ExchangeBatch::resize(std::size_t rows) {
  index.resize(rows);
  lost.resize(rows);
  ta_counts.resize(rows);
  tf_counts.resize(rows);
  tb_stamp.resize(rows);
  te_stamp.resize(rows);
  tf_counts_corrected.resize(rows);
  server_id.resize(rows);
  server_stratum.resize(rows);
  ref_available.resize(rows);
  tg.resize(rows);
  truth_ta.resize(rows);
  truth_tb.resize(rows);
  truth_te.resize(rows);
  truth_tf.resize(rows);
  d_forward.resize(rows);
  d_server.resize(rows);
  d_backward.resize(rows);
}

void ExchangeBatch::reserve(std::size_t rows) {
  index.reserve(rows);
  lost.reserve(rows);
  ta_counts.reserve(rows);
  tf_counts.reserve(rows);
  tb_stamp.reserve(rows);
  te_stamp.reserve(rows);
  tf_counts_corrected.reserve(rows);
  server_id.reserve(rows);
  server_stratum.reserve(rows);
  ref_available.reserve(rows);
  tg.reserve(rows);
  truth_ta.reserve(rows);
  truth_tb.reserve(rows);
  truth_te.reserve(rows);
  truth_tf.reserve(rows);
  d_forward.reserve(rows);
  d_server.reserve(rows);
  d_backward.reserve(rows);
}

void ExchangeBatch::materialize(std::size_t i, Exchange& out) const {
  TSC_EXPECTS(i < size());
  out.index = index[i];
  out.lost = lost[i] != 0;
  out.ta_counts = ta_counts[i];
  out.tf_counts = tf_counts[i];
  out.tb_stamp = tb_stamp[i];
  out.te_stamp = te_stamp[i];
  out.tf_counts_corrected = tf_counts_corrected[i];
  out.server_id = server_id[i];
  out.server_stratum = server_stratum[i];
  out.ref_available = ref_available[i] != 0;
  out.tg = tg[i];
  out.truth.ta = truth_ta[i];
  out.truth.tb = truth_tb[i];
  out.truth.te = truth_te[i];
  out.truth.tf = truth_tf[i];
  out.truth.d_forward = d_forward[i];
  out.truth.d_server = d_server[i];
  out.truth.d_backward = d_backward[i];
}

void ExchangeBatch::store(std::size_t i, const Exchange& in) {
  TSC_EXPECTS(i < size());
  index[i] = in.index;
  lost[i] = in.lost ? 1 : 0;
  ta_counts[i] = in.ta_counts;
  tf_counts[i] = in.tf_counts;
  tb_stamp[i] = in.tb_stamp;
  te_stamp[i] = in.te_stamp;
  tf_counts_corrected[i] = in.tf_counts_corrected;
  server_id[i] = in.server_id;
  server_stratum[i] = in.server_stratum;
  ref_available[i] = in.ref_available ? 1 : 0;
  tg[i] = in.tg;
  truth_ta[i] = in.truth.ta;
  truth_tb[i] = in.truth.tb;
  truth_te[i] = in.truth.te;
  truth_tf[i] = in.truth.tf;
  d_forward[i] = in.truth.d_forward;
  d_server[i] = in.truth.d_server;
  d_backward[i] = in.truth.d_backward;
}

void ExchangeBatch::push_row(const ExchangeBatch& src, std::size_t i) {
  TSC_EXPECTS(i < src.size());
  index.push_back(src.index[i]);
  lost.push_back(src.lost[i]);
  ta_counts.push_back(src.ta_counts[i]);
  tf_counts.push_back(src.tf_counts[i]);
  tb_stamp.push_back(src.tb_stamp[i]);
  te_stamp.push_back(src.te_stamp[i]);
  tf_counts_corrected.push_back(src.tf_counts_corrected[i]);
  server_id.push_back(src.server_id[i]);
  server_stratum.push_back(src.server_stratum[i]);
  ref_available.push_back(src.ref_available[i]);
  tg.push_back(src.tg[i]);
  truth_ta.push_back(src.truth_ta[i]);
  truth_tb.push_back(src.truth_tb[i]);
  truth_te.push_back(src.truth_te[i]);
  truth_tf.push_back(src.truth_tf[i]);
  d_forward.push_back(src.d_forward[i]);
  d_server.push_back(src.d_server[i]);
  d_backward.push_back(src.d_backward[i]);
}

ClientNode::ClientNode(const ScenarioConfig& config, std::uint32_t client_id,
                       std::optional<BridgeLink> bridge)
    : config_(config),
      rng_(config.seed),
      oscillator_(config.oscillator_override
                      ? *config.oscillator_override
                      : oscillator_for(config.environment,
                                       rng_.fork(10).engine()())),
      host_(config.timestamping_override ? *config.timestamping_override
                                         : TimestampingConfig{},
            rng_.fork(11)),
      dag_(DagConfig{}, rng_.fork(14)),
      client_id_(client_id),
      bridge_(bridge) {
  TSC_EXPECTS(config.poll_period > 0.0);
  TSC_EXPECTS(config.poll_jitter >= 0.0);
  TSC_EXPECTS(config.poll_jitter < config.poll_period / 2);
  TSC_EXPECTS(config.duration > 0.0);

  // Base attachment (active from t = 0), then one per configured switch.
  attachments_.push_back(Attachment{
      0.0, config.server, 1,
      PathModel(config.path_override
                    ? *config.path_override
                    : ScenarioConfig::path_preset(config.server),
                &config_.events, rng_.fork(12)),
      NtpServer(config.server_override
                    ? *config.server_override
                    : ScenarioConfig::server_preset(config.server),
                &config_.events, rng_.fork(13))});
  Seconds previous_switch = 0.0;
  for (std::size_t k = 0; k < config.server_switches.size(); ++k) {
    const auto& sw = config.server_switches[k];
    TSC_EXPECTS(sw.time > previous_switch);
    previous_switch = sw.time;
    attachments_.push_back(Attachment{
        sw.time, sw.kind, static_cast<std::uint32_t>(k + 2),
        PathModel(ScenarioConfig::path_preset(sw.kind), &config_.events,
                  rng_.fork(100 + k)),
        NtpServer(ScenarioConfig::server_preset(sw.kind), &config_.events,
                  rng_.fork(200 + k))});
  }
  outage_cursor_ = EventCursor(&config_.events);
}

ClientNode::Attachment& ClientNode::active_attachment(Seconds t) {
  // Switch times are strictly increasing and poll times are monotone, so the
  // active attachment is a forward-stepping cursor; a query earlier than the
  // current attachment's start (never the generation loop's case) rescans
  // from the base attachment.
  if (t < attachments_[attachment_index_].start_time) attachment_index_ = 0;
  while (attachment_index_ + 1 < attachments_.size() &&
         t >= attachments_[attachment_index_ + 1].start_time)
    ++attachment_index_;
  return attachments_[attachment_index_];
}

std::optional<Exchange> ClientNode::next() {
  Exchange ex;
  if (!next_into(ex)) return std::nullopt;
  return ex;
}

bool ClientNode::next_into(Exchange& out) {
  while (true) {
    const Seconds base = static_cast<double>(poll_index_) * config_.poll_period;
    if (base >= config_.duration) return false;
    const Seconds poll_time =
        base + rng_.uniform(-config_.poll_jitter, config_.poll_jitter) +
        config_.poll_jitter;  // keep strictly increasing reads
    const std::uint64_t index = poll_index_++;
    if (outage_cursor_.in_outage(poll_time)) continue;  // gap: no exchange

    out = Exchange{};
    Exchange& ex = out;
    ex.index = index;
    auto& attachment = active_attachment(poll_time);
    ex.server_id = attachment.id;
    ex.server_stratum = attachment.server.config().stratum;

    // Host: TSC stamp just before send, then the packet hits the wire.
    ex.ta_counts = oscillator_.read(poll_time);
    const Seconds send_lead = host_.draw_send_lead();
    ex.truth.ta = poll_time + send_lead;

    // Forward path.
    const auto fwd = attachment.path.forward(ex.truth.ta);
    ex.truth.d_forward = fwd.delay;
    ex.truth.tb = ex.truth.ta + fwd.delay;
    if (fwd.lost) {
      ex.lost = true;
      return true;
    }

    // A hierarchy slave polling a bridge that has not warmed up against its
    // own upstream yet gets no answer: the request is simply dropped.
    if (bridge_ && ex.truth.tb < bridge_->start) {
      ex.lost = true;
      return true;
    }

    // Server: stamps Tb, processes, stamps Te, replies.
    const auto reply = attachment.server.handle(ex.truth.tb);
    ex.truth.te = reply.te_true;
    ex.truth.d_server = reply.te_true - ex.truth.tb;

    Seconds tb_stamp = reply.tb_stamp;
    Seconds te_stamp = reply.te_stamp;
    if (bridge_) {
      // The bridge stamps with the clock it serves, not true time: its own
      // residual synchronization error rides on both stamps.
      tb_stamp += bridge_->error_at(ex.truth.tb);
      te_stamp += bridge_->error_at(ex.truth.te);
    }
    const Seconds tb_raw = tb_stamp;
    const Seconds te_raw = te_stamp;

    if (config_.use_wire_format) {
      // Wire truncation of the server stamps, composed algebraically (same
      // function as the former packet encode→decode round trip; see
      // check_wire_equivalence for the end-to-end assert).
      tb_stamp = quantize_stamp(tb_stamp);
      te_stamp = quantize_stamp(te_stamp);
      if (config_.check_wire)
        check_wire_equivalence(poll_time, tb_raw, te_raw, tb_stamp, te_stamp,
                               attachment.server.config().stratum,
                               attachment.kind);
    }
    ex.tb_stamp = tb_stamp;
    ex.te_stamp = te_stamp;

    // Backward path.
    const auto bwd = attachment.path.backward(ex.truth.te);
    ex.truth.d_backward = bwd.delay;
    ex.truth.tf = ex.truth.te + bwd.delay;
    if (bwd.lost) {
      ex.lost = true;
      return true;
    }

    // Host receive stamp (after interrupt latency) and DAG reference.
    const auto recv_lag = host_.draw_recv_lag_detailed();
    const auto dag_stamp = dag_.observe(ex.truth.tf);
    ex.tf_counts_corrected = oscillator_.read(ex.truth.tf + recv_lag.base);
    ex.tf_counts = oscillator_.read(ex.truth.tf + recv_lag.total);
    ex.ref_available = dag_stamp.available;
    ex.tg = dag_stamp.corrected;
    return true;
  }
}

std::size_t ClientNode::generate_batch(ExchangeBatch& out,
                                       std::size_t max_rows) {
  // Size the columns up front and write rows by index through raw pointers —
  // every column is written exactly once per row, so any stale tail from a
  // reused batch is fully overwritten and then trimmed away.
  out.resize(max_rows);
  std::size_t rows = 0;
  // Per-batch invariants hoisted out of the row loop; the draw sequence and
  // arithmetic below MUST stay in lockstep with next_into() — the batch-lane
  // goldens pin the two streams row-for-row bit-identical.
  const Seconds poll_period = config_.poll_period;
  const Seconds poll_jitter = config_.poll_jitter;
  const Seconds duration = config_.duration;
  const bool wire = config_.use_wire_format;
  const bool check_wire = config_.check_wire;

  while (rows < max_rows) {
    const Seconds base = static_cast<double>(poll_index_) * poll_period;
    if (base >= duration) break;
    const Seconds poll_time =
        base + rng_.uniform(-poll_jitter, poll_jitter) + poll_jitter;
    const std::uint64_t index = poll_index_++;
    if (outage_cursor_.in_outage(poll_time)) continue;  // gap: no exchange

    auto& attachment = active_attachment(poll_time);

    // Row scratch: zero-initialized like a fresh Exchange, written in the
    // scalar path's order, pushed to every column exactly once per row.
    bool lost = false;
    TscCount tf_counts = 0;
    TscCount tf_counts_corrected = 0;
    Seconds tb_stamp = 0;
    Seconds te_stamp = 0;
    bool ref_available = false;
    Seconds tg = 0;
    Seconds truth_te = 0;
    Seconds truth_tf = 0;
    Seconds d_server = 0;
    Seconds d_backward = 0;

    const TscCount ta_counts = oscillator_.read(poll_time);
    const Seconds send_lead = host_.draw_send_lead();
    const Seconds truth_ta = poll_time + send_lead;

    const auto fwd = attachment.path.forward(truth_ta);
    const Seconds d_forward = fwd.delay;
    const Seconds truth_tb = truth_ta + fwd.delay;

    if (fwd.lost || (bridge_ && truth_tb < bridge_->start)) {
      lost = true;
    } else {
      const auto reply = attachment.server.handle(truth_tb);
      truth_te = reply.te_true;
      d_server = reply.te_true - truth_tb;
      tb_stamp = reply.tb_stamp;
      te_stamp = reply.te_stamp;
      if (bridge_) {
        tb_stamp += bridge_->error_at(truth_tb);
        te_stamp += bridge_->error_at(truth_te);
      }
      const Seconds tb_raw = tb_stamp;
      const Seconds te_raw = te_stamp;
      if (wire) {
        tb_stamp = quantize_stamp(tb_stamp);
        te_stamp = quantize_stamp(te_stamp);
        if (check_wire)
          check_wire_equivalence(poll_time, tb_raw, te_raw, tb_stamp, te_stamp,
                                 attachment.server.config().stratum,
                                 attachment.kind);
      }

      const auto bwd = attachment.path.backward(truth_te);
      d_backward = bwd.delay;
      truth_tf = truth_te + bwd.delay;
      if (bwd.lost) {
        lost = true;
      } else {
        const auto recv_lag = host_.draw_recv_lag_detailed();
        const auto dag_stamp = dag_.observe(truth_tf);
        tf_counts_corrected = oscillator_.read(truth_tf + recv_lag.base);
        tf_counts = oscillator_.read(truth_tf + recv_lag.total);
        ref_available = dag_stamp.available;
        tg = dag_stamp.corrected;
      }
    }

    out.index[rows] = index;
    out.lost[rows] = lost ? 1 : 0;
    out.ta_counts[rows] = ta_counts;
    out.tf_counts[rows] = tf_counts;
    out.tb_stamp[rows] = tb_stamp;
    out.te_stamp[rows] = te_stamp;
    out.tf_counts_corrected[rows] = tf_counts_corrected;
    out.server_id[rows] = attachment.id;
    out.server_stratum[rows] = attachment.server.config().stratum;
    out.ref_available[rows] = ref_available ? 1 : 0;
    out.tg[rows] = tg;
    out.truth_ta[rows] = truth_ta;
    out.truth_tb[rows] = truth_tb;
    out.truth_te[rows] = truth_te;
    out.truth_tf[rows] = truth_tf;
    out.d_forward[rows] = d_forward;
    out.d_server[rows] = d_server;
    out.d_backward[rows] = d_backward;
    ++rows;
  }
  out.resize(rows);
  return rows;
}

}  // namespace tscclock::sim
