#include "core/window.hpp"

#include <algorithm>

#include "common/contracts.hpp"

namespace tscclock::core {

TopWindow::TopWindow(const Params& params)
    : window_packets_(params.packets(params.top_window)) {
  params.validate();
  open_zone(window_packets_);
}

void TopWindow::open_zone(std::size_t span) {
  const std::size_t dropped = span / 2;
  zone_first_ = dropped + 1;
  zone_last_ = dropped + std::max<std::size_t>(1, (span - dropped) / 4);
}

void TopWindow::fold(const PacketRecord& packet) {
  if (stored_ < zone_first_ || stored_ > zone_last_) return;
  if (stored_ == zone_first_) {
    zone_first_seq_ = packet.seq;
    zone_best_ = packet;
  } else if (packet.rtt < zone_best_.rtt) {
    zone_best_ = packet;
  }
}

TopWindow::Update TopWindow::add(const PacketRecord& packet,
                                 std::uint64_t min_valid_seq) {
  Update update;
  ++stored_;
  fold(packet);
  // Maintain the suffix-minimum deque: pop dominated entries (later packet,
  // <= rtt supersedes them for every suffix), append the new packet.
  while (!suffix_min_.empty() && suffix_min_.back().rtt >= packet.rtt)
    suffix_min_.pop_back();
  suffix_min_.push_back({packet.seq, packet.rtt});
  if (stored_ < window_packets_) return update;

  // Window full: discard the oldest half, recompute over the retained half.
  // The zone was placed for exactly this fill level.
  TSC_ENSURES(zone_first_ == stored_ / 2 + 1);
  stored_ -= stored_ / 2;
  ++updates_;
  update.triggered = true;
  update.oldest_seq = zone_first_seq_;
  while (suffix_min_.front().seq < update.oldest_seq) suffix_min_.pop_front();

  // New r̂: minimum over retained packets beyond the last shift point; if
  // none qualify (shift point very recent), fall back to all retained. Both
  // minima are answered by the suffix-min deque instead of rescanning the
  // retained half: the restricted minimum is the first entry with
  // seq >= min_valid_seq, the all-retained fallback is the front entry. A
  // minimum VALUE is tie-insensitive, so this is bit-identical to the former
  // strict-less scans.
  const auto it = std::lower_bound(
      suffix_min_.begin(), suffix_min_.end(), min_valid_seq,
      [](const SuffixMin& e, std::uint64_t s) { return e.seq < s; });
  TSC_ENSURES(!suffix_min_.empty());  // the just-added packet is retained
  update.new_rhat =
      it != suffix_min_.end() ? it->rtt : suffix_min_.front().rtt;

  // Anchor replacement candidate: the best-quality packet among the oldest
  // quarter of the retained window (early packets preserve a long Δ(t)).
  update.anchor_candidate = zone_best_;
  update.anchor_error_counts =
      std::max<TscDelta>(0, zone_best_.rtt - update.new_rhat);

  // The next update fires at max(N, R+1) packets (R+1 only when N == 1).
  // Its zone starts at or after the last retained position, which is this
  // packet's: when N is odd, this packet seeds the next zone.
  open_zone(std::max(window_packets_, stored_ + 1));
  fold(packet);
  return update;
}

}  // namespace tscclock::core
