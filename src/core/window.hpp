// Top-level sliding window (paper §6.1 "Windowing").
//
// Conditions change over arbitrarily long horizons (aging, environment,
// route changes), so the past must eventually be forgotten and per-packet
// history bounded. A window of width T (default one week) is maintained;
// each time it fills, the oldest half is discarded and:
//
//   * r̂ is recomputed over the retained half — restricted to packets after
//     the last detected upward shift point, if any;
//   * if the rate anchor packet j was discarded, a replacement of similar
//     or better quality is nominated from the retained data.
//
// What the window keeps: no per-packet records. An update that fires at S
// packets reads only two things from the retained half besides minima:
// the seq of its first packet (position ⌊S/2⌋+1) and the best packet of its
// oldest quarter (positions ⌊S/2⌋+1 … ⌊S/2⌋+max(1, ⌊R/4⌋), R = S − ⌊S/2⌋).
// S is known before those packets arrive — N = packets(T) for the first
// update, max(N, R+1) afterwards — so that "candidate zone" is folded into
// one record as the packets stream in. The r̂ minima come from a
// suffix-minimum deque. Updates are identical to rescanning a stored week
// of records, at O(1) memory apart from that deque.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>

#include "common/time_types.hpp"
#include "core/params.hpp"
#include "core/records.hpp"

namespace tscclock::core {

class TopWindow {
 public:
  explicit TopWindow(const Params& params);

  struct Update {
    bool triggered = false;
    TscDelta new_rhat = 0;
    std::uint64_t oldest_seq = 0;  ///< first seq still inside the window
    std::optional<PacketRecord> anchor_candidate;
    TscDelta anchor_error_counts = 0;  ///< vs new_rhat
  };

  /// Record a packet; triggers a window update when the window reaches T.
  /// `min_valid_seq` restricts the minimum recomputation to packets at or
  /// after the last upward shift point.
  Update add(const PacketRecord& packet, std::uint64_t min_valid_seq);

  /// Packets logically inside the window (retained plus arrived since).
  [[nodiscard]] std::size_t stored() const { return stored_; }
  [[nodiscard]] std::uint64_t updates() const { return updates_; }

 private:
  /// Suffix-minimum structure maintained incrementally: entries are kept
  /// with strictly increasing seq AND strictly increasing rtt, so for any
  /// bound s the minimum rtt over retained packets with seq >= s is the
  /// first entry with seq >= s. O(1) amortized per add; window updates stop
  /// rescanning the retained half for its minima.
  struct SuffixMin {
    std::uint64_t seq = 0;
    TscDelta rtt = 0;
  };

  /// Place the candidate zone for an update that will fire at `span`
  /// packets.
  void open_zone(std::size_t span);
  /// Fold the packet at window position stored_ into the zone, if inside.
  void fold(const PacketRecord& packet);

  std::size_t window_packets_;  ///< N = packets(T)
  std::size_t stored_ = 0;
  std::size_t zone_first_ = 0;  ///< 1-based window positions, inclusive
  std::size_t zone_last_ = 0;
  std::uint64_t zone_first_seq_ = 0;
  PacketRecord zone_best_;  ///< first strict-minimum-rtt packet in the zone
  std::deque<SuffixMin> suffix_min_;
  std::uint64_t updates_ = 0;
};

}  // namespace tscclock::core
