// ntpd-style clock filter (RFC 5905 §10): an 8-stage shift register of
// (offset, delay) samples from which the sample with the *lowest delay* is
// selected — the classic NTP noise rejection that the paper's RTT-filtering
// generalizes. Part of the SW-NTP baseline used for comparison experiments.
#pragma once

#include <cstddef>
#include <optional>

#include "common/column_ring.hpp"
#include "common/time_types.hpp"

namespace tscclock::baseline {

struct FilterSample {
  Seconds offset = 0;
  Seconds delay = 0;
  Seconds epoch = 0;  ///< client time when the sample was made
};

class ClockFilter {
 public:
  static constexpr std::size_t kStages = 8;

  ClockFilter() : register_(kStages) {}

  /// Insert a new sample and return the minimum-delay sample of the
  /// register *if it is fresher than the last one handed out* (RFC 5905
  /// only uses a filtered sample once).
  std::optional<FilterSample> add(const FilterSample& sample);

  [[nodiscard]] std::size_t size() const { return register_.size(); }

 private:
  ColumnRing<FilterSample> register_;
  Seconds last_used_epoch_ = -1;
};

}  // namespace tscclock::baseline
