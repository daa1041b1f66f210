#include "baseline/clock_filter.hpp"

namespace tscclock::baseline {

std::optional<FilterSample> ClockFilter::add(const FilterSample& sample) {
  register_.push(sample);
  std::size_t best = 0;
  for (std::size_t k = 1; k < register_.size(); ++k)
    if (register_.at<0>(k).delay < register_.at<0>(best).delay) best = k;
  const FilterSample& selected = register_.at<0>(best);
  if (selected.epoch <= last_used_epoch_) return std::nullopt;
  last_used_epoch_ = selected.epoch;
  return selected;
}

}  // namespace tscclock::baseline
