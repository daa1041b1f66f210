// Bounded FIFO of rows stored as columns: the sliding packet windows the
// estimators keep (the §5.2 local-rate window, the §5.3 offset window τ'
// and the SW-NTP clock-filter register). Each column is one std::vector
// over the same physical slots, a power of two grown on demand up to
// bit_ceil(capacity), so a row is one index mask away and the windows
// slide for the whole run without allocating.
//
// Rows are read by logical index (0 is the oldest). The live rows of a
// column are also at most two contiguous runs, [head, slots) and
// [0, …): run<C>(first) returns the one starting at row `first`, which is
// what the vectorized window pass (core/offset_window.hpp) reads.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <span>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/contracts.hpp"

namespace tscclock {

template <typename... Columns>
class ColumnRing {
  static_assert(sizeof...(Columns) > 0);
  static_assert((std::is_trivially_copyable_v<Columns> && ...),
                "a vacated slot holds no resources to release");

 public:
  template <std::size_t C>
  using Column = std::tuple_element_t<C, std::tuple<Columns...>>;

  explicit ColumnRing(std::size_t capacity) : capacity_(capacity) {
    TSC_EXPECTS(capacity >= 1);
  }

  /// Append one row; evicts the oldest when the ring is at capacity.
  void push(const Columns&... row) {
    if (size_ == capacity_) {
      head_ = wrap(head_ + 1);
      --size_;
    } else if (size_ == slots_) {
      grow();
    }
    const std::size_t slot = wrap(head_ + size_);
    ++size_;
    std::apply([&](auto&... column) { ((column[slot] = row), ...); },
               columns_);
  }

  /// Drop every row (the physical slots are kept).
  void clear() {
    head_ = 0;
    size_ = 0;
  }

  /// Column C of row i (0 is the oldest).
  template <std::size_t C>
  [[nodiscard]] const Column<C>& at(std::size_t i) const {
    TSC_EXPECTS(i < size_);
    return std::get<C>(columns_)[wrap(head_ + i)];
  }
  template <std::size_t C>
  [[nodiscard]] Column<C>& at(std::size_t i) {
    TSC_EXPECTS(i < size_);
    return std::get<C>(columns_)[wrap(head_ + i)];
  }

  /// Column C of the rows from `first` up to the end of the ring or of the
  /// physical slots, whichever comes first. Two calls cover every row.
  template <std::size_t C>
  [[nodiscard]] std::span<const Column<C>> run(std::size_t first) const {
    TSC_EXPECTS(first < size_);
    const std::size_t slot = wrap(head_ + first);
    return std::span(std::get<C>(columns_))
        .subspan(slot, std::min(size_ - first, slots_ - slot));
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

 private:
  [[nodiscard]] std::size_t wrap(std::size_t slot) const {
    return slot & (slots_ - 1);
  }

  /// Double the physical slots (at most to bit_ceil(capacity)), moving the
  /// live rows to the front in order.
  void grow() {
    const std::size_t slots =
        std::min(std::bit_ceil(capacity_), slots_ == 0 ? 8 : 2 * slots_);
    std::apply(
        [&](auto&... column) {
          (
              [&](auto& old) {
                std::remove_reference_t<decltype(old)> grown(slots);
                for (std::size_t k = 0; k < size_; ++k)
                  grown[k] = old[wrap(head_ + k)];
                old = std::move(grown);
              }(column),
              ...);
        },
        columns_);
    slots_ = slots;
    head_ = 0;
  }

  std::size_t capacity_;  ///< logical bound in rows, >= 1
  std::size_t slots_ = 0; ///< physical slots of every column, a power of two
  std::size_t head_ = 0;  ///< physical slot of the oldest row
  std::size_t size_ = 0;
  std::tuple<std::vector<Columns>...> columns_;
};

}  // namespace tscclock
