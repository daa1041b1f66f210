// Bounded FIFO with random access, used for the per-packet history windows
// kept by the estimators. Backed by a flat circular array (power-of-two
// physical capacity, index masking): the windows slide continuously for the
// whole run, and a node- or block-based container would pay an allocation
// every few slots as the window advances. Elements must be
// default-constructible (all window records are plain aggregates).
#pragma once

#include <cstddef>
#include <iterator>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/contracts.hpp"

namespace tscclock {

template <typename T>
class RingBuffer {
 public:
  template <typename BufferT, typename ValueT>
  class Iterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = ValueT;
    using difference_type = std::ptrdiff_t;
    using pointer = ValueT*;
    using reference = ValueT&;

    Iterator() = default;
    Iterator(BufferT* buffer, std::size_t index)
        : buffer_(buffer), index_(index) {}

    reference operator*() const { return buffer_->slot(index_); }
    pointer operator->() const { return &buffer_->slot(index_); }
    reference operator[](difference_type n) const {
      return buffer_->slot(index_ + static_cast<std::size_t>(n));
    }

    Iterator& operator++() { ++index_; return *this; }
    Iterator operator++(int) { Iterator t = *this; ++index_; return t; }
    Iterator& operator--() { --index_; return *this; }
    Iterator operator--(int) { Iterator t = *this; --index_; return t; }
    Iterator& operator+=(difference_type n) {
      index_ = static_cast<std::size_t>(static_cast<difference_type>(index_) + n);
      return *this;
    }
    Iterator& operator-=(difference_type n) { return *this += -n; }
    friend Iterator operator+(Iterator it, difference_type n) { return it += n; }
    friend Iterator operator+(difference_type n, Iterator it) { return it += n; }
    friend Iterator operator-(Iterator it, difference_type n) { return it -= n; }
    friend difference_type operator-(const Iterator& a, const Iterator& b) {
      return static_cast<difference_type>(a.index_) -
             static_cast<difference_type>(b.index_);
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.index_ == b.index_;
    }
    friend bool operator!=(const Iterator& a, const Iterator& b) {
      return a.index_ != b.index_;
    }
    friend bool operator<(const Iterator& a, const Iterator& b) {
      return a.index_ < b.index_;
    }
    friend bool operator>(const Iterator& a, const Iterator& b) { return b < a; }
    friend bool operator<=(const Iterator& a, const Iterator& b) {
      return !(b < a);
    }
    friend bool operator>=(const Iterator& a, const Iterator& b) {
      return !(a < b);
    }

   private:
    BufferT* buffer_ = nullptr;
    std::size_t index_ = 0;  ///< logical index (0 == front)
  };

  using iterator = Iterator<RingBuffer, T>;
  using const_iterator = Iterator<const RingBuffer, const T>;

  explicit RingBuffer(std::size_t capacity) : capacity_(capacity) {
    TSC_EXPECTS(capacity >= 1);
  }

  /// Append; evicts the oldest element when at capacity.
  void push_back(T value) {
    if (size_ == slots_.size()) {
      if (size_ == capacity_) {
        // Physically full and logically at capacity: the new tail slot IS
        // the old head slot (possible only when the physical size equals
        // the bound), so overwrite in place and rotate.
        slots_[head_] = std::move(value);
        head_ = wrap(head_ + 1);
        return;
      }
      grow();
    }
    slots_[wrap(head_ + size_)] = std::move(value);
    if (size_ == capacity_) {
      head_ = wrap(head_ + 1);  // evict the oldest; size stays at capacity
    } else {
      ++size_;
    }
  }

  [[nodiscard]] const T& front() const {
    TSC_EXPECTS(size_ > 0);
    return slots_[head_];
  }
  [[nodiscard]] const T& back() const {
    TSC_EXPECTS(size_ > 0);
    return slots_[wrap(head_ + size_ - 1)];
  }
  [[nodiscard]] T& back() {
    TSC_EXPECTS(size_ > 0);
    return slots_[wrap(head_ + size_ - 1)];
  }

  [[nodiscard]] const T& operator[](std::size_t i) const {
    TSC_EXPECTS(i < size_);
    return slots_[wrap(head_ + i)];
  }
  [[nodiscard]] T& operator[](std::size_t i) {
    TSC_EXPECTS(i < size_);
    return slots_[wrap(head_ + i)];
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  void clear() {
    for (std::size_t k = 0; k < size_; ++k) release(wrap(head_ + k));
    head_ = 0;
    size_ = 0;
  }

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }
  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, size_); }

 private:
  friend iterator;
  friend const_iterator;

  /// Unchecked access by logical index (iterators carry their own bounds).
  T& slot(std::size_t i) { return slots_[wrap(head_ + i)]; }
  const T& slot(std::size_t i) const { return slots_[wrap(head_ + i)]; }

  /// Reset a vacated physical slot so it releases any held resources; a
  /// no-op for the trivially-destructible record types the estimators store.
  void release(std::size_t physical) {
    if constexpr (!std::is_trivially_destructible_v<T>)
      slots_[physical] = T{};
  }

  [[nodiscard]] std::size_t wrap(std::size_t physical) const {
    return physical & (slots_.size() - 1);
  }

  void grow() {
    std::size_t next = slots_.empty() ? 8 : slots_.size() * 2;
    std::vector<T> grown(next);
    for (std::size_t k = 0; k < size_; ++k)
      grown[k] = std::move(slots_[wrap(head_ + k)]);
    slots_ = std::move(grown);
    head_ = 0;
  }

  std::size_t capacity_;  ///< logical bound, >= 1
  std::vector<T> slots_;  ///< physical storage, always a power of two
  std::size_t head_ = 0;  ///< physical index of the logical front
  std::size_t size_ = 0;
};

}  // namespace tscclock
