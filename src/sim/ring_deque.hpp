#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace elephant::sim {

/// Grow-only ring buffer with deque semantics (push_back / pop_front /
/// random access), used on the per-packet hot paths in place of
/// `std::deque`.
///
/// libstdc++'s deque allocates and frees its block map nodes as the window
/// slides, so a steady-state TCP scoreboard or port delay line churns the
/// allocator forever. This ring doubles its power-of-two backing store as
/// the high-water mark grows and then never touches the allocator again —
/// after warm-up, pushes and pops are index arithmetic.
template <typename T>
class RingDeque {
 public:
  RingDeque() = default;

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }

  [[nodiscard]] T& front() {
    assert(size_ > 0);
    return buf_[head_];
  }
  [[nodiscard]] const T& front() const {
    assert(size_ > 0);
    return buf_[head_];
  }
  [[nodiscard]] T& back() {
    assert(size_ > 0);
    return buf_[(head_ + size_ - 1) & mask_];
  }
  [[nodiscard]] const T& back() const {
    assert(size_ > 0);
    return buf_[(head_ + size_ - 1) & mask_];
  }
  [[nodiscard]] T& operator[](std::size_t i) {
    assert(i < size_);
    return buf_[(head_ + i) & mask_];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    assert(i < size_);
    return buf_[(head_ + i) & mask_];
  }

  void push_back(const T& v) { emplace_back(v); }
  void push_back(T&& v) { emplace_back(std::move(v)); }

  /// Construct the new back element directly in its ring slot (no temporary
  /// copied in), so a packet-sized entry is written once. Arguments must not
  /// refer into this ring: a grow would leave them dangling.
  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == buf_.size()) grow(size_ + 1);
    T* slot = &buf_[(head_ + size_) & mask_];
    if constexpr (std::is_nothrow_constructible_v<T, Args&&...>) {
      std::destroy_at(slot);
      std::construct_at(slot, std::forward<Args>(args)...);
    } else {
      *slot = T(std::forward<Args>(args)...);  // a throw leaves the slot intact
    }
    ++size_;
    return *slot;
  }

  void pop_front() {
    assert(size_ > 0);
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  void clear() {
    head_ = 0;
    size_ = 0;
  }

  /// Pre-size the backing store (rounded up to a power of two) so a known
  /// high-water mark never triggers a mid-run grow.
  void reserve(std::size_t n) {
    if (n > buf_.size()) grow(n);
  }

 private:
  void grow(std::size_t need) {
    std::size_t cap = buf_.empty() ? 16 : buf_.size() * 2;
    while (cap < need) cap *= 2;
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < size_; ++i) next[i] = std::move(buf_[(head_ + i) & mask_]);
    buf_ = std::move(next);
    head_ = 0;
    mask_ = cap - 1;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace elephant::sim
