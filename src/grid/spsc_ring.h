// Bounded lock-free single-producer/single-consumer ring buffer.
//
// The transport between one scan-grid worker (producer) and the central
// aggregator (consumer). Classic Lamport queue with C++11 atomics: the
// producer owns `tail_`, the consumer owns `head_`, and each caches the
// other's index to avoid touching the shared cache line on every call
// (the cached value is refreshed only when the ring looks full/empty).
//
// Exactly one thread may call the push-side API and exactly one thread the
// pop-side API; which threads those are may change only with an intervening
// synchronisation point (the grid joins its workers before draining tails
// on the caller thread).
//
// Backpressure is the *caller's* policy, not the ring's: try_push() returns
// false on full and the producer decides to spin, yield or drop. The grid
// yields and retries (lossless, stalls counted).
#pragma once

#include <atomic>
#include <cstddef>
#include <new>
#include <utility>
#include <vector>

#include "util/error.h"

namespace psnt::grid {

#ifdef __cpp_lib_hardware_interference_size
inline constexpr std::size_t kCacheLine =
    std::hardware_destructive_interference_size;
#else
inline constexpr std::size_t kCacheLine = 64;
#endif

template <typename T>
class SpscRing {
 public:
  // Capacity is rounded up to the next power of two (index masking keeps the
  // hot path branch-free). Head/tail are free-running counters, so every
  // slot is usable.
  explicit SpscRing(std::size_t min_capacity) : slots_(round_up(min_capacity)) {
    PSNT_CHECK(min_capacity > 0, "ring capacity must be positive");
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  // Producer side. Returns false (leaving `value` unconsumed) when full.
  bool try_push(T&& value) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - cached_head_ == slots_.size()) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail - cached_head_ == slots_.size()) return false;
    }
    slots_[tail & (slots_.size() - 1)] = std::move(value);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }
  bool try_push(const T& value) {
    T copy(value);
    return try_push(std::move(copy));
  }

  // Bulk producer entry: moves in up to `n` values and returns how many fit
  // (possibly 0). One release store publishes the whole span, so a batch of
  // samples costs two atomic operations instead of 2n. Values beyond the
  // returned count are left unconsumed for the caller's backpressure policy.
  std::size_t try_push_span(T* values, std::size_t n) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    std::size_t free_slots = slots_.size() - (tail - cached_head_);
    if (free_slots < n) {
      cached_head_ = head_.load(std::memory_order_acquire);
      free_slots = slots_.size() - (tail - cached_head_);
    }
    const std::size_t count = n < free_slots ? n : free_slots;
    if (count == 0) return 0;
    for (std::size_t i = 0; i < count; ++i) {
      slots_[(tail + i) & (slots_.size() - 1)] = std::move(values[i]);
    }
    tail_.store(tail + count, std::memory_order_release);
    return count;
  }

  // Consumer side. Returns false when empty.
  bool try_pop(T& out) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    if (head == cached_tail_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head == cached_tail_) return false;
    }
    out = std::move(slots_[head & (slots_.size() - 1)]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  // Bulk consumer entry: moves out up to `max` values, returns the count
  // (0 when empty). The drain pass pops a whole chunk under one acquire
  // load + one release store.
  std::size_t try_pop_span(T* out, std::size_t max) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    std::size_t avail = cached_tail_ - head;
    if (avail == 0) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      avail = cached_tail_ - head;
      if (avail == 0) return 0;
    }
    const std::size_t count = max < avail ? max : avail;
    for (std::size_t i = 0; i < count; ++i) {
      out[i] = std::move(slots_[(head + i) & (slots_.size() - 1)]);
    }
    head_.store(head + count, std::memory_order_release);
    return count;
  }

  // Snapshot size; exact only when called from producer or consumer thread,
  // approximate (but never torn) from anywhere else.
  [[nodiscard]] std::size_t size() const {
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    const std::size_t head = head_.load(std::memory_order_acquire);
    return tail - head;
  }
  [[nodiscard]] bool empty() const { return size() == 0; }

 private:
  static std::size_t round_up(std::size_t n) {
    std::size_t p = 1;
    while (p < n) p <<= 1;
    return p;
  }

  std::vector<T> slots_;
  // Each side's index pair occupies a full private cache line: alignas puts
  // it at a line start, the explicit pad pushes the next member (or an
  // adjacent object, for the consumer side) off the line. Without the pads a
  // neighbouring allocation can share the line and every push invalidates
  // the consumer's cache (false sharing).
  // Producer-owned index plus its cached view of the consumer's index.
  alignas(kCacheLine) std::atomic<std::size_t> tail_{0};
  std::size_t cached_head_ = 0;
  char producer_pad_[kCacheLine - sizeof(std::atomic<std::size_t>) -
                     sizeof(std::size_t)]{};
  // Consumer-owned index plus its cached view of the producer's index.
  alignas(kCacheLine) std::atomic<std::size_t> head_{0};
  std::size_t cached_tail_ = 0;
  char consumer_pad_[kCacheLine - sizeof(std::atomic<std::size_t>) -
                     sizeof(std::size_t)]{};

  static_assert(sizeof(std::atomic<std::size_t>) + sizeof(std::size_t) <
                    kCacheLine,
                "index pair must leave room for padding");
};

}  // namespace psnt::grid
