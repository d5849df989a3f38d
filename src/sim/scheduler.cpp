#include "sim/scheduler.h"

#include <bit>

#include "util/error.h"

namespace psnt::sim {

namespace {

constexpr SimTime align_down(SimTime t) {
  return (t >> Scheduler::kBucketGrainBits) << Scheduler::kBucketGrainBits;
}

}  // namespace

Scheduler::Scheduler()
    : buckets_(kWheelBuckets, nullptr), bucket_tails_(kWheelBuckets, nullptr) {}

Scheduler::~Scheduler() = default;

Scheduler::Node* Scheduler::alloc_node() {
  if (free_list_ == nullptr) {
    chunks_.push_back(std::make_unique<Node[]>(kChunkNodes));
    ++arena_allocations_;
    Node* chunk = chunks_.back().get();
    for (std::size_t i = 0; i < kChunkNodes; ++i) {
      chunk[i].next = free_list_;
      free_list_ = &chunk[i];
    }
  }
  Node* n = free_list_;
  free_list_ = n->next;
  n->next = nullptr;
  return n;
}

void Scheduler::free_node(Node* n) {
  n->action.reset();
  n->next = free_list_;
  free_list_ = n;
}

void Scheduler::wheel_insert(Node* n) {
  const std::size_t idx =
      static_cast<std::size_t>(n->time >> kBucketGrainBits) &
      (kWheelBuckets - 1);
  Node* tail = bucket_tails_[idx];
  if (tail == nullptr) {
    n->next = nullptr;
    buckets_[idx] = n;
    bucket_tails_[idx] = n;
  } else if (tail->time < n->time ||
             (tail->time == n->time && tail->seq < n->seq)) {
    // Dominant case: not earlier than anything queued — covers every
    // same-time fanout wave because seq is monotone. O(1) append.
    n->next = nullptr;
    tail->next = n;
    bucket_tails_[idx] = n;
  } else {
    // Rare: an earlier-time event joins an occupied bucket. Sorted walk;
    // cannot land at the tail (the append test above failed).
    Node** link = &buckets_[idx];
    while ((*link)->time < n->time ||
           ((*link)->time == n->time && (*link)->seq < n->seq)) {
      link = &(*link)->next;
    }
    n->next = *link;
    *link = n;
  }
  bitmap_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
  ++wheel_count_;
}

void Scheduler::insert(Node* n) {
  // A completely idle scheduler re-bases its window at now() so the wheel
  // always covers the near future of the current time.
  if (empty()) wheel_base_ = align_down(now_);
  if (n->time < wheel_base_ + wheel_horizon()) {
    wheel_insert(n);
  } else {
    overflow_.push(n);
  }
}

void Scheduler::refill_wheel_from_overflow() {
  // Pre: wheel empty. Re-base the window at now() and migrate the near
  // slice of the overflow in; what remains is still beyond the horizon.
  wheel_base_ = align_down(now_);
  const SimTime window_end = wheel_base_ + wheel_horizon();
  while (!overflow_.empty() && overflow_.top()->time < window_end) {
    Node* n = overflow_.top();
    overflow_.pop();
    wheel_insert(n);
  }
}

std::size_t Scheduler::first_occupied_bucket() const {
  // Pre: wheel_count_ > 0. All events are at or after now(), so buckets
  // "behind" now are empty and a circular scan from now's bucket terminates
  // at the first (= minimum-time) occupied bucket.
  const std::size_t start =
      static_cast<std::size_t>(std::max(now_, wheel_base_) >>
                               kBucketGrainBits) &
      (kWheelBuckets - 1);
  std::size_t word = start >> 6;
  std::uint64_t bits = bitmap_[word] & (~std::uint64_t{0} << (start & 63));
  for (std::size_t i = 0; i <= kBitmapWords; ++i) {
    if (bits != 0) {
      return (word << 6) +
             static_cast<std::size_t>(std::countr_zero(bits));
    }
    word = (word + 1) & (kBitmapWords - 1);
    bits = bitmap_[word];
  }
  PSNT_CHECK(false, "occupancy bitmap inconsistent with wheel count");
  return 0;  // unreachable
}

Scheduler::Node* Scheduler::peek_min() {
  if (wheel_count_ == 0) {
    if (overflow_.empty()) return nullptr;
    refill_wheel_from_overflow();
    if (wheel_count_ == 0) return overflow_.top();  // beyond the horizon
  }
  // Wheel nonempty: every overflow event is at or past the window end, so
  // the wheel's minimum is the global minimum.
  return buckets_[first_occupied_bucket()];
}

void Scheduler::detach_min(Node* n) {
  if (!overflow_.empty() && overflow_.top() == n) {
    overflow_.pop();
    return;
  }
  const std::size_t idx =
      static_cast<std::size_t>(n->time >> kBucketGrainBits) &
      (kWheelBuckets - 1);
  buckets_[idx] = n->next;
  if (buckets_[idx] == nullptr) {
    bucket_tails_[idx] = nullptr;
    bitmap_[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
  }
  --wheel_count_;
}

void Scheduler::schedule_at(SimTime t, Action action) {
  PSNT_CHECK(t >= now_, "cannot schedule an event in the past");
  if (action.is_heap()) ++heap_callbacks_;
  Node* n = alloc_node();
  n->time = t;
  n->seq = next_seq_++;
  n->action = std::move(action);
  insert(n);
}

void Scheduler::run_until(SimTime t_end) {
  for (;;) {
    Node* n = peek_min();
    if (n == nullptr || n->time > t_end) break;
    detach_min(n);
    now_ = n->time;
    ++executed_;
    Action action = std::move(n->action);
    free_node(n);
    action();
  }
  if (now_ < t_end) now_ = t_end;
}

}  // namespace psnt::sim
